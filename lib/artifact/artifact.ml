module Flow = Educhip_flow.Flow
module Netlist = Educhip_netlist.Netlist
module Jsonout = Educhip_obs.Jsonout

let version = Stepkey.version

(* {1 Step-entry codec}

   The object a step artifact stores: the step's report and exec record
   plus the snapshot's dispatch tag and raw payload. Decoding the
   payload is deferred to [memo], which holds the upstream context a
   decode needs. The file also names its own chained content key. *)

type entry = {
  step : string;
  tag : string;
  state : Jsonout.t;
  report : Flow.step_report;
  exec : Flow.step_exec;
}

let schema = 1

let entry_to_json ~key e =
  Jsonout.Obj
    [
      ("schema", Jsonout.Int schema);
      ("key", Jsonout.String key);
      ("step", Jsonout.String e.step);
      ("tag", Jsonout.String e.tag);
      ("state", e.state);
      ("report", Codec.report_to_json e.report);
      ("exec", Codec.exec_to_json e.exec);
    ]

let entry_of_json j =
  (match Jsonout.member "schema" j with
  | Some (Jsonout.Int v) when v = schema -> ()
  | _ -> failwith "artifact entry: bad schema");
  let field k =
    match Jsonout.member k j with
    | Some v -> v
    | None -> failwith ("artifact entry: missing " ^ k)
  in
  let str k =
    match field k with
    | Jsonout.String s -> s
    | _ -> failwith ("artifact entry: missing " ^ k)
  in
  (* checked, not kept: the file name already is the key *)
  ignore (str "key" : string);
  {
    step = str "step";
    tag = str "tag";
    state = field "state";
    report = Codec.report_of_json (field "report");
    exec = Codec.exec_of_json (field "exec");
  }

(* The decode context accumulates as the warm prefix restores: each
   restored netlist (synthesis, sizing, buffering) becomes the netlist a
   later placement decode builds on; the restored placement becomes the
   placement a routing decode builds on, and the restored routed DB the
   one the GDS layout is rebuilt from. Because [Flow.run_guarded] only
   probes while every previous step replayed, a step's context is always
   complete by the time its decode runs. *)
let memo ~store ~netlist ~cfg ~inject ~fault_seed ~retries : Flow.memo =
  let keys = Stepkey.chain ~netlist ~cfg ~inject ~fault_seed ~retries in
  let design_name = Netlist.name netlist in
  let node = cfg.Flow.node in
  let last_netlist = ref None in
  let last_place = ref None in
  let last_route = ref None in
  let track = function
    | Flow.S_synth (n, _) | Flow.S_netlist n -> last_netlist := Some n
    | Flow.S_place p -> last_place := Some p
    | Flow.S_route r -> last_route := Some r
    | Flow.S_cts _ | Flow.S_timing _ | Flow.S_power _ | Flow.S_drc _ | Flow.S_gds _ -> ()
  in
  let memo_probe step =
    match List.assoc_opt step keys with
    | None -> None
    | Some key -> (
      match Store.get store key entry_of_json with
      | None -> None
      | Some e -> (
        let ctx =
          {
            Codec.design_name;
            node;
            netlist = !last_netlist;
            placement = !last_place;
            routed = !last_route;
          }
        in
        match Codec.state_of_json ctx ~tag:e.tag e.state with
        | Some st ->
          track st;
          Some { Flow.snap_state = st; snap_report = e.report; snap_exec = e.exec }
        | None -> None
        | exception Failure _ ->
          (* checksum passed but the payload doesn't decode: schema
             drift or a hand-edited file — quarantine, run live *)
          Store.quarantine_key store key;
          None))
  in
  let memo_save step (s : Flow.step_snapshot) =
    match List.assoc_opt step keys with
    | None -> ()
    | Some key ->
      track s.Flow.snap_state;
      let tag, state = Codec.state_to_json s.Flow.snap_state in
      Store.put store key
        (entry_to_json ~key
           { step; tag; state; report = s.Flow.snap_report; exec = s.Flow.snap_exec })
  in
  { Flow.memo_probe; memo_save }

(* Read-only prediction for --dry-run: how many leading steps would
   replay. Counts consecutive probe hits from the chain's head — the
   same stop-at-first-miss rule the replay itself follows, so the
   prediction can't overpromise a resume depth the run won't reach. *)
let warm_prefix ~store ~netlist ~cfg ~inject ~fault_seed ~retries =
  let keys = Stepkey.chain ~netlist ~cfg ~inject ~fault_seed ~retries in
  let rec count n = function
    | (_, key) :: rest when Store.probe store key entry_of_json -> count (n + 1) rest
    | _ -> n
  in
  count 0 keys
