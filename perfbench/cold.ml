(* The cold workloads: in-process Flow.run_guarded calls, one job at a
   time, no cache and no store. *)

module Flow = Educhip_flow.Flow
module Netlist = Educhip_netlist.Netlist
module Obs = Educhip_obs.Obs
module Mclock = Educhip_util.Mclock
module Rng = Educhip_util.Rng

type job = { label : string; netlist : Netlist.t }

type pass = {
  latencies : (string * float) list;  (** per job, ms *)
  busy_ms : float;  (** summed job latencies *)
  peak_heap_mb : float;  (** top heap at the end of the pass *)
  jobs : int;
  failed : int;
  flow_ms : float;  (** summed wall time of the traced flows *)
  step_ms : (string * float) list;  (** per step, summed over jobs *)
  other_ms : float;
  retries : int;
  cells : (string * int) list;  (** mapped cells of each design *)
  counters : (string * int) list;  (** kernel counters of a traced pass *)
  mapped : (string * Netlist.t) list;  (** first mapped netlist of each design *)
  errors : string list;  (** golden mismatches *)
}

let build designs =
  List.map (fun d -> { label = d.Catalogue.label; netlist = d.Catalogue.build () }) designs

(* Whole rounds, each a seeded permutation of every design, while the
   next round is predicted (from the last one) to end within [seconds]:
   every run holds each design equally often, the seed only changes the
   order, and a run that cannot fit two rounds measures one. *)
let run_pass ~jobs ~preset ~seed ~seconds ~traced golden =
  let cfg = Flow.config ~node:(Catalogue.node ()) preset in
  let rng = Rng.create ~seed in
  let order = Array.of_list jobs in
  let latencies = ref [] and busy_ms = ref 0.0 and count = ref 0 and failed = ref 0 in
  let flow_ms = ref 0.0 and other_ms = ref 0.0 and retries = ref 0 in
  let step_ms = Hashtbl.create 16 and cells = ref [] and mapped = ref [] and errors = ref [] in
  let record job outcome ms =
    match outcome with
    | Flow.Aborted a ->
      incr failed;
      errors := Printf.sprintf "%s: aborted at %s" job.label a.Flow.failed_step :: !errors
    | Flow.Completed r ->
      latencies := (job.label, ms) :: !latencies;
      List.iter (fun e -> retries := !retries + e.Flow.attempts - 1) r.Flow.execs;
      if not (List.mem_assoc job.label !mapped) then begin
        mapped := (job.label, r.Flow.mapped) :: !mapped;
        cells := (job.label, r.Flow.ppa.Flow.cells) :: !cells
      end;
      let key =
        {
          Golden.design = job.label;
          preset = Flow.preset_name preset;
          node = Catalogue.node_name;
          clock_ps = cfg.Flow.clock_period_ps;
        }
      in
      match
        Golden.check golden key ~ppa:(Some r.Flow.ppa)
          ~verdict:(Flow.verdict_to_string r.Flow.verdict)
      with
      | Ok () -> ()
      | Error e -> errors := e :: !errors
  in
  let start = Mclock.now_ms () and last_round = ref 0.0 in
  while !count = 0 || Mclock.now_ms () -. start +. !last_round <= seconds *. 1000.0 do
    Rng.shuffle rng order;
    let round_start = Mclock.now_ms () in
    Array.iter
      (fun job ->
        let t0 = Mclock.now_ms () in
        let outcome =
          if traced then begin
            let s = Stamps.run job.netlist cfg in
            flow_ms := !flow_ms +. s.Stamps.wall_ms;
            other_ms := !other_ms +. s.Stamps.other_ms;
            List.iter
              (fun (step, ms) ->
                Hashtbl.replace step_ms step
                  (ms +. Option.value (Hashtbl.find_opt step_ms step) ~default:0.0))
              s.Stamps.steps;
            s.Stamps.outcome
          end
          else Flow.run_guarded job.netlist cfg
        in
        let ms = Mclock.now_ms () -. t0 in
        busy_ms := !busy_ms +. ms;
        incr count;
        record job outcome ms)
      order;
    last_round := Mclock.now_ms () -. round_start
  done;
  let counters =
    match Obs.installed () with
    | Some c when traced ->
      List.map (fun n -> (n, Obs.counter_value c n)) Flow.kernel_metric_names
    | _ -> []
  in
  {
    latencies = !latencies;
    busy_ms = !busy_ms;
    peak_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
    jobs = !count;
    failed = !failed;
    flow_ms = !flow_ms;
    step_ms =
      List.map
        (fun s -> (s, Option.value (Hashtbl.find_opt step_ms s) ~default:0.0))
        Flow.step_names;
    other_ms = !other_ms;
    retries = !retries;
    cells = !cells;
    counters;
    mapped = !mapped;
    errors = !errors;
  }

let cec jobs mapped =
  List.filter_map
    (fun job ->
      match List.assoc_opt job.label mapped with
      | None -> None
      | Some m -> (
        match Educhip_cec.Cec.check job.netlist m with
        | Educhip_cec.Cec.Equivalent -> None
        | v ->
          Some (Format.asprintf "%s: CEC %a" job.label Educhip_cec.Cec.pp_verdict v)))
    jobs
