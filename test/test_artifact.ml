module Flow = Educhip_flow.Flow
module Pdk = Educhip_pdk.Pdk
module Place = Educhip_place.Place
module Route = Educhip_route.Route
module Gds = Educhip_gds.Gds
module Synth = Educhip_synth.Synth
module Designs = Educhip_designs.Designs
module Netlist = Educhip_netlist.Netlist
module Fault = Educhip_fault.Fault
module Stepkey = Educhip_artifact.Stepkey
module Artifact = Educhip_artifact.Artifact
module Astore = Educhip_artifact.Store
module Obs = Educhip_obs.Obs
module Runlog = Educhip_obs.Runlog
module Jsonout = Educhip_obs.Jsonout
module Fs = Educhip_util.Fs

let check = Alcotest.check

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let with_store_dir f =
  let dir = temp_dir "educhip_artifact_test" in
  Fun.protect ~finally:(fun () -> Fs.rm_rf dir) (fun () -> f dir)

let node130 = Pdk.find_node "edu130"
let counter = Designs.netlist (Designs.find "counter")

let chain_of cfg =
  Stepkey.chain ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2

(* {2 Key chain shape} *)

let test_chain_shape () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let chain = chain_of cfg in
  check Alcotest.(list string) "one key per template step, flow order"
    Flow.step_names (List.map fst chain);
  let keys = List.map snd chain in
  check Alcotest.int "all keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  check Alcotest.(list string) "deterministic" keys (List.map snd (chain_of cfg))

let test_chain_rtl_sensitivity () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let other = Designs.netlist (Designs.find "gray8") in
  let k1 = List.map snd (chain_of cfg) in
  let k2 =
    List.map snd
      (Stepkey.chain ~netlist:other ~cfg ~inject:[] ~fault_seed:1 ~retries:2)
  in
  List.iter2
    (fun a b -> check Alcotest.bool "RTL change rekeys every step" true (a <> b))
    k1 k2

(* {2 Slice property}

   Perturbing the knobs of step N must leave keys of steps < N unchanged
   and change every key >= N — the warm-prefix invariant the resume
   logic relies on. One entry per perturbable knob, with the index of the
   first step whose slice sees it (template order: synthesis 0, sizing 1,
   buffering 2, placement 3, cts 4, routing 5, sta 6, power 7, drc 8,
   gds 9). *)

let knobs =
  [
    ( "synth_passes",
      (fun (c : Flow.config) k ->
        { c with
          synth_options =
            { c.synth_options with
              Synth.optimization_passes = c.synth_options.Synth.optimization_passes + 1 + k
            } }),
      0 );
    ("sizing_rounds", (fun c k -> { c with Flow.sizing_rounds = c.Flow.sizing_rounds + 1 + k }), 1);
    ("max_fanout", (fun c k -> { c with Flow.max_fanout = Some (4 + k) }), 2);
    ( "place_moves",
      (fun c k ->
        { c with
          Flow.place_effort =
            { c.Flow.place_effort with
              Place.annealing_moves = c.Flow.place_effort.Place.annealing_moves + 1 + k
            } }),
      3 );
    ( "utilization",
      (fun c k -> { c with Flow.utilization = c.Flow.utilization *. (0.9 -. (0.01 *. float_of_int (k mod 10))) }),
      3 );
    ( "route_seed",
      (fun c k ->
        { c with
          Flow.route_effort =
            { c.Flow.route_effort with Route.seed = c.Flow.route_effort.Route.seed + 1 + k }
        }),
      5 );
    ( "clock",
      (fun c k ->
        { c with Flow.clock_period_ps = c.Flow.clock_period_ps +. (7.0 *. float_of_int (1 + k)) }),
      6 );
    ("power_cycles", (fun c k -> { c with Flow.power_cycles = c.Flow.power_cycles + 1 + k }), 7);
  ]

let prop_knob_splits_chain =
  QCheck.Test.make ~name:"knob edit rekeys exactly the suffix at its step" ~count:100
    QCheck.(pair (int_bound (List.length knobs - 1)) small_nat)
    (fun (which, magnitude) ->
      let name, edit, first = List.nth knobs which in
      let base = Flow.config ~node:node130 Flow.Open_flow in
      let edited = edit base magnitude in
      (* a magnitude that happens to round-trip to the same signature is
         a no-op edit; the property is vacuous there *)
      QCheck.assume (Flow.config_signature base <> Flow.config_signature edited);
      let k1 = List.map snd (chain_of base) in
      let k2 = List.map snd (chain_of edited) in
      List.iteri
        (fun i (a, b) ->
          if i < first then (
            if a <> b then
              QCheck.Test.fail_reportf "%s: key %d (%s) changed above the edit" name i
                (List.nth Flow.step_names i))
          else if a = b then
            QCheck.Test.fail_reportf "%s: key %d (%s) survived the edit" name i
              (List.nth Flow.step_names i))
        (List.combine k1 k2);
      true)

(* {2 Fault slices} *)

let arm site fault = Fault.arming site fault

let test_fault_slice_locality () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let chain_with inject =
    List.map snd
      (Stepkey.chain ~netlist:counter ~cfg ~inject ~fault_seed:1 ~retries:2)
  in
  let base = chain_with [] in
  (* a Crash armed at the routing step leaves synthesis..cts keys alone *)
  let routed = chain_with [ arm "flow.routing" Fault.Crash ] in
  List.iteri
    (fun i (a, b) ->
      if i < 5 then check Alcotest.string "pre-routing key stable" a b
      else check Alcotest.bool "routing-onward key rekeyed" true (a <> b))
    (List.combine base routed);
  (* Crash + Hang couple sites through the injector RNG: every key moves *)
  let coupled =
    chain_with [ arm "flow.routing" Fault.Crash; arm "flow.sta" Fault.Hang ]
  in
  List.iter2
    (fun a b -> check Alcotest.bool "rng-coupled plan rekeys everything" true (a <> b))
    base coupled

(* {2 Warm rerun bit-identity}

   Cold-populate a store, edit a late-step knob, then run the edited
   config cold (no store) and warm (resuming from the artifact prefix):
   PPA, verdict, per-step reports, execution records, and the ledger
   record must be bit-identical. *)

let run_with ?memo cfg =
  match Flow.run_guarded ?memo counter cfg with
  | Flow.Completed r -> r
  | Flow.Aborted a -> Alcotest.failf "flow aborted: %s (%s)" a.Flow.failed_step a.Flow.failure_reason

let test_warm_rerun_bit_identical () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let memo_for cfg =
    Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2
  in
  let base = Flow.config ~node:node130 Flow.Open_flow in
  ignore (run_with ~memo:(memo_for base) base);
  check Alcotest.int "cold populate stores every step" (List.length Flow.step_names)
    (Astore.entries store);
  let edited = { base with Flow.clock_period_ps = base.Flow.clock_period_ps *. 1.25 } in
  check Alcotest.int "clock edit resumes at sta" 6
    (Artifact.warm_prefix ~store ~netlist:counter ~cfg:edited ~inject:[] ~fault_seed:1
       ~retries:2);
  let cold = run_with edited in
  let warm = run_with ~memo:(memo_for edited) edited in
  check
    Alcotest.(list (pair string string))
    "step reports identical"
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) cold.Flow.steps)
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) warm.Flow.steps);
  check Alcotest.bool "ppa identical" true (cold.Flow.ppa = warm.Flow.ppa);
  check Alcotest.bool "verdict identical" true (cold.Flow.verdict = warm.Flow.verdict);
  check Alcotest.bool "exec records identical" true (cold.Flow.execs = warm.Flow.execs);
  let ledger r =
    Flow.ledger_record ~design:"counter" ~node:"edu130" ~preset:"open"
      (Flow.Completed r)
  in
  check Alcotest.bool "ledger record identical" true (ledger cold = ledger warm);
  (* the warm run only computed the suffix: sta, power, drc, gds *)
  check Alcotest.int "suffix artifacts stored" (10 + 4) (Astore.entries store)

let test_full_replay_and_lru_cap () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir ~max_entries:10 () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let cold = run_with ~memo cfg in
  let warm = run_with ~memo cfg in
  check Alcotest.bool "full replay bit-identical" true
    (cold.Flow.ppa = warm.Flow.ppa && cold.Flow.execs = warm.Flow.execs);
  check Alcotest.bool "replayed GDS stream identical" true
    (Gds.to_gds_bytes cold.Flow.layout = Gds.to_gds_bytes warm.Flow.layout);
  check Alcotest.int "store capped at max_entries" 10 (Astore.entries store);
  (* an RTL change under a full store evicts oldest entries instead of
     growing past the cap *)
  let other = Designs.netlist (Designs.find "gray8") in
  let memo2 = Artifact.memo ~store ~netlist:other ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  (match Flow.run_guarded ~memo:memo2 other cfg with
  | Flow.Completed _ -> ()
  | Flow.Aborted a -> Alcotest.failf "flow aborted: %s" a.Flow.failed_step);
  check Alcotest.int "eviction holds the cap" 10 (Astore.entries store)

(* A [gds] entry written before layouts were rebuilt from the routed DB
   carries the full layout as its state; the decode ignores it and the
   replay still yields the cold run's stream. *)
let test_legacy_gds_entry_replays () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let cold = run_with ~memo cfg in
  let layout = cold.Flow.layout in
  let legacy_state =
    Jsonout.Obj
      [
        ("die_w", Jsonout.Float layout.Gds.die_w);
        ("die_h", Jsonout.Float layout.Gds.die_h);
        ( "rects",
          Jsonout.List
            (List.map
               (fun (r : Gds.rect) ->
                 Jsonout.List
                   [
                     Jsonout.Int (Gds.layer_number r.Gds.layer);
                     Jsonout.Float r.Gds.x0;
                     Jsonout.Float r.Gds.y0;
                     Jsonout.Float r.Gds.x1;
                     Jsonout.Float r.Gds.y1;
                   ])
               layout.Gds.rects) );
      ]
  in
  let key = List.assoc "gds" (chain_of cfg) in
  (match Astore.get store key Fun.id with
  | Some (Jsonout.Obj fields) ->
    check Alcotest.bool "new entries carry no geometry" true
      (List.assoc "state" fields = Jsonout.Null);
    Astore.put store key
      (Jsonout.Obj
         (List.map (fun (k, v) -> if k = "state" then (k, legacy_state) else (k, v)) fields))
  | _ -> Alcotest.fail "no gds entry stored");
  let warm = run_with ~memo cfg in
  check Alcotest.int "legacy entry read, nothing quarantined" 0 (Astore.quarantined store);
  (* replayed reports carry the cold run's wall times: every step replayed *)
  check Alcotest.bool "full replay" true (cold.Flow.steps = warm.Flow.steps);
  check Alcotest.bool "legacy entry replays the same stream" true
    (Gds.to_gds_bytes cold.Flow.layout = Gds.to_gds_bytes warm.Flow.layout)

let test_corrupt_artifact_quarantined () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let cold = run_with ~memo cfg in
  (* truncate one stored entry mid-payload: the verified read must
     reject it, the run must fall back to computing that step, and the
     result must still be bit-identical *)
  let victim =
    match Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "no artifacts stored"
  in
  let ic = open_in_bin victim in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin victim in
  output_string oc (String.sub body 0 (n / 2));
  close_out oc;
  let warm = run_with ~memo cfg in
  check Alcotest.bool "corruption-tolerant rerun bit-identical" true
    (cold.Flow.ppa = warm.Flow.ppa && cold.Flow.execs = warm.Flow.execs)

(* {2 Store invariants}

   Any owner object round-trips exactly; after any single-byte flip of
   its file, a read returns either the original object (the flip landed
   somewhere harmless, like a hex digit of the crc changing case) or a
   miss that quarantines exactly that file — never a different object.
   The check covers the raw bytes, so an entry re-serialized into
   another layout (pretty-printed) is also a quarantined miss. An object
   that already carries a [crc] member is refused. *)

type damage = Flip of int * int | Reserialize

let store_case =
  let open QCheck.Gen in
  let crc_member =
    frequency [ (9, return []); (1, map (fun c -> [ ("crc", c) ]) Test_obs.json_gen) ]
  in
  let obj =
    map2 (fun v crc -> Jsonout.Obj (("payload", v) :: crc)) Test_obs.json_gen crc_member
  in
  let damage =
    frequency
      [ (4, map2 (fun i x -> Flip (i, x)) nat (int_range 1 255)); (1, return Reserialize) ]
  in
  QCheck.make
    ~print:(fun (o, d) ->
      (match d with
      | Flip (i, x) -> Printf.sprintf "flip byte %d ^ %d of " i x
      | Reserialize -> "pretty-print ")
      ^ Jsonout.to_string o)
    (pair obj damage)

let prop_store_put_get_flip =
  QCheck.Test.make ~name:"store: exact round trip, a flipped byte never reads as another object"
    ~count:300 store_case (fun (obj, damage) ->
      with_store_dir @@ fun dir ->
      let store = Astore.create ~dir () in
      match Astore.put store "k" obj with
      | exception Invalid_argument _ ->
        Jsonout.member "crc" obj <> None && Astore.entries store = 0
      | () ->
        let path = Filename.concat dir "k.json" in
        let exact = Astore.get store "k" Fun.id = Some obj in
        let text = In_channel.with_open_bin path In_channel.input_all in
        let damaged =
          match damage with
          | Flip (pos, mask) ->
            let b = Bytes.of_string text in
            let i = pos mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            Bytes.to_string b
          | Reserialize -> Jsonout.to_string ~pretty:true (Jsonout.of_string text) ^ "\n"
        in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged);
        let quarantined_miss () =
          Astore.quarantined store = 1
          && (not (Sys.file_exists path))
          && Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") "k.json")
        in
        let after_damage =
          match (Astore.get store "k" Fun.id, damage) with
          | Some o, Flip _ -> o = obj && Astore.quarantined store = 0
          | Some _, Reserialize -> false
          | None, _ -> quarantined_miss ()
        in
        (* the entry and the quarantine are all there is: no temp file left *)
        let no_temp =
          Array.for_all (fun n -> n = "k.json" || n = "quarantine") (Sys.readdir dir)
        in
        Jsonout.member "crc" obj = None && exact && after_damage && no_temp)

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_knob_splits_chain; prop_store_put_get_flip ]
  @ [
      ("chain shape", `Quick, test_chain_shape);
      ("chain RTL sensitivity", `Quick, test_chain_rtl_sensitivity);
      ("fault slice locality", `Quick, test_fault_slice_locality);
      ("warm rerun bit-identical", `Quick, test_warm_rerun_bit_identical);
      ("full replay and LRU cap", `Quick, test_full_replay_and_lru_cap);
      ("legacy gds entry replays", `Quick, test_legacy_gds_entry_replays);
      ("corrupt artifact quarantined", `Quick, test_corrupt_artifact_quarantined);
    ]
