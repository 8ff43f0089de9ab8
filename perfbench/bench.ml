(* The educhip benchmark. Normally started through run.py, which builds
   it first:

     bench.exe --workload cold_commercial --seed 1 --seconds 30 --trace 0
     bench.exe --write-golden perfbench/golden.txt

   The last line of standard output is one JSON object: correct,
   attempted, failed, and the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1). A golden, verdict or CEC mismatch
   prints correct=false and exits 1; a load generator that fell behind
   its schedule makes the run invalid (exit 3, no result). *)

module Flow = Educhip_flow.Flow
module Obs = Educhip_obs.Obs
module Mclock = Educhip_util.Mclock

let end_to_end =
  [
    ("jobs_per_s", "jobs/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("slo_met_share", "ratio");
    ("success_share", "ratio");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let step_metric = function
  | "synthesis" -> "synth.synthesis_ms"
  | "sizing" -> "synth.sizing_ms"
  | "buffering" -> "synth.buffering_ms"
  | "placement" -> "place.placement_ms"
  | "cts" -> "cts.cts_ms"
  | "routing" -> "route.routing_ms"
  | "sta" -> "timing.sta_ms"
  | "power" -> "power.power_ms"
  | "drc" -> "drc.drc_ms"
  | "gds" -> "gds.gds_ms"
  | s -> invalid_arg ("step_metric " ^ s)

let per_layer =
  List.map (fun s -> (step_metric s, "ms")) Flow.step_names
  @ [
      ("flow.other_ms", "ms");
      ("place.share", "ratio");
      ("route.share", "ratio");
      ("synth.sizing_share", "ratio");
      ("place.moves_accepted", "count");
      ("place.accept_ratio", "ratio");
      ("route.rrr_rounds", "count");
      ("route.nets_ripped", "count");
      ("synth.aig_rewrites", "count");
      ("synth.cells_upsized", "count");
      ("netlist.cells", "count");
      ("flow.step_retries", "count");
      ("loadgen.late_ms_p90", "ms");
      ("wire.submit_rtt_ms_p50", "ms");
      ("wire.poll_rtt_ms_p50", "ms");
      ("wire.codec_us_p50", "us");
      ("serve.polls_per_job", "count");
      ("serve.admission_ms_p50", "ms");
      ("serve.queue_wait_ms_p50", "ms");
      ("serve.queue_wait_ms_p90", "ms");
      ("serve.exec_ms_p50.delta", "ms");
      ("serve.exec_ms_p50.fresh", "ms");
      ("serve.rejected_share", "ratio");
      ("cache.hit_share", "ratio");
      ("artifact.hit_share", "ratio");
      ("artifact.stores", "count");
      ("artifact.bytes_read", "count");
      ("artifact.bytes_written", "count");
      ("artifact.probe_ms_p50", "ms");
      ("obs.trace_overhead_pct", "%");
    ]

(* latency limits of slo_met_share, stated with each workload in
   BENCHMARK.json *)
let slo_ms = function "cold_commercial" -> 2000.0 | "cold_large_open" -> 10_000.0 | _ -> Loadgen.slo_ms

(* a run whose generator ran later than this at p90 is invalid *)
let max_late_ms_p90 = 20.0

exception Invalid_run of string

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* setup_s is the median of this many set-ups in one run *)
let setups = 51

(* Set up [n] times and keep the last, discarding the others untimed;
   report the median duration. Each set-up starts with an empty minor
   heap, so where the last one left the minor collector does not carry
   into the next. (A full major collection here would steady set-up
   further, but it doubles the flow's later top heap on OCaml 5.1.) *)
let setup_median ?(discard = ignore) n f =
  let rec go k acc =
    Gc.minor ();
    let t0 = Mclock.now_ms () in
    let v = f k in
    let s = (Mclock.now_ms () -. t0) /. 1000.0 in
    if k + 1 = n then begin
      let samples = s :: acc in
      Printf.eprintf "setup_s: %d set-ups, min %.5f, median %.5f, max %.5f\n%!" n
        (List.fold_left Float.min s samples) (Pct.median samples)
        (List.fold_left Float.max s samples);
      (v, Pct.median samples)
    end
    else begin
      discard v;
      go (k + 1) (s :: acc)
    end
  in
  go 0 []

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float) list;
}

let latency_metrics ~workload ~attempted ~failed lat =
  let met = List.length (List.filter (fun l -> l <= slo_ms workload) lat) in
  [
    ("latency_p50_ms", Pct.median lat);
    ("latency_p90_ms", Pct.value ~permille:900 lat);
    ("slo_met_share", ratio (fi met) (fi attempted));
    ("success_share", 1.0 -. ratio (fi failed) (fi attempted));
  ]

let report_samples name xs =
  let n = List.length xs in
  match Pct.tail_permille n with
  | Some p when p > 500 ->
    Printf.eprintf "%s: %d samples, p50 %.3f, p%g %.3f\n%!" name n (Pct.median xs)
      (fi p /. 10.0) (Pct.value ~permille:p xs)
  | _ -> Printf.eprintf "%s: %d samples, p50 %.3f\n%!" name n (Pct.median xs)

let cold ~workload ~designs ~preset ~seed ~seconds ~trace golden =
  let jobs, setup_s = setup_median setups (fun _ -> Cold.build designs) in
  let run traced = Cold.run_pass ~jobs ~preset ~seed ~seconds ~traced golden in
  let plain = run false in
  let lat = List.map snd plain.Cold.latencies in
  report_samples (workload ^ " latency_ms") lat;
  Printf.eprintf "%s p50 ms by design:%s\n%!" workload
    (String.concat ""
       (List.map
          (fun (j : Cold.job) ->
            Printf.sprintf " %s=%.1f" j.Cold.label
              (Pct.median
                 (List.filter_map
                    (fun (l, ms) -> if l = j.Cold.label then Some ms else None)
                    plain.Cold.latencies)))
          jobs));
  let traced =
    if trace then Some (Obs.with_collector (Obs.create ()) (fun () -> run true)) else None
  in
  let errors =
    plain.Cold.errors
    @ (match traced with Some t -> t.Cold.errors | None -> [])
    @ Cold.cec jobs plain.Cold.mapped
  in
  let attempted = plain.Cold.jobs and failed = plain.Cold.failed in
  let metrics =
    match traced with
    | None ->
      ("jobs_per_s", fi (attempted - failed) /. (plain.Cold.busy_ms /. 1000.0))
      :: latency_metrics ~workload ~attempted ~failed lat
      @ [ ("peak_heap_mb", plain.Cold.peak_heap_mb); ("setup_s", setup_s) ]
    | Some t ->
      let step s = List.assoc s t.Cold.step_ms in
      let counter c = fi (List.assoc c t.Cold.counters) in
      let acc = counter "place.moves_accepted" and rej = counter "place.moves_rejected" in
      List.map (fun (s, ms) -> (step_metric s, ms)) t.Cold.step_ms
      @ [
          ("flow.other_ms", t.Cold.other_ms);
          ("place.share", ratio (step "placement") t.Cold.flow_ms);
          ("route.share", ratio (step "routing") t.Cold.flow_ms);
          ("synth.sizing_share", ratio (step "sizing") t.Cold.flow_ms);
          ("place.moves_accepted", acc);
          ("place.accept_ratio", ratio acc (acc +. rej));
          ("route.rrr_rounds", counter "route.rrr_rounds");
          ("route.nets_ripped", counter "route.nets_ripped");
          ("synth.aig_rewrites", counter "synth.aig_rewrites");
          ("synth.cells_upsized", counter "synth.cells_upsized");
          ("netlist.cells", fi (List.fold_left (fun a (_, c) -> a + c) 0 t.Cold.cells));
          ("flow.step_retries", fi t.Cold.retries);
          ( "obs.trace_overhead_pct",
            100.0 *. (ratio (Pct.median (List.map snd t.Cold.latencies)) (Pct.median lat) -. 1.0) );
        ]
  in
  { attempted; failed; errors; metrics }

let served ~exe ~seed ~seconds ~trace golden =
  let n = Loadgen.requests ~seconds in
  if n < 100 then
    failwith
      (Printf.sprintf "serve_mixed needs at least 100 requests (%d at --seconds %g)" n seconds);
  let root = Printf.sprintf ".bench_run/%d" (Unix.getpid ()) in
  let start ?prom k = Served.start ?prom ~exe ~dir:(Printf.sprintf "%s/%d" root k) () in
  let store (s : Served.server) =
    Educhip_artifact.Store.create ~dir:(Filename.concat s.Served.dir "artifacts") ()
  in
  Fun.protect ~finally:(fun () -> Served.rm_rf root) @@ fun () ->
  let server, setup_s =
    setup_median setups start ~discard:(fun s ->
        Served.stop s;
        Served.rm_rf s.Served.dir)
  in
  let plain = Served.run_pass ~server ~seed ~seconds ~traced:false in
  Served.stop server;
  let errors = Served.golden_errors golden plain @ Served.cec ~store:(store server) plain in
  let traced =
    if trace then begin
      let server = start ~prom:true setups in
      let t = Served.run_pass ~server ~seed ~seconds ~traced:true in
      Served.stop server;
      Some
        ( t,
          Served.exported_metrics server,
          Served.golden_errors golden t,
          Served.probe_ms ~store:(store server) t )
    end
    else None
  in
  let summary (p : Served.pass) =
    let ok = function
      | Served.Done d -> not (Educhip_sched.Sched.is_failed d.Served.verdict)
      | _ -> false
    in
    let dones =
      List.filter_map
        (fun (r, st) -> match st with Served.Done d when ok st -> Some (r, d) | _ -> None)
        (List.combine (Array.to_list p.Served.reqs) (Array.to_list p.Served.status))
    in
    let late = Pct.value ~permille:900 (Array.to_list p.Served.late_ms) in
    if late > max_late_ms_p90 then
      raise
        (Invalid_run
           (Printf.sprintf
              "invalid run: the load generator sent %.1f ms behind schedule at p90 (bound %.0f ms)"
              late max_late_ms_p90));
    (dones, n - List.length dones, late)
  in
  let dones, failed, _ = summary plain in
  let lat = List.map (fun (_, d) -> d.Served.latency_ms) dones in
  report_samples "serve_mixed latency_ms" lat;
  List.iter
    (fun cls ->
      report_samples
        ("serve_mixed latency_ms " ^ Loadgen.cls_name cls)
        (List.filter_map
           (fun ((r : Loadgen.req), d) -> if r.Loadgen.cls = cls then Some d.Served.latency_ms else None)
           dones))
    [ Loadgen.Repeat; Loadgen.Delta; Loadgen.Fresh ];
  let metrics =
    match traced with
    | None ->
      ("jobs_per_s", ratio (fi (List.length dones)) (plain.Served.wall_ms /. 1000.0))
      :: latency_metrics ~workload:"serve_mixed" ~attempted:n ~failed lat
      @ [ ("peak_heap_mb", plain.Served.peak_rss_mb); ("setup_s", setup_s) ]
    | Some (t, metrics_text, _, probes) ->
      let tdones, _, late = summary t in
      let events name =
        List.concat_map
          (fun (_, d) ->
            List.filter_map
              (fun (e : Educhip_obs.Tracectx.event) ->
                if e.Educhip_obs.Tracectx.name = name then Some (e.Educhip_obs.Tracectx.dur_us /. 1000.0)
                else None)
              d.Served.events)
          tdones
      in
      let sum = List.fold_left ( +. ) 0.0 in
      let steps = List.map (fun s -> (s, sum (events s))) Flow.step_names in
      let flow_ms = sum (events "flow.run") in
      let prom name = Served.prom_value metrics_text name in
      let acc = prom "place.moves_accepted" and rej = prom "place.moves_rejected" in
      let hits = prom "artifact.hits" and misses = prom "artifact.misses" in
      let count f = fi (List.length (List.filter f (Array.to_list t.Served.status))) in
      let cells = Hashtbl.create 32 in
      List.iter
        (fun ((r : Loadgen.req), d) ->
          match d.Served.ppa with
          | Some p ->
            Hashtbl.replace cells
              (r.Loadgen.spec.Loadgen.design, r.Loadgen.spec.Loadgen.preset)
              p.Flow.cells
          | None -> ())
        tdones;
      let exec cls =
        Pct.median
          (List.filter_map
             (fun ((r : Loadgen.req), d) ->
               if r.Loadgen.cls = cls then Some d.Served.exec_ms else None)
             tdones)
      in
      let waits =
        List.filter_map
          (fun (_, d) -> if d.Served.from_cache then None else Some d.Served.wait_ms)
          tdones
      in
      let tlat = List.map (fun (_, d) -> d.Served.latency_ms) tdones in
      List.map (fun (s, ms) -> (step_metric s, ms)) steps
      @ [
          ("flow.other_ms", flow_ms -. sum (List.map snd steps));
          ("place.share", ratio (List.assoc "placement" steps) flow_ms);
          ("route.share", ratio (List.assoc "routing" steps) flow_ms);
          ("synth.sizing_share", ratio (List.assoc "sizing" steps) flow_ms);
          ("place.moves_accepted", acc);
          ("place.accept_ratio", ratio acc (acc +. rej));
          ("route.rrr_rounds", prom "route.rrr_rounds");
          ("route.nets_ripped", prom "route.nets_ripped");
          ("synth.aig_rewrites", prom "synth.aig_rewrites");
          ("synth.cells_upsized", prom "synth.cells_upsized");
          ("netlist.cells", fi (Hashtbl.fold (fun _ c a -> a + c) cells 0));
          ("flow.step_retries", prom "flow.step_retries");
          ("loadgen.late_ms_p90", late);
          ("wire.submit_rtt_ms_p50", Pct.median t.Served.submit_rtt);
          ("wire.poll_rtt_ms_p50", Pct.median t.Served.poll_rtt);
          ("wire.codec_us_p50", Pct.median t.Served.codec_us);
          ("serve.polls_per_job", ratio (fi t.Served.polls) (fi (List.length tdones)));
          ("serve.admission_ms_p50", Pct.median (events "serve.admission"));
          ("serve.queue_wait_ms_p50", Pct.median waits);
          ("serve.queue_wait_ms_p90", Pct.value ~permille:900 waits);
          ("serve.exec_ms_p50.delta", exec Loadgen.Delta);
          ("serve.exec_ms_p50.fresh", exec Loadgen.Fresh);
          ("serve.rejected_share", ratio (count (( = ) Served.Rejected)) (fi n));
          ( "cache.hit_share",
            ratio (fi (List.length (List.filter Fun.id (Array.to_list t.Served.cached)))) (fi n) );
          ("artifact.hit_share", ratio hits (hits +. misses));
          ("artifact.stores", prom "artifact.stores");
          ("artifact.bytes_read", prom "artifact.bytes_read");
          ("artifact.bytes_written", prom "artifact.bytes_written");
          ("artifact.probe_ms_p50", Pct.median probes);
          ( "obs.trace_overhead_pct",
            100.0 *. (ratio (Pct.median tlat) (Pct.median lat) -. 1.0) );
        ]
  in
  let errors = errors @ match traced with Some (_, _, e, _) -> e | None -> [] in
  { attempted = n; failed; errors; metrics }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~trace r =
  let catalogue = if trace then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name r.metrics with
    | Some v -> v
    | None when trace -> 0.0
    | None -> failwith ("no value for end-to-end metric " ^ name)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (value name)) unit)
      catalogue
  in
  List.iter (fun e -> Printf.eprintf "MISMATCH %s\n" e) r.errors;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.errors = []) r.attempted r.failed (String.concat ", " metrics)

(* Every (design, preset, node, clock) a workload can draw. *)
let golden_keys () =
  let at preset designs clocks =
    List.concat_map
      (fun (d : Catalogue.design) ->
        List.map (fun clock -> (d, preset, clock)) (Catalogue.default_clock_ps preset :: clocks))
      designs
  in
  at Flow.Commercial_flow Catalogue.commercial []
  @ at Flow.Open_flow Catalogue.large_open []
  @ List.concat_map
      (fun preset -> at preset Catalogue.served (Catalogue.delta_clocks preset))
      Catalogue.served_presets

let write_golden path =
  let lines =
    List.sort_uniq compare
      (List.map
         (fun ((d : Catalogue.design), preset, clock) ->
           let cfg = Flow.config ~node:(Catalogue.node ()) ~clock_period_ps:clock preset in
           let r = Flow.run (d.Catalogue.build ()) cfg in
           Golden.line
             {
               Golden.design = d.Catalogue.label;
               preset = Flow.preset_name preset;
               node = Catalogue.node_name;
               clock_ps = clock;
             }
             { Golden.ppa = r.Flow.ppa; verdict = Flow.verdict_to_string r.Flow.verdict })
         (golden_keys ()))
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# design preset node clock_ps area_um2 cells fmax_mhz wns_ps total_power_uw \
         wirelength_um drc_clean verdict (floats in %h)\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Printf.printf "wrote %d golden entries to %s\n" (List.length lines) path

let usage =
  "bench.exe --workload cold_commercial|cold_large_open|serve_mixed --seed N --seconds S \
   --trace 0|1 [--eduserved EXE]\n\
   bench.exe --write-golden FILE"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/eduserved.exe" in
  let write = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--eduserved", Arg.Set_string exe, "EXE");
      ("--write-golden", Arg.Set_string write, "FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write <> "" then write_golden !write
  else begin
    let golden = Golden.load "perfbench/golden.txt" in
    let trace = !trace = 1 and seed = !seed and seconds = !seconds in
    let r =
      match !workload with
      | "cold_commercial" ->
        cold ~workload:!workload ~designs:Catalogue.commercial ~preset:Flow.Commercial_flow
          ~seed ~seconds ~trace golden
      | "cold_large_open" ->
        cold ~workload:!workload ~designs:Catalogue.large_open ~preset:Flow.Open_flow ~seed
          ~seconds ~trace golden
      | "serve_mixed" -> (
        try served ~exe:!exe ~seed ~seconds ~trace golden
        with Invalid_run msg ->
          prerr_endline msg;
          exit 3)
      | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
    in
    print_result ~trace r;
    if r.errors <> [] then exit 1
  end
