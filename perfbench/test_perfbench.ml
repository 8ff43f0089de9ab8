module Flow = Educhip_flow.Flow
module Designs = Educhip_designs.Designs


let test_tail_percentile () =
  let check n expect =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expect (Pct.tail_permille n)
  in
  check 19 None;
  check 20 (Some 500);
  check 99 (Some 500);
  check 100 (Some 900);
  check 999 (Some 900);
  check 1000 (Some 990);
  check 10_000 (Some 999);
  Alcotest.(check int) "p90 of 100 leaves 10" 10 (Pct.beyond ~permille:900 100);
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p90" 90.0 (Pct.value ~permille:900 xs);
  Alcotest.(check (float 0.0)) "median" 50.0 (Pct.median xs)

let test_schedule_deterministic () =
  let a = Loadgen.schedule ~seed:7 ~seconds:12.0 in
  let b = Loadgen.schedule ~seed:7 ~seconds:12.0 in
  let c = Loadgen.schedule ~seed:8 ~seconds:12.0 in
  Alcotest.(check int) "count" (Loadgen.requests ~seconds:12.0) (Array.length a);
  Alcotest.(check bool) "same seed, same schedule and classes" true (a = b);
  Alcotest.(check bool) "another seed, another schedule" false (a = c);
  Array.iteri
    (fun i (r : Loadgen.req) ->
      Alcotest.(check bool) "in order" true (i = 0 || a.(i - 1).Loadgen.at_ms <= r.Loadgen.at_ms);
      let old =
        List.filter
          (fun (o : Loadgen.req) -> o.Loadgen.at_ms <= r.Loadgen.at_ms -. Loadgen.target_age_ms)
          (Array.to_list (Array.sub a 0 i))
      in
      let s = r.Loadgen.spec in
      match r.Loadgen.cls with
      | Loadgen.Repeat ->
        Alcotest.(check bool) "repeat targets an old spec" true
          (List.exists (fun (o : Loadgen.req) -> o.Loadgen.spec = s) old)
      | Loadgen.Delta ->
        Alcotest.(check bool) "delta is an old spec at a new clock" true
          (List.exists
             (fun (o : Loadgen.req) -> o.Loadgen.spec = { s with Loadgen.clock_ps = o.Loadgen.spec.Loadgen.clock_ps })
             old
          && not (List.exists (fun (o : Loadgen.req) -> o.Loadgen.spec = s) (Array.to_list (Array.sub a 0 i))))
      | Loadgen.Fresh ->
        Alcotest.(check bool) "fresh seed unseen" true
          (not
             (List.exists
                (fun (o : Loadgen.req) -> o.Loadgen.spec.Loadgen.fault_seed = s.Loadgen.fault_seed)
                (Array.to_list (Array.sub a 0 i)))))
    a;
  List.iter
    (fun cls ->
      Alcotest.(check bool) (Loadgen.cls_name cls ^ " drawn") true
        (Array.exists (fun (r : Loadgen.req) -> r.Loadgen.cls = cls) a))
    [ Loadgen.Repeat; Loadgen.Delta; Loadgen.Fresh ]

let teaching_counter () =
  let cfg = Flow.config ~node:(Catalogue.node ()) Flow.Teaching_flow in
  (Designs.netlist (Designs.find "counter"), cfg)

let test_golden_ulp () =
  let golden = Golden.load "golden.txt" in
  let netlist, cfg = teaching_counter () in
  let r = Flow.run netlist cfg in
  let key =
    {
      Golden.design = "counter";
      preset = "teaching";
      node = Catalogue.node_name;
      clock_ps = cfg.Flow.clock_period_ps;
    }
  in
  let verdict = Flow.verdict_to_string r.Flow.verdict in
  let ok p = Golden.check golden key ~ppa:(Some p) ~verdict = Ok () in
  let p = r.Flow.ppa in
  Alcotest.(check bool) "the flow matches its golden entry" true (ok p);
  List.iter
    (fun (field, p') -> Alcotest.(check bool) (field ^ " one ulp off") false (ok p'))
    [
      ("area_um2", { p with Flow.area_um2 = Float.succ p.Flow.area_um2 });
      ("fmax_mhz", { p with Flow.fmax_mhz = Float.pred p.Flow.fmax_mhz });
      ("wns_ps", { p with Flow.wns_ps = Float.succ p.Flow.wns_ps });
      ("total_power_uw", { p with Flow.total_power_uw = Float.succ p.Flow.total_power_uw });
      ("wirelength_um", { p with Flow.wirelength_um = Float.pred p.Flow.wirelength_um });
      ("cells", { p with Flow.cells = p.Flow.cells + 1 });
      ("drc_clean", { p with Flow.drc_clean = not p.Flow.drc_clean });
    ];
  Alcotest.(check bool) "verdict" false
    (Golden.check golden key ~ppa:(Some p) ~verdict:"degraded(placement)" = Ok ());
  Alcotest.(check bool) "unknown key" false
    (Golden.check golden { key with Golden.clock_ps = Float.succ key.Golden.clock_ps } ~ppa:(Some p)
       ~verdict
    = Ok ())

let test_stamps_add_up () =
  let netlist, cfg = teaching_counter () in
  let s = Stamps.run netlist cfg in
  Alcotest.(check (list string)) "one stamp per step" Flow.step_names (List.map fst s.Stamps.steps);
  List.iter (fun (_, ms) -> Alcotest.(check bool) "non-negative" true (ms >= 0.0)) s.Stamps.steps;
  Alcotest.(check bool) "other non-negative" true (s.Stamps.other_ms >= 0.0);
  let total = List.fold_left (fun a (_, ms) -> a +. ms) s.Stamps.other_ms s.Stamps.steps in
  Alcotest.(check (float 1e-6)) "steps + other = wall" s.Stamps.wall_ms total;
  match s.Stamps.outcome with
  | Flow.Completed _ -> ()
  | Flow.Aborted _ -> Alcotest.fail "flow aborted"

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "schedule is a function of the seed" `Quick test_schedule_deterministic;
          Alcotest.test_case "golden check catches one ulp" `Quick test_golden_ulp;
          Alcotest.test_case "step stamps add up to the flow wall" `Quick test_stamps_add_up;
        ] );
    ]
