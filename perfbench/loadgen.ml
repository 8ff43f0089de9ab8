module Flow = Educhip_flow.Flow
module Rng = Educhip_util.Rng

type cls = Repeat | Delta | Fresh

let cls_name = function Repeat -> "repeat" | Delta -> "delta" | Fresh -> "fresh"

type spec = {
  design : string;
  preset : Flow.preset;
  tenant : string;
  fault_seed : int;
  clock_ps : float option;
}

type req = { at_ms : float; cls : cls; spec : spec }

let poll_ms = 5.0
let slo_ms = 250.0
let target_age_ms = 1000.0
let tenants = [| "adv"; "basic" |]
let advanced_tenant = "adv"

(* Each block of 6 consecutive requests holds exactly this many of each
   class, in seeded order, so the class mix -- which sets where the
   latency median falls -- is the same in every run, apart from requests
   that fall back to fresh.
   - repeat, 1 of 6 (17 %): the share of duplicate submissions measured
     in a course campaign (EXPERIMENTS.md X8, a 17 % intra-campaign
     cache hit rate).
   - delta, 3 of 6: academic iteration is mostly small edits of an
     earlier job (EXPERIMENTS.md X14). The share itself is an
     assumption; no measurement in the repository counts edits against
     new jobs.
   - fresh, 2 of 6: the rest.
   The median then falls at about the 67th percentile of the delta
   class and the p90 at about the 70th of the fresh class, both away
   from a class boundary, with some 85 fresh samples behind the p90. *)
let block = [ (Repeat, 1); (Delta, 3); (Fresh, 2) ]

(* The rate loads the one worker to [target_utilisation]: low enough
   that queue wait stays a small part of the median latency, high
   enough that queueing shows in the p90. A repeat costs the worker
   nothing; a delta and a fresh job cost the Job_result.exec_ms medians
   measured by a traced run on a 2-vCPU Intel Xeon VM. *)
let target_utilisation = 0.2
let exec_ms_delta = 18.4
let exec_ms_fresh = 46.5

let rate_per_s =
  let cost = function Repeat -> 0.0 | Delta -> exec_ms_delta | Fresh -> exec_ms_fresh in
  let n = List.fold_left (fun a (_, k) -> a + k) 0 block in
  let work_ms = List.fold_left (fun a (c, k) -> a +. (float_of_int k *. cost c)) 0.0 block in
  target_utilisation *. 1000.0 *. float_of_int n /. work_ms

(* Draws that cycle through a seeded permutation of [items], reshuffled
   each time round: every item is drawn equally often. *)
let deck rng items =
  let a = Array.copy items and next = ref (Array.length items) in
  fun () ->
    if !next = Array.length a then begin
      Rng.shuffle rng a;
      next := 0
    end;
    incr next;
    a.(!next - 1)

let base s = (s.design, s.preset, s.tenant, s.fault_seed)

let requests ~seconds = max 1 (int_of_float (Float.round (rate_per_s *. seconds)))

let schedule ~seed ~seconds =
  let rng = Rng.create ~seed in
  let n = requests ~seconds in
  (* a Poisson process conditioned on its count: n uniform arrival
     times, so every run of a given length sends the same number *)
  let times = Array.init n (fun _ -> Rng.float rng (seconds *. 1000.0)) in
  Array.sort compare times;
  (* one deck over (design, preset) pairs: the pairs a run draws, and so
     its work, do not depend on the seed *)
  let target =
    deck rng
      (Array.of_list
         (List.concat_map
            (fun (d : Catalogue.design) ->
              List.map (fun p -> (d.Catalogue.label, p)) Catalogue.served_presets)
            Catalogue.served))
  in
  let tenant = deck rng tenants in
  let classes =
    deck rng (Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) block))
  in
  let seen_seeds = Hashtbl.create 64 in
  let used_clocks = Hashtbl.create 64 in
  let fresh () =
    let rec seed () =
      let s = 2 + Rng.int rng 1_000_000_000 in
      if Hashtbl.mem seen_seeds s then seed () else (Hashtbl.add seen_seeds s (); s)
    in
    let design, preset = target () in
    let tenant = tenant () in
    { design; preset; tenant; fault_seed = seed (); clock_ps = None }
  in
  let unused_clocks s =
    List.filter
      (fun c -> not (List.mem (Some c) (Hashtbl.find_all used_clocks (base s))))
      (Catalogue.delta_clocks s.preset)
  in
  let out =
    Array.make n
      {
        at_ms = 0.0;
        cls = Fresh;
        spec =
          { design = ""; preset = Flow.Open_flow; tenant = ""; fault_seed = 0; clock_ps = None };
      }
  in
  let follow_ups = Hashtbl.create 64 in
  Array.iteri
    (fun i at_ms ->
      (* only requests old enough to have finished are targets, so a
         repeat finds its cache entry and a delta its stored prefix; the
         target is the one followed up least so far (oldest first), so
         repeats and deltas spread over designs and presets exactly as
         the fresh requests do *)
      let least cls ok =
        let score j = (Hashtbl.find_all follow_ups (cls, j) |> List.length, j) in
        List.fold_left
          (fun best j ->
            if out.(j).at_ms > at_ms -. target_age_ms || not (ok out.(j)) then best
            else
              match best with
              | Some b when score b <= score j -> best
              | _ -> Some j)
          None (List.init i Fun.id)
      in
      let cls, spec =
        match classes () with
        | Repeat -> (
          match least Repeat (fun r -> r.cls <> Repeat) with
          | Some j ->
            Hashtbl.add follow_ups (Repeat, j) ();
            (Repeat, out.(j).spec)
          | None -> (Fresh, fresh ()))
        | Delta -> (
          match least Delta (fun r -> r.cls = Fresh && unused_clocks r.spec <> []) with
          | Some j ->
            Hashtbl.add follow_ups (Delta, j) ();
            let s = out.(j).spec in
            let clocks = unused_clocks s in
            (Delta, { s with clock_ps = Some (List.nth clocks (Rng.int rng (List.length clocks))) })
          | None -> (Fresh, fresh ()))
        | Fresh -> (Fresh, fresh ())
      in
      if cls <> Repeat then Hashtbl.add used_clocks (base spec) spec.clock_ps;
      out.(i) <- { at_ms; cls; spec })
    times;
  out
