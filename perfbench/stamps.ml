module Flow = Educhip_flow.Flow
module Mclock = Educhip_util.Mclock

type t = {
  outcome : Flow.run_outcome;
  wall_ms : float;
  steps : (string * float) list;
  other_ms : float;
}

(* A probe that always misses keeps every step live, so the flow probes
   only before the first step; it calls [memo_save] right after each
   live step. The first step runs from the probe to its save, each later
   step from the previous save to its own. *)
let run netlist cfg =
  let stamps = ref [] and probed = ref None in
  let memo =
    {
      Flow.memo_probe =
        (fun _ ->
          if !probed = None then probed := Some (Mclock.now_ms ());
          None);
      memo_save = (fun step _ -> stamps := (step, Mclock.now_ms ()) :: !stamps);
    }
  in
  let t0 = Mclock.now_ms () in
  let outcome = Flow.run_guarded ~memo netlist cfg in
  let t1 = Mclock.now_ms () in
  let first = Option.value !probed ~default:t0 in
  let steps, last =
    List.fold_left
      (fun (acc, prev) (step, t) -> ((step, t -. prev) :: acc, t))
      ([], first) (List.rev !stamps)
  in
  {
    outcome;
    wall_ms = t1 -. t0;
    steps = List.rev steps;
    other_ms = first -. t0 +. (t1 -. last);
  }
