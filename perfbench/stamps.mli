(** Per-step wall times of one flow run, measured from outside the flow
    through a {!Educhip_flow.Flow.memo} hook that records when the first
    step was probed and when each live step finished. *)

type t = {
  outcome : Educhip_flow.Flow.run_outcome;
  wall_ms : float;  (** from the call to its return *)
  steps : (string * float) list;  (** each live step's wall time, in order *)
  other_ms : float;
      (** validation and set-up before the first step, plus the time
          after the last step until the call returned. The flow probes
          the memo only before its first step, so the bookkeeping
          between two steps counts in the step that follows. The steps
          plus this add up to [wall_ms]. *)
}

val run : Educhip_netlist.Netlist.t -> Educhip_flow.Flow.config -> t
