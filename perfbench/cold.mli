(** The cold workloads: the flow called in-process, one job at a time,
    with no cache and no store. *)

type job = { label : string; netlist : Educhip_netlist.Netlist.t }

val build : Catalogue.design list -> job list
(** Elaborate every design: the workload's set-up. *)

type pass = {
  latencies : (string * float) list;
      (** per completed job: its design and the time from the call to its
          return, ms *)
  busy_ms : float;  (** summed call-to-return time of every job *)
  peak_heap_mb : float;
      (** [Gc] top heap of the process at the end of the pass, MB *)
  jobs : int;
  failed : int;  (** aborted runs *)
  flow_ms : float;  (** summed flow wall time (traced passes) *)
  step_ms : (string * float) list;
      (** per {!Educhip_flow.Flow.step_names} entry, summed over jobs
          (traced passes) *)
  other_ms : float;  (** summed flow wall minus its steps (traced passes) *)
  retries : int;  (** sum of [attempts - 1] over every step execution *)
  cells : (string * int) list;  (** mapped cells of each design *)
  counters : (string * int) list;
      (** kernel counters (traced passes run under an installed collector) *)
  mapped : (string * Educhip_netlist.Netlist.t) list;
      (** the first mapped netlist of each design, for CEC *)
  errors : string list;  (** golden mismatches and aborted runs *)
}

val run_pass :
  jobs:job list ->
  preset:Educhip_flow.Flow.preset ->
  seed:int ->
  seconds:float ->
  traced:bool ->
  Golden.t ->
  pass
(** Run whole rounds -- each a seeded permutation of [jobs] -- while
    the next is predicted to end within [seconds] (at least one), checking every result against the
    golden file. [traced] times the steps through {!Stamps}. *)

val cec : job list -> (string * Educhip_netlist.Netlist.t) list -> string list
(** [Cec.check] of each mapped netlist against its RTL; one line per
    design that is not [Equivalent]. *)
