(** The [serve_mixed] request schedule: open-loop Poisson arrivals at
    {!rate_per_s}, each request one of three classes in fixed
    proportions (1 repeat, 3 delta, 2 fresh in every 6 requests);
    fresh requests cycle through the (design, preset) pairs and the
    tenants so each is drawn equally often, and each repeat or delta
    targets the eligible request followed up least so far. Everything --
    arrival times, classes, designs, presets, tenants, fault seeds and
    delta clocks -- is drawn from the workload seed alone. *)

type cls =
  | Repeat  (** an exact resubmission: served from the whole-job cache *)
  | Delta
      (** an earlier spec at a new clock: the steps before [sta] replay
          from the artifact store, [sta]..[gds] run live *)
  | Fresh
      (** an unseen fault seed, which is in every step key: a fully cold
          run that stores all ten step artifacts and a cache entry *)

val cls_name : cls -> string

type spec = {
  design : string;
  preset : Educhip_flow.Flow.preset;
  tenant : string;
  fault_seed : int;
  clock_ps : float option;  (** [None] = the preset's default clock *)
}

type req = { at_ms : float;  (** due time from the run's start *) cls : cls; spec : spec }

val rate_per_s : float
(** Arrivals per second: the rate that loads the server's one worker to
    a utilisation of 0.2, from the measured cost of each class. *)

val poll_ms : float
(** The fixed interval at which results are polled. *)

val slo_ms : float
(** The latency limit of [slo_met_share]. *)

val target_age_ms : float
(** A repeat or delta only targets a request due at least this long
    before it. *)

val tenants : string array
val advanced_tenant : string

val requests : seconds:float -> int
(** [rate_per_s * seconds], rounded. *)

val schedule : seed:int -> seconds:float -> req array
(** Requests in due order. The first {!target_age_ms} of a run, and any
    repeat or delta without an eligible target, fall back to fresh. *)
