(** Percentiles for the benchmark's reports. *)

val value : permille:int -> float list -> float
(** Nearest-rank percentile: [value ~permille:900 xs] is the p90 of
    [xs]; [0.0] for an empty list. *)

val median : float list -> float

val beyond : permille:int -> int -> int
(** Samples strictly above the nearest-rank [permille] percentile of
    [n] samples. *)

val tail_permille : int -> int option
(** The highest of p99.9, p99, p90 and p50 that has at least ten of
    [n] samples beyond it, in per-mille; [None] below 20 samples. A
    timing is reported as its median and this percentile. *)
