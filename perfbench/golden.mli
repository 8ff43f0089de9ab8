(** The golden file: bit-exact PPA, verdict and DRC status for every
    (design, preset, node, clock) a workload can draw. One line each,
    floats in [%h] so they round-trip exactly. *)

type key = { design : string; preset : string; node : string; clock_ps : float }
type entry = { ppa : Educhip_flow.Flow.ppa; verdict : string }
type t

val line : key -> entry -> string

val load : string -> t
(** Blank lines and [#] comments are skipped.
    @raise Failure on a malformed line. *)

val check :
  t -> key -> ppa:Educhip_flow.Flow.ppa option -> verdict:string -> (unit, string) result
(** [Error] names the key and every field that differs from the golden
    entry by so much as one ulp, or a key the file does not hold. *)
