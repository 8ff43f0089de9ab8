(** Minimal JSON tree, emitter, and parser.

    The observability layer must not pull a JSON dependency into every
    library that links against it, so this is a small hand-rolled value
    type with a serializer (string escaping per RFC 8259, non-finite
    floats emitted as [null]) and a strict recursive-descent parser used
    by the test suite and the CLI smoke checks to validate emitted files.

    Numbers: integers print without a decimal point and parse to {!Int};
    every other number prints/parses as {!Float} (integer-valued floats
    are printed as e.g. [5.0] so the distinction survives a round trip). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members, in order; keys are not deduplicated *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default [false]) adds newlines and two-space
    indentation; both forms are valid JSON. *)

val write_file : path:string -> t -> unit
(** [to_string ~pretty:true] plus a trailing newline, written atomically
    enough for our purposes (single [output_string]). *)

val of_string : string -> t
(** Strict parse of a complete JSON document.
    @raise Failure with a position-annotated message on malformed input
    or trailing garbage. *)

val member : string -> t -> t option
(** First member of an {!Obj} with the given key; [None] on other
    constructors or a missing key. *)

(** {2 Tolerant accessors}

    Over {!member}'s result, for forward-tolerant record decoders: a
    missing member or one of another type reads as [None]. Numbers
    coerce both ways ([Int] to [float]; [Float] truncated to [int]). *)

val as_float : t option -> float option
val as_int : t option -> int option
val as_string : t option -> string option

val escape_string : string -> string
(** The quoted, escaped form of a string (including the surrounding
    double quotes) — exposed for tests. *)
