(** The lexer shared by the line-based text formats: campaign manifests,
    alert rules and cluster specs.

    One directive per line; [#] starts a comment that runs to the end of
    the line; tokens are separated by runs of spaces and tabs; blank and
    comment-only lines carry nothing. Each format keeps its own
    grammar over the tokens and its own error wording: a parser raises
    {!Error} through {!fail} and formats it where it catches it. *)

exception Error of int * string
(** A malformed directive: 1-based line number and message. *)

val lines : string -> (int * string list) list
(** The text's non-empty lines as (1-based line number, tokens), in file
    order, comments dropped. *)

val key_value : string -> (string * string) option
(** ["k=v"] as [("k", "v")], splitting at the first [=]; [None] when
    there is no [=] or the key would be empty. *)

val fail : int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail lineno fmt ...] raises {!Error} with the formatted message. *)
