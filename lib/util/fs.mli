(** Directory helpers shared by the stores, the chaos harness, benches
    and tests. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode [0o755]). A
    directory created concurrently by another process is not an error. *)

val rm_rf : string -> unit
(** Remove a file, or a directory and everything under it. A missing
    path is not an error. *)
