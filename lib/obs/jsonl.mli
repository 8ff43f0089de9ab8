(** Append-only line logs: the one writer and reader under the run
    ledger ({!Runlog}), the alert log ([Educhip_mon.Alertlog]) and the
    job journal ([Educhip_serve.Journal]).

    Each format owns its line codec; this module owns the file
    discipline. Appends never tear a line. Loads are forward-tolerant:
    a line the format cannot decode is dropped and counted, so one bad
    line (a torn tail, a newer tool's record) cannot poison the log. *)

val append : path:string -> Jsonout.t -> unit
(** Append one compact JSON line, creating the file (mode [0o644]) if
    needed. The whole line goes out in one [output_string] into an
    [O_APPEND] channel and is flushed before the call returns, under
    one process-wide mutex, so concurrent writers — parallel workers in
    this process, other processes on the same file — never interleave
    partial lines. *)

val load : path:string -> (string -> 'a option) -> 'a list * int
(** [load ~path decode] is the decoded lines in file order and the
    count of dropped lines. Empty lines are skipped; every other line
    is passed to [decode] byte-exact (no trimming, no newline). A line
    is dropped when [decode] returns [None] or raises [Failure]. A
    missing file is [([], 0)].
    @raise Sys_error if the file exists but cannot be read. *)
