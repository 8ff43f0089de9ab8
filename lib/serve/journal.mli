(** Write-ahead job journal: the durability layer of the flow service.

    The paper's Rec. 7 hub is infrastructure universities depend on for
    deadline-driven coursework: a submission accepted before a shuttle
    deadline must survive an operator crash — [kill -9], OOM, power
    loss — not just a polite drain. This module is the persistence
    contract that makes that true: every admitted submission is
    appended (and fsync'd) {e before} the acceptance is acknowledged,
    every dispatch and completion is appended after it, and on startup
    {!Educhip_serve.Server.recover} folds the surviving log into the
    set of jobs that still owe a result.

    {2 On-disk format}

    One entry per line, append-only:

    {v EDUJ1 <crc32-hex8> <compact JSON>\n v}

    - [EDUJ1] is magic + schema version; a reader refuses versions it
      does not speak rather than guessing.
    - The CRC-32 ({!Educhip_util.Crc32}) covers exactly the JSON
      payload bytes. A line whose checksum does not match — the
      signature of a torn write — is {e dropped}, not trusted.
    - The JSON of an [Accepted] entry embeds the submission in its
      exact wire form ({!Wire.submit_to_json}), so the journal speaks
      the same tolerant, forward-compatible dialect as the socket.

    {!load} reads through the shared {!Educhip_obs.Jsonl} loader and
    is torn-tail tolerant: a crash mid-append leaves a partial
    final line, which is discarded (and counted) instead of poisoning
    the log. Every complete, checksummed prefix entry survives.

    Writes are fsync'd per entry: {!append} returns only once the entry
    is on disk, which is what makes "accepted" a durable promise. That
    is why appends here keep their own fd and do not go through
    {!Educhip_obs.Jsonl.append}, which only flushes. *)

type entry =
  | Accepted of { id : string; spec : Wire.submit_spec }
      (** admission: the server took responsibility for this job.
          [spec] carries tenant, trace id, and idempotency key. *)
  | Started of { id : string }  (** a worker began executing the job *)
  | Done of { id : string; verdict : string }
      (** terminal: the job produced [verdict] (ok / degraded(...) /
          failed(...)). An [Accepted] with no [Done] is the crash
          signature recovery replays. *)

val entry_id : entry -> string

(** {1 Line codec} (exposed for tests) *)

val entry_to_line : entry -> string
(** One journal line, without the trailing newline. *)

val entry_of_line : string -> (entry, string) result
(** [Error] on bad magic/version, checksum mismatch, or undecodable
    payload — the caller decides whether that is a torn tail (drop) or
    corruption worth counting. *)

(** {1 Appending} *)

type t
(** An open journal: an append-mode fd plus a mutex serializing writers
    (connection threads and worker domains both append). *)

val open_ : path:string -> t
(** Open (creating if missing) for appending. Never truncates. If the
    file ends mid-line — a crash interrupted an append — the torn tail
    is first terminated with a newline so subsequent appends cannot be
    glued onto it; the torn line itself still fails its checksum and is
    dropped by {!load}. *)

val append : t -> entry -> unit
(** Serialize, write, flush, [fsync]. Thread-safe. *)

val close : t -> unit

val path : t -> string

(** {1 Loading and recovery} *)

type loaded = {
  entries : entry list;  (** valid entries, file order *)
  dropped : int;  (** lines discarded: torn tail, bad CRC, bad payload *)
}

val load : path:string -> loaded
(** {!Educhip_obs.Jsonl.load} with {!entry_of_line} as the decoder. A
    missing file is an empty journal. Never raises on content: every
    malformed line is dropped and counted.
    @raise Sys_error if the file exists but cannot be read — recovery
    must not mistake an unreadable journal for an empty one. *)

type recovery = {
  pending : (string * Wire.submit_spec) list;
      (** accepted-but-not-done, in original admission (file) order —
          the jobs a restart owes results for *)
  started_incomplete : int;
      (** of [pending], how many had begun executing when the crash hit *)
  completed : (string * Wire.submit_spec * string) list;
      (** (id, spec, verdict) of jobs that reached [Done], file order *)
  entries_read : int;
  dropped : int;
}

val recover : path:string -> recovery
(** {!load} folded into recovery shape. A [Done] or [Started] whose id
    was never [Accepted] (possible only under mid-file corruption) is
    ignored. *)

val compact : path:string -> entry list -> unit
(** Atomically replace the journal with exactly [entries] (temp file,
    fsync, rename). {!Server.recover} calls this after replay so the
    log holds one [Accepted]+[Done] pair per known job instead of the
    full append history. Any open {!t} on [path] must be (re)opened
    after compaction — the old fd points at the replaced inode. *)
