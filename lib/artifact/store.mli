(** Content-addressed on-disk store: the one mechanism under both the
    whole-job result cache ([Educhip_sched.Cache]) and the per-step
    artifact store ({!Artifact}).

    One JSON file per key, holding an object its owning module builds,
    with a trailing [crc] member (the CRC-32 of the object without it).
    An entry that is unreadable as JSON, has no [crc], fails its
    checksum, or fails the owner's decoder is corrupt: it reads as a
    miss and is moved to the [quarantine/] subdirectory for inspection
    rather than deleted. Quarantined files neither hit nor count against
    the cap. Above the cap, entries are evicted oldest-mtime first; a
    hit refreshes the mtime.

    Writes go to a temp file whose name is unique per write (pid and a
    process-wide sequence number) and are then renamed into place, so
    concurrent readers — worker domains in one process, or several
    [eduserved] replicas sharing the directory — never observe a torn
    entry, and two writers racing on one key both land a complete
    (identical, content-addressed) file. Every operation also takes a
    per-store lock, so callers need no lock of their own.

    Telemetry (when an [Educhip_obs.Obs] collector is installed):
    [<ns>.hits], [<ns>.misses], [<ns>.stores], [<ns>.evicted],
    [<ns>.quarantined], [<ns>.bytes_written], [<ns>.bytes_read], where
    the namespace [ns] is set by the owning module: [artifact] or
    [cache]. *)

type t

val default_dir : string
(** [".educhip-artifacts"] *)

val default_max_entries : int
(** 2048 — ten artifacts per flow run, so roughly 200 warm chains. *)

val create : ?max_entries:int -> ?ns:string -> dir:string -> unit -> t
(** [ns] defaults to ["artifact"], the step-artifact store. The
    directory is created lazily on first {!put}.
    @raise Invalid_argument if [max_entries < 1]. *)

val dir : t -> string

val put : t -> string -> Educhip_obs.Jsonout.t -> unit
(** [put t key obj] writes [obj] under [key] (temp + rename), counts
    the store and its bytes, and evicts down to the cap.
    @raise Invalid_argument unless [obj] is an object without a [crc]
    member. *)

val get : t -> string -> (Educhip_obs.Jsonout.t -> 'a) -> 'a option
(** [get t key decode] is the verified object under [key] (its [crc]
    member stripped) passed through [decode]. A hit refreshes the
    entry's mtime. A corrupt entry — including one [decode] rejects
    with [Failure] — is quarantined and reported as a miss. *)

val probe : t -> string -> (Educhip_obs.Jsonout.t -> 'a) -> bool
(** Would {!get} hit? Read-only: no counters, no LRU touch, no
    quarantine — dry-run predictions must not change the store they are
    predicting against. *)

val quarantine_key : t -> string -> unit
(** Move the entry for [key], if present, into [quarantine/]. For an
    owner whose decode happens after {!get} returns (the artifact
    state snapshot, decoded outside the lock). *)

val entries : t -> int
(** Live entries on disk (quarantined files excluded). *)

val quarantined : t -> int
(** Entry files sitting in the [quarantine/] subdirectory. *)

val clear : t -> unit
(** Remove every live entry; quarantined files are kept. *)

val metric_names : t -> string list
(** The seven [<ns>.*] counter names above, for pre-declaration. *)
