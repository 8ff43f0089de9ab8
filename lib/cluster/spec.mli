(** Cluster spec file: the static membership an [eduroute] router serves.

    Clustering starts simple: an operator lists the replicas, the router
    routes. Membership is {e static per router life} — a replica can be
    drained out at runtime (rolling drain), but joining means editing
    the spec and restarting the router, which (by consistent hashing)
    remaps only the joining replica's segment.

    {2 File format}

    Line-based text over {!Educhip_util.Linedsl}, like
    {!Educhip_sched.Manifest} and {!Educhip_mon.Rules}: [#] starts a
    comment, blank lines are skipped, tokens are separated by spaces or
    tabs.

    - [replica NAME ADDR] — one [eduserved] endpoint; [NAME] labels its
      series in merged metrics, [ADDR] is a socket path or [HOST:PORT]
      ([:PORT] = localhost). Order is the ring's member order.
    - [vnodes N] — virtual nodes per replica (default
      {!Ring.default_vnodes}).
    - [hash-seed N] — ring hash seed (default 1). Routers sharing a
      seed and replica list agree on every placement.
    - [probe-interval-ms X] — health probe period (default 1000).
    - [staleness-ms X] — a replica not probed successfully within this
      window is considered down and stops receiving new submissions
      (default 5000).

    Example:
    {v
    # two local replicas, one remote
    replica r1 /tmp/edu-r1.sock
    replica r2 /tmp/edu-r2.sock
    replica r3 10.0.0.7:7080
    staleness-ms 3000
    v} *)

type t = {
  replicas : (string * string) list;  (** (name, addr), file order *)
  vnodes : int;
  seed : int;
  probe_interval_ms : float;
  staleness_ms : float;
}

val default : t
(** No replicas, default ring and probe parameters — the base both the
    parser and the [--replica] CLI flags start from. *)

val parse : string -> (t, string) result
(** Parse a spec from text. [Error] carries a ["line N: "]-prefixed
    message for the first bad line (unknown directive, duplicate
    replica name, bad number). A spec with no [replica] line is an
    error — a router with nothing behind it cannot serve. *)

val load : path:string -> (t, string) result
(** {!parse} the file's contents; [Error] with the [Sys_error] message
    if it cannot be read. *)

val ring : t -> Ring.t
(** The ring the spec describes. *)
