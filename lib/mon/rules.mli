(** Declarative alert rules over {!Tsdb} series.

    Rules come from a line-based config lexed by
    {!Educhip_util.Linedsl}, like [Sched.Manifest] — one directive per
    line, [#] comments, tokens separated by spaces or tabs, [key=value]
    tokens, parse errors raised as [Invalid_argument "source:line:
    reason"]:

    {v
    # threshold rule: window function over a series selector
    alert reject-storm metric=stats.rejects{reason=rate_limited} \
          fn=rate window=1s op=> value=0.5 for=1s resolve=1s severity=page

    # SLO burn-rate rule: sugar over the slo.burn_rate gauge the
    # scraper records from the daemon's Stats_report
    slo-burn basic-burn tier=advanced threshold=1 for=1s resolve=1s
    v}

    (Shown wrapped; a directive is one line in the file.)

    Window functions: [value] (newest sample), [rate], [delta], [avg],
    [max], [min], [p50]/[p90]/[p95]/[p99] (windowed quantiles).
    Operators: [>], [<], [>=], [<=]. Durations: [250ms], [2s], [1m], or
    a bare millisecond count.

    A rule's selector may match {e several} series (e.g. one per
    scraped target): each match is its own alert {b instance},
    identified by rule name + series labels, with its own state
    machine:

    {v Inactive -> Pending -> Firing -> (Resolved) -> Inactive v}

    The condition must hold continuously for [for] before Pending
    promotes to Firing, and must be false continuously for [resolve]
    before Firing drops back to Inactive — the hysteresis that keeps a
    flapping series from paging on every blip. Each transition emits an
    {!Alertlog.entry}; steady states emit nothing.

    Evaluation is clockless and deterministic: {!eval} takes the
    caller's [now_ms]/[tick], so identical sample streams produce
    identical transition logs. *)

type fn = Value | Rate | Delta | Avg | Max | Min | Quantile of float
type op = Gt | Lt | Ge | Le

val fn_name : fn -> string
val op_name : op -> string

type rule = {
  rule_name : string;
  metric : string;
  selector : (string * string) list;  (** label subset a series must carry *)
  fn : fn;
  window_ms : float;  (** ignored by [Value] *)
  op : op;
  threshold : float;
  for_ms : float;
  resolve_ms : float;
  severity : string;
  slo_burn : bool;  (** parsed from a [slo-burn] directive *)
}

val parse_string : ?source:string -> string -> rule list
(** @raise Invalid_argument with a [source:line:] prefix on the first
    malformed directive (unknown key, bad duration/number, duplicate
    rule name, missing required key). *)

val load : path:string -> rule list
(** {!parse_string} on the file's contents, [~source:path].
    @raise Sys_error if the file cannot be read. *)

type t

val create : rule list -> t
val rules : t -> rule list

val eval : t -> Tsdb.t -> now_ms:float -> tick:int -> Alertlog.entry list
(** Evaluate every rule against the store, advance each instance's
    state machine, and return the transitions this tick (in rule order,
    then instance creation order). A selector matching no series — or
    an empty evaluation window — is condition-false. *)

type instance = {
  inst_rule : rule;
  inst_labels : (string * string) list;
  inst_state : Alertlog.state;  (** [Pending] or [Firing]; resolved
                                    instances leave {!active} *)
  since_ms : float;  (** when the current state was entered *)
  last_value : float;
}

val active : t -> instance list
(** Instances currently pending or firing — the [eduflow top] alerts
    pane and [eduflow mon]'s exit status read this. *)
