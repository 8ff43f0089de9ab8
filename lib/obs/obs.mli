(** Observability: tracing spans and a metrics registry for the flow.

    The paper's position is that enablement gaps are {e measurable} —
    productivity, flow effort, and PPA differences between open and
    commercial flows (§III-D, experiment E6). This module gives every
    flow step and inner-loop kernel structured telemetry so those
    comparisons can be made quantitatively:

    - {b spans}: hierarchical wall-clock intervals ({!with_span}) with
      key/value attributes, exportable as Chrome [trace_event] JSON
      (load the file in [chrome://tracing] or Perfetto) or rendered as
      an indented tree ({!pp_trace});
    - {b metrics}: labeled counters, gauges, and histograms
      (summarized with [Educhip_util.Stats]) dumped as flat JSON.

    Telemetry is {b off by default}: every probe first checks whether a
    collector is installed ({!install} / {!with_collector}), so an
    uninstrumented run pays one branch per probe and allocates nothing.
    The registry is deliberately not thread-safe — the flow is
    single-threaded and the probes must stay cheap. *)

(** {1 Collector} *)

type collector
(** Accumulates spans and metrics between {!install} and {!uninstall}.
    Timestamps are microseconds since the collector was created, read
    from the monotonic clock ([Educhip_util.Mclock]) so they stay
    comparable across domains and immune to wall-clock steps. *)

val create : unit -> collector

val install : collector -> unit
(** Make [collector] the telemetry sink for every probe {e in the
    current domain}. Replaces any previously installed collector. The
    sink is domain-local: a freshly spawned domain starts with no
    collector, so parallel workers install (and own) their own — see
    {!merge} for folding worker telemetry back together. *)

val uninstall : unit -> unit
(** Return to the no-op sink. *)

val enabled : unit -> bool
(** Is a collector installed? Instrumented code may use this to skip
    work (e.g. recomputing a statistic) that only feeds telemetry. *)

val installed : unit -> collector option
(** The current domain's collector, if any — the handle an orchestrator
    needs to {!merge} worker collectors into the caller's sink. *)

val with_collector : collector -> (unit -> 'a) -> 'a
(** [with_collector c f] installs [c] around [f], restoring the
    previous sink afterwards (also on exceptions). *)

(** {1 Spans} *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Span attribute / trace-event argument values. *)

type span

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span nested under the current
    one (or as a root). The span is closed when [f] returns or raises.
    With no collector installed this is exactly [f ()]. *)

val timed : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a * float option
(** Like {!with_span}, additionally returning the span's wall time in
    milliseconds — [None] when telemetry is disabled. *)

val set_attr : string -> value -> unit
(** Attach an attribute to the innermost open span. Setting a key again
    overwrites its value. No-op without a collector or open span. *)

val root_spans : collector -> span list
(** Completed top-level spans, oldest first. *)

val span_name : span -> string

val span_duration_ms : span -> float
(** Wall time; [0.] for a span that never closed. *)

val span_attrs : span -> (string * value) list
(** Attributes in first-set order, later writes to a key winning. *)

val span_children : span -> span list
(** Direct children, oldest first. *)

val epoch_s : collector -> float
(** The collector's creation time on the monotonic clock, in seconds —
    the zero point of every span timestamp it holds. Exposed so
    request-scoped tracing ({!Tracectx}) can rebase spans onto absolute
    monotonic time and stitch collectors from different processes. *)

val span_start_us : span -> float
(** Start timestamp, microseconds since the collector's epoch. *)

val span_stop_us : span -> float
(** Stop timestamp, microseconds since the collector's epoch; [nan] for
    a span that never closed. *)

(** {1 Metrics}

    Metrics are identified by name plus an optional label set (sorted
    internally, so label order never distinguishes two series).

    Registry writes, point reads, {!registry_copy}, {!merge} and
    {!snapshot} lock the collector, so the threads of one domain may
    share it; spans stay single-threaded, and the renderers read
    without the lock (render a {!registry_copy} while others write). *)

val add_counter : ?labels:(string * string) list -> string -> int -> unit
(** Add to a monotonic counter, creating it at the given value. *)

val incr_counter : ?labels:(string * string) list -> string -> unit

val declare_counter : ?labels:(string * string) list -> string -> unit
(** Register a counter family at zero so it appears in the metrics dump
    even when the instrumented code never ran (Prometheus-style). *)

val set_gauge : ?labels:(string * string) list -> string -> float -> unit
(** Last-write-wins instantaneous value. *)

val declare_gauge : ?labels:(string * string) list -> string -> unit
(** Register a gauge at [0.] so it appears in dumps even when never set
    (Prometheus-style zero registration, like {!declare_counter}).
    Never overwrites an existing value. *)

val observe : ?labels:(string * string) list -> string -> float -> unit
(** Record one histogram sample. Lifetime count and sum are exact
    forever; only the newest {!histogram_window} samples are retained
    for distribution statistics (quantiles, bins), so exposition cost
    stays bounded no matter how long the process lives. *)

val histogram_window : int
(** Samples retained per histogram series for distribution statistics
    (currently 1024). Beyond it, quantiles describe the recent window —
    what a monitor wants — while count/sum stay lifetime-exact. *)

val counter_value : collector -> ?labels:(string * string) list -> string -> int
(** Current value; [0] for an unregistered counter. *)

val gauge_value : collector -> ?labels:(string * string) list -> string -> float option

val histogram_samples : collector -> ?labels:(string * string) list -> string -> float list
(** Retained samples (the newest {!histogram_window}) in observation
    order; [[]] for an unregistered histogram. *)

val registry_copy : collector -> collector
(** Deep copy of the metric registry (counters, gauges, histogram
    windows; spans are not carried over). Cheap enough to take while
    holding a write lock, so the expensive part of serving a metrics
    read — sorting quantiles, rendering text — can run on the copy
    after the lock is released instead of stalling writers. *)

val merge : into:collector -> collector -> unit
(** [merge ~into:dst src] folds [src] (typically a parallel worker's
    collector) into [dst]: counters add, gauges take [src]'s value,
    histogram samples append, and [src]'s completed root spans are
    transferred with their timestamps re-based onto [dst]'s epoch (both
    epochs share the monotonic clock, so merged traces keep real
    timing). [src] is left untouched; merging the same collector twice
    double-counts. Call only after the source domain has finished. *)

(** {1 Snapshots} *)

type snapshot
(** A point-in-time copy of the registry's scalar state (counter
    values, gauge values, histogram count + sum). Cheap; safe to hold
    while the collector keeps accumulating. *)

val snapshot : collector -> snapshot

val snapshot_diff : snapshot -> snapshot -> (string * (string * string) list * float) list
(** [snapshot_diff earlier later]: one [(name, labels, delta)] per
    series in [later], sorted by name then labels — counters as their
    increase, gauges as their change (both against [0] for a series
    absent from [earlier]), histograms as two entries,
    [name ^ ".count"] and [name ^ ".sum"]. This is the one sanctioned
    between-two-readings subtraction: the same per-series
    later-minus-earlier a monitoring Tsdb's [delta] computes between
    two retained samples, so bench overhead accounting and the monitor
    agree on one definition. *)

(** {1 Export} *)

val trace_json : collector -> Jsonout.t
(** Chrome [trace_event] JSON: an object with a [traceEvents] array of
    complete ([ph = "X"]) events — [name], [cat] (the span name's
    dot-prefix), [ts]/[dur] in microseconds, and the span attributes
    under [args]. *)

val metrics_json : collector -> Jsonout.t
(** Flat dump: [counters] and [gauges] as [{name; labels; value}];
    [histograms] additionally carry [count], [sum], [min], [max],
    [mean], [p50], [p95], [p99], [stddev] and equal-width [bins]
    (computed with [Educhip_util.Stats]). Entries are sorted by name
    then labels. *)

val prom_name : string -> string
(** Sanitize a metric or label name to the Prometheus charset
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: offending characters (including a
    leading digit) become underscores. *)

val metrics_text : collector -> string
(** Prometheus text exposition (version 0.0.4): one [# TYPE] line per
    family, counters and gauges as single samples, histograms as
    summaries ([quantile="0.5"/"0.95"/"0.99"] plus [_sum]/[_count]).
    Metric and label names are sanitized to [[a-zA-Z0-9_:]] (dots become
    underscores); label values escape backslash, double quote, and
    newline per the exposition format. *)

val write_trace : collector -> path:string -> unit
val write_metrics : collector -> path:string -> unit
val write_metrics_text : collector -> path:string -> unit

val export_on_exit :
  ?trace:string -> ?metrics:string -> ?metrics_text:string -> unit -> collector option
(** CLI plumbing shared by the [eduflow] and [enablement] binaries: when
    any path is given, install a fresh collector and arrange (via
    [at_exit], idempotently) for each requested file to be written
    exactly once — announced on stdout — even when the process exits
    early. Returns the installed collector, [None] when every path is
    absent. *)

val pp_trace : Format.formatter -> collector -> unit
(** Human-readable span tree: one line per span with its wall time and
    attributes, children indented under parents. *)
