(** Campaign manifests: the job model of a multi-tenant batch run.

    An MPW shuttle campaign is a batch of designs pushed through the
    same flow — the paper's cloud enablement hub serves many university
    teams at once (Recommendations 3/5/7). A manifest names those jobs:
    each is a (design, preset, node, fault/guard config) tuple with
    tenant attribution and a priority, and the scheduler's fair-share
    queue uses the tenant weights declared here.

    {2 File format}

    Line-based text over {!Educhip_util.Linedsl}: [#] starts a comment,
    blank lines are skipped, tokens are separated by spaces or tabs.

    - [tenant NAME weight=W] — declare a tenant's fair-share weight
      (default 1.0 for any tenant that only appears on jobs);
    - [DESIGN key=value ...] — one job (times [repeat]). Keys:
      [tenant] (default ["default"]), [preset] (open | commercial |
      teaching, default open), [node] (default edu130), [clock-ps],
      [priority] (>= 1, default 1; higher dispatches earlier within the
      tenant), [seed] (fault seed, default 1), [retries] (guard retries
      per rung), [inject] (comma-separated [SITE:KIND\[@N\]] armings),
      [crash-workers] (how many times the worker running this job is
      crash-injected at the [sched.worker] site before it may run),
      [repeat] (clone the job N times).

    Example:
    {v
    tenant uni-a weight=2
    alu8   tenant=uni-a preset=commercial priority=2
    mult8  tenant=uni-b inject=flow.routing:crash@1 retries=2 repeat=3
    v} *)

type job = {
  index : int;  (** manifest order after [repeat] expansion; unique *)
  design : string;  (** a {!Educhip_designs.Designs} entry name *)
  tenant : string;
  priority : int;  (** >= 1; higher dispatches earlier within a tenant *)
  preset : Educhip_flow.Flow.preset;
  node : string;  (** a {!Educhip_pdk.Pdk} node name *)
  clock_ps : float option;
  inject : Educhip_fault.Fault.plan;  (** flow/kernel-site armings *)
  crash_workers : int;  (** [sched.worker] crash-injections, >= 0 *)
  fault_seed : int;
  retries : int;  (** guard [max_retries] for this job's flow *)
}

type t = {
  jobs : job list;  (** in index order *)
  weights : (string * float) list;  (** declared tenant weights *)
}

val preset_of_string : string -> (Educhip_flow.Flow.preset, string) result
(** ["open"] / ["commercial"] / ["teaching"] — the manifest, wire
    protocol and [eduflow run] preset vocabulary. [Error] carries the
    one "unknown preset" message all three report. *)

val default_job : job
(** [index = 0], design [""], tenant ["default"], priority 1, open
    preset, node ["edu130"], no clock override, no faults, seed 1,
    and the default guard retry count — the base every manifest line
    (and programmatic campaign) starts from. *)

val parse_string : ?source:string -> string -> t
(** Parse a manifest from text. Designs, nodes, presets, and fault
    armings are validated here, so a bad manifest fails before any job
    runs. @raise Invalid_argument with [source] and the line number on
    any malformed or unknown field. *)

val load : path:string -> t
(** {!parse_string} on the file's contents, [~source:path].
    @raise Sys_error if the file cannot be read. *)

val job_summary : job -> string
(** One-line human-readable rendering (dry-run listings, logs). *)
