(** Deterministic fork-join parallelism over a persistent pool of OCaml 5
    domains.

    The reproduction pipeline replays the same four workload traces through
    dozens of cache configurations and builds many independent layouts;
    that work is embarrassingly parallel.  {!map_array} fans an indexed map
    out and writes each result into its own slot, so the output is
    bit-identical to the sequential [Array.mapi] regardless of the domain
    count or scheduling order — parallelism never changes results, only
    wall-clock.

    The pool: the first fan-out that needs [k] helpers starts worker
    domains until there are [k]; they stay alive for the rest of the
    process, idle workers blocked on a condition variable (no spinning, no
    CPU), so later fan-outs cost no [Domain.spawn]/[join].  A one-job run
    never starts a worker.  Worker [k] records its {!Trace_log} events on
    track [k]; the caller of a fan-out keeps its own track (0 for the main
    domain).

    Scheduling rules:
    - {e Pull, not round-robin.}  Each index goes to whichever runner is
      free next: the caller, or one of at most [jobs - 1] workers at a
      time.  Idle workers help the newest fan-out first.
    - {e Nesting.}  [map_array] inside a task queues a new fan-out into the
      same pool; its caller (the runner of the outer task) is one of its
      runners, and idle workers help.  No extra domains are started for
      nesting.
    - {e Join.}  The caller runs only its own fan-out's tasks, then blocks
      until the tasks other runners took have finished.  It never picks up
      another fan-out's task while joining: that task might wait on a
      {!Memo} key the caller is building, which would deadlock.

    The worker function must be domain-safe: it may freely read shared
    immutable data (graphs, traces, layouts) and use the domain-safe
    memos, but must not touch other shared mutable state.  Everything the
    simulator mutates ({!System.t} contents, counters, walker state) is
    created per call, so trace capture and cache replay both qualify. *)

val default_jobs : unit -> int
(** Runner count used when a call does not pass [?jobs]: the last
    {!set_jobs} value if any, else the [ICACHE_JOBS] environment variable,
    else [Domain.recommended_domain_count ()].  Always at least 1. *)

val set_jobs : int -> unit
(** Override the process-wide default (e.g. from a [--jobs] flag).  Values
    below 1 are clamped to 1. *)

val map_array : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f arr] is [Array.mapi f arr] computed by up to [jobs]
    runners ([default_jobs ()] when omitted; never more than
    [Array.length arr]): the caller plus up to [jobs - 1] pool workers.
    With one job (or on arrays of length <= 1) it runs inline on the
    caller and touches neither the pool nor the counters.  Each slot is
    written once, and every task has finished before it returns.  If any
    application of [f] raises, the exception of the lowest such index is
    re-raised (with its backtrace) after all of the fan-out's tasks have
    finished; the pool is unaffected.

    Observability: every fan-out bumps [parallel.fanouts] once and
    [parallel.domains_used] by the number of runners that ran at least
    one of its tasks, and reports each such runner's busy wall-clock on
    it into the [parallel.domain_busy_seconds] histogram (all in
    {!Metrics_registry}). *)
