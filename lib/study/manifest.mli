(** Run manifest: what a reproduction run was a run {e of}, and where its
    time went.

    The manifest keeps only the run's identity; everything else it shows
    is read at emission time from the two process-global recorders that
    the pipeline already feeds: the {!Trace_log.stage} totals (trace
    capture in {!Context.create}, layout construction in {!Levels.build},
    each {!Runner} entry point, each experiment, each staged layout build)
    and the {!Metrics_registry} snapshot (every {!Memo}'s
    hits/misses/lookups trio, the [batch.*] counters {!Runner} bumps,
    replay and fan-out histograms).  [icache-opt repro --format json] and
    [repro --out] emit it as JSON, and the benchmark reads its batch
    counters.

    JSON schema (see DESIGN.md for a worked example):
    {v
    { "schema_version": 5,
      "run": { "spec_seed": int, "spec_digest": hex, "words": int,
               "seed": int, "jobs": int, "context_key": hex,
               "gc": { "minor_collections": int, "major_collections": int,
                       "compactions": int, "minor_words": float,
                       "promoted_words": float, "major_words": float,
                       "heap_words": int, "top_heap_words": int } } | null,
      "stages": [ { "name": string, "count": int, "seconds": float } ],
      "batch": { "calls": int, "members": int, "cache_hits": int,
                 "simulated": int, "replay_passes": int,
                 "passes_saved": int, "events_replayed": int,
                 "events_saved": int },
      "metrics": { "counters": {..}, "histograms": {..} } }
    v}

    [run.gc] samples [Gc.quick_stat] at emission time.  [stages] lists
    {!Trace_log.stage_totals} in order of first completion: stage
    [experiment.<id>] is one experiment, [layout_cache.<stage>] the builds
    of one staged layout cache.  [batch] is the registry's [batch.<field>] counters
    without their prefix: how many {!Runner.batch} members (and
    {!Runner.replay} systems) were
    requested, served from {!Sim_cache} or simulated, and how many
    (workload x member) replay passes and trace events the fused path
    spent and saved.  [metrics] is {!Metrics_registry.to_json}.

    Invariants ({!Validate} checks each one): every stage has
    [count >= 1] and [seconds >= 0]; every counter is non-negative and
    every [<name>.hits/.misses/.lookups] trio adds up; every histogram
    has [min <= p50 <= p90 <= p99 <= max]; every [batch] field equals
    its counter and [cache_hits + simulated <= members]; every GC field
    is non-negative. *)

val set_run : Context.t -> jobs:int -> unit
(** Record [ctx], run on [jobs] domains, as the run's identity, replacing
    any recorded before.  The CLI records its context once, after
    building it; the contexts that experiments build for themselves
    record nothing. *)

val batch_fields : string list
(** The [batch] object's fields, in order; field [f] is the registry
    counter [batch.f]. *)

val to_json : unit -> Json.t
(** Snapshot the manifest. *)
