(** Run manifest: the observability layer of a reproduction run.

    A process-global, domain-safe recorder of where the wall-clock time of
    a run went and what it was a run {e of}.  The pipeline's hot stages
    report here ({!Context.create} times trace capture, {!Levels.build}
    times layout construction on memo misses, each call of a {!Runner}
    entry point times trace replay), the experiment drivers report
    per-experiment totals, and {!Sim_cache}'s hit/miss counters are
    sampled at emission time.  [icache-opt repro --format json] and
    [repro --out] emit the manifest as JSON, and the benchmark reads its
    batch counters, so numbers are recorded run over run instead of
    scraped from ad-hoc prints.

    JSON schema (see DESIGN.md for a worked example):
    {v
    { "schema_version": 4,
      "run": { "spec_seed": int, "spec_digest": hex, "words": int,
               "seed": int, "jobs": int, "context_key": hex,
               "gc": { "minor_collections": int, "major_collections": int,
                       "compactions": int, "minor_words": float,
                       "promoted_words": float, "major_words": float,
                       "heap_words": int, "top_heap_words": int } } | null,
      "stages": [ { "name": string, "count": int, "seconds": float } ],
      "sim_cache": { "hits": int, "misses": int, "lookups": int,
                     "hit_rate": float },
      "layout": { "stages": [ { "name": string, "hits": int,
                                "misses": int, "lookups": int,
                                "seconds": float } ],
                  "hit_rate": float },
      "batch": { "calls": int, "members": int, "cache_hits": int,
                 "simulated": int, "replay_passes": int,
                 "passes_saved": int, "events_replayed": int,
                 "events_saved": int },
      "experiments": [ { "id": string, "seconds": float } ],
      "metrics": { "counters": {..}, "gauges": {..}, "histograms": {..} } }
    v}

    Schema v4 additions: [run.gc] samples [Gc.quick_stat] at emission time
    so allocation pressure is part of the perf trajectory, and [metrics]
    embeds the whole {!Metrics_registry} snapshot (cache lookup counters,
    replay-time histograms, parallel fan-out statistics — see
    {!Metrics_registry.to_json} for the shape).

    The [batch] object aggregates {!Runner.simulate_batch} effectiveness:
    how many sweep members were requested, how many were served from
    {!Sim_cache}, how many were actually simulated, and how many
    (workload x member) replay passes / decoded trace events the fused
    path spent versus what per-member sequential replay would have cost.

    The [layout] object (schema v3) samples {!Layout_cache}: one entry
    per construction stage of the staged layout pipeline (sequences, SCF
    selection, the loop-statistics pass, placement, and the shared C-H
    OS placement), with per-stage hit/miss/lookup counters and the
    wall-clock spent building values on misses.

    Invariants (checked by [icache-opt validate] and the test suite):
    every [seconds] and every [count] is non-negative,
    [sim_cache.hits + sim_cache.misses = sim_cache.lookups], each layout
    stage's [hits + misses = lookups], and
    [batch.cache_hits + batch.simulated <= batch.members]. *)

val time : string -> (unit -> 'a) -> 'a
(** [time stage f] runs [f], adding its wall-clock duration (and one
    invocation) to the per-stage aggregate for [stage]. *)

val record_stage : string -> float -> unit
(** Add [seconds] of one invocation to [stage]'s aggregate directly. *)

val set_run :
  spec_seed:int ->
  spec_digest:string ->
  words:int ->
  seed:int ->
  jobs:int ->
  context_key:string ->
  unit
(** Record the run's identity.  First writer wins: the first (usually
    main) context built in the process defines the run; sub-contexts
    built by individual experiments do not overwrite it. *)

val record_experiment : id:string -> seconds:float -> unit
(** Append one experiment's wall-clock total (in completion order). *)

val record_batch :
  members:int ->
  cache_hits:int ->
  simulated:int ->
  replay_passes:int ->
  passes_saved:int ->
  events_replayed:int ->
  events_saved:int ->
  unit
(** Fold one {!Runner.simulate_batch} call into the aggregate batch
    statistics (and count the call itself). *)

val to_json : unit -> Json.t
(** Snapshot the manifest, sampling {!Sim_cache} counters now. *)

val reset : unit -> unit
(** Clear stages, experiments and the run identity (tests). *)
