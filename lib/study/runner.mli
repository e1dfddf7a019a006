(** Trace-replay driver: simulates cache systems for every workload under
    given per-workload layouts.

    A warm-up prefix of each trace fills the cache before counters start,
    matching the paper's mid-execution hardware traces ("misses caused by
    first-time references are negligible").

    Workloads replay concurrently on up to {!Parallel.default_jobs}
    domains ([--jobs]/[ICACHE_JOBS] or the core count).  Every domain owns a fresh {!System.t} and results merge in
    workload order, so counters and per-block miss arrays are bit-identical
    across job counts — [test/test_parallel.ml] asserts this. *)

type run = Sim_cache.entry = {
  counters : Counters.t;
  os_block_misses : int array;
      (** Per OS block, its misses of every kind summed; empty unless
          requested. *)
}
(** One workload's result: the record {!Sim_cache} stores. *)

(** One simulation entry point, {!batch}, and the wrappers around it:
    - {!batch}: the memoized, fused path for any cache organization, given
      as a {!System.spec}; every replay of the experiments' context traces
      goes through it;
    - {!simulate_batch}: {!batch} with every member a [System.Unified];
    - {!replay}: one pass into systems the caller keeps, counted like a
      batch but not memoized.  Two experiments use it: mp, whose per-CPU
      traces no context holds, and fig1, which reads the per-block
      self/cross counts of {!System.block_misses} that batch entries do
      not carry: a run holds one total per block.  (A kernel other than
      the context's gets a {!Context.derive}d context and the batch.)
    - {!simulate}: the unmemoized, uncounted closure form, kept only as
      the reference that tests and the benchmark's solo gate check the
      batch against.  Nothing in the library or the CLI calls it.
    Each call runs as a {!Trace_log.stage} ([simulate_batch] for {!batch}
    and {!simulate_batch}, [replay], [simulate]), and each replay pass
    inside it as a [replay_pass] span.  One private function runs every
    pass: one {!Replay.run_range} over the pass's systems, flattened into
    their sub-caches, and, when attributing, each system's per-block
    miss store summed into its run's per-block totals. *)

val batch :
  Context.t -> members:(Program_layout.t array * System.spec) array ->
  ?attribute_os:bool -> ?warmup_fraction:float -> unit ->
  run array array
(** Fused sweep: simulate every (per-workload layouts, cache system)
    member, replaying each workload trace {e once per distinct placement}
    while feeding all of that placement's uncached members simultaneously,
    whatever their organizations.  Result [.(m).(i)] is member [m]'s run
    on workload [i], bit-identical to
    [simulate ~layouts ~system:(fun () -> System.create spec)] called per
    member — same counters, same attribution arrays — just without the
    redundant trace decodes.  A one-member batch is the way to run a
    single system.  Default warm-up: the first 20% of executions.

    Every member consults {!Sim_cache} first, keyed on the trace identity,
    the layouts' {!Program_layout.digest}s, the spec, the warm-up and the
    attribution flag.  Only the members whose key no one has stored or is
    replaying are replayed (one per key) and published; the rest are cache
    hits, waiting for another domain's replay if need be.  Effectiveness
    (members served from cache, replay passes and decoded events saved)
    is added to the registry counters [batch.<field>] (see {!Manifest}). *)

val simulate_batch :
  Context.t -> members:(Program_layout.t array * Config.t) array ->
  ?attribute_os:bool -> ?warmup_fraction:float -> unit ->
  run array array
(** {!batch} over unified caches of the given geometries. *)

val replay : trace:Trace.t -> map:Chunk.code_map -> System.t array -> unit
(** Feed [trace] under [map] to every system in one pass, with {!batch}'s
    default warm-up (counters reset after the first 20% of executions).
    The systems keep the counters.  Adds
    one call, its systems as members all simulated, one replay pass and
    the trace's events to [batch.<field>]. *)

val simulate :
  Context.t -> layouts:Program_layout.t array ->
  system:(unit -> System.t) ->
  ?attribute_os:bool -> ?warmup_fraction:float -> unit ->
  run array
(** One run per workload.  [system] builds a fresh cache system per
    workload (it is called from worker domains, so it must not capture
    shared mutable state).  A closure cannot be keyed, so nothing here is
    memoized or counted: this is the reference {!batch} is checked
    against. *)

val total : run array -> Counters.t
(** Sum of all workloads' counters. *)
