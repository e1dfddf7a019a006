(** Trace-replay driver: simulates cache systems for every workload under
    given per-workload layouts.

    A warm-up prefix of each trace fills the cache before counters start,
    matching the paper's mid-execution hardware traces ("misses caused by
    first-time references are negligible").

    Workloads replay concurrently on up to [jobs] domains (default
    {!Parallel.default_jobs}, i.e. [--jobs]/[ICACHE_JOBS] or the core
    count).  Every domain owns a fresh {!System.t} and results merge in
    workload order, so counters and per-block miss arrays are bit-identical
    across job counts — [test/test_parallel.ml] asserts this. *)

type run = Sim_cache.entry = {
  counters : Counters.t;
  os_block_misses : int array;  (** Per OS block; empty unless requested. *)
}
(** One workload's result: the record {!Sim_cache} stores. *)

(** Three entry points, one replay pass behind them all:
    - {!simulate}: the solo, unmemoized path for any cache system;
    - {!simulate_batch}: the memoized, fused path for unified geometries,
      which every sweep and every single-geometry run of the experiments
      goes through;
    - {!replay}: one pass over a trace that is not in the context (an
      inlined kernel's traces, a multiprocessor's per-CPU traces).
    Each call runs as the {!Trace_log.stage} named like its entry point,
    and each replay pass inside it as a [replay_pass] span. *)

val simulate :
  Context.t -> layouts:Program_layout.t array ->
  system:(unit -> System.t) ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array
(** One run per workload.  [system] builds a fresh cache system per
    workload (it is called from worker domains, so it must not capture
    shared mutable state).  Default warm-up: the first 20% of executions.
    A closure cannot be keyed, so nothing here is memoized: this is the
    reference the memoized paths are checked against. *)

val simulate_batch :
  Context.t -> members:(Program_layout.t array * Config.t) array ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array array
(** Fused sweep: simulate every (per-workload layouts, unified cache
    geometry) member of a configuration grid, replaying each workload
    trace {e once per distinct placement} while feeding all of that
    placement's uncached members simultaneously.  Result [.(m).(i)] is
    member [m]'s run on workload [i], bit-identical to
    [simulate ~layouts ~system:(fun () -> System.unified config)] called
    per member — same counters, same attribution arrays — just without
    the redundant trace decodes.  A one-member batch is the way to run a
    single geometry.

    Every member consults {!Sim_cache} first, keyed on the trace identity,
    the layouts' {!Program_layout.digest}s, the geometry, the warm-up and
    the attribution flag.  Only the members whose key no one has stored
    or is replaying are replayed (one per key) and published; the rest
    are cache hits, waiting for another domain's replay if need be.  Effectiveness (members served from cache,
    replay passes and decoded events saved) is added to the registry
    counters [batch.<field>] (see {!Manifest}). *)

val replay : trace:Trace.t -> map:Replay.code_map -> System.t array -> unit
(** Feed [trace] under [map] to every system in one pass, with
    {!simulate}'s default warm-up (counters reset after the first 20% of
    executions).  For traces outside the context; the systems keep the
    counters. *)

val total : run array -> Counters.t
(** Sum of all workloads' counters. *)
