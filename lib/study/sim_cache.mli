(** Content-addressed memo table for trace-replay results.

    The ~30 experiments of the evaluation repeatedly simulate identical
    (layout, cache geometry) pairs.  Figure 13 replays Base, C-H, OptS and
    OptL through the 8 KB direct-mapped cache with OS blocks attributed;
    Figure 14's attributed Base, C-H and OptS runs and Table 2's
    attributed Base run use three of those four keys, so whichever
    experiment comes first replays them and the others hit.  Figure 12 replays its levels
    unattributed, and the attribution flag is part of the key, so it
    shares no entry with them.  This table keys a
    whole per-workload [run array] on everything the simulation depends on:
    the trace identity (the context's digest over spec/words/seed), the
    per-workload layout digests ({!Program_layout.digest}), the cache
    system's {!System.spec}, the warm-up fraction and the attribution
    flag.  Equal keys provably replay to equal results, so
    {!Runner.batch} consults this table and the experiment suite stops
    re-simulating.

    Every lookup returns deep copies of counters and miss arrays, so
    callers may freely mutate what they get back.  Storage is one process-global
    {!Memo} named [sim_cache]: domain-safe, with its lookup counts in the
    metrics registry ([sim_cache.hits], [.misses], [.lookups]), which the
    run manifest's metrics snapshot carries. *)

type entry = {
  counters : Counters.t;
  os_block_misses : int array;
}
(** One workload's simulation result ([Runner.run] is this record). *)

type key

val key :
  context:string ->
  layouts:string array ->
  spec:System.spec ->
  warmup_fraction:float ->
  attribute_os:bool ->
  key
(** Build the content address.  [context] is the trace identity (see
    [Context.key]); [layouts] the per-workload placement digests in
    workload order.  The cache system is folded in via its spec's runtime
    representation, so every field separates keys: the organization, each
    sub-cache's size, associativity, line size and replacement policy
    (including a [Random] policy's seed), [hot_limit] and [entries]. *)

val find_or_replay : key array -> (int array -> entry array array) -> entry array array
(** [find_or_replay keys replay]: each key's runs, single-flight through
    {!Memo.find_or_build_all}.  [replay claimed] simulates the members at
    the [claimed] indices (the first index of each key no one has stored
    or is replaying) and returns their runs in that order; keys another
    domain is replaying are awaited, and a key repeated within [keys]
    counts as a hit.  Every caller gets deep copies. *)

val hits : unit -> int
(** Lookup counts since the process started. *)

val misses : unit -> int

val clear : unit -> unit
(** Drop all entries (tests); the counts keep their totals. *)
