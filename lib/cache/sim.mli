(** Set-associative instruction-cache simulator (LRU, FIFO or Random
    replacement) with the paper's miss classification and an optional
    per-OS-block miss store (for the miss-address distributions of
    Figures 1 and 14).

    A cache runs over one chunk's line stream ({!Chunk.stream}) at a
    time, the stream its {!reader} planned: one kernel loop per kind
    (direct-mapped, or set-associative with the policy fixed at
    {!create}), with the way search and the age shift inline and the
    miss classification in a cold out-of-line path.  A
    victim cache ({!victim}) is the direct-mapped loop whose miss path
    first looks in its buffer; only a miss there too is classified, so
    it counts and attributes misses as every other kernel does.  It
    allocates nothing per event.  A replay pass ({!Replay.run_range})
    feeds every cache the stream its {!reader} planned. *)

type t

val create : Config.t -> t

val victim : Config.t -> entries:int -> t
(** A direct-mapped main cache backed by an [entries]-line
    fully-associative LRU victim buffer (Jouppi 1990): a line displaced
    from the main cache parks in the buffer, and hitting it there swaps
    it back.
    @raise Invalid_argument if the main cache is not direct-mapped or
    [entries < 1]. *)

val counters : t -> Counters.t

val enable_block_attribution : t -> blocks:int -> unit
(** Allocate the miss store for the OS image's [blocks] blocks.
    Application misses are counted but not attributed. *)

val block_misses : t -> int array
(** The miss store: [3 * blocks] counts, where entry [3b + k] holds OS
    block [b]'s misses of kind [k], as {!Evictions.classify} numbers
    them: [0] cold, [1] self-interference, [2] cross-interference.  A
    block's misses are the sum of its three entries.  This is the
    cache's own array, zeroed by {!reset_counters}.
    @raise Invalid_argument if attribution was not enabled. *)

val reader : t -> Chunk.side -> Chunk.reader
(** What this cache reads of a chunk on [side]: its line shift, the side
    and its set count. *)

val run : t -> Chunk.stream -> unit
(** Probe the stream's lines in order and add its word totals to the
    references: each event is one basic-block execution that fetches
    [max 1 (bytes/4)] instruction words.  The stream must be one planned
    for this cache's {!reader}: same line size and side, stripped at no
    more sets than the cache has. *)

val probes : t -> int
(** Stream entries {!run} has read over the cache's life, for
    observability: what stripping left the kernel to probe. *)

val reset_counters : t -> unit
(** Zero the counters and the miss store, keeping cache contents
    (warm-up). *)
