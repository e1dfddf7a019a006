(** Set-associative instruction-cache simulator (LRU, FIFO or Random
    replacement) with the paper's miss classification and optional
    per-OS-block miss attribution (for the miss-address distributions of
    Figures 1 and 14).

    A cache runs over one chunk's line stream ({!Chunk.stream}) at a
    time, the stream its {!reader} planned: one kernel loop per kind
    (direct-mapped, or set-associative with the policy fixed at
    {!create}), with the way search and the age shift inline and the
    miss classification in a cold out-of-line path.  A
    victim cache ({!victim}) is the direct-mapped loop whose miss path
    first looks in its buffer; only a miss there too is classified, so
    it counts and attributes misses as every other kernel does.  It
    allocates nothing per event. *)

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
(** Allocate per-block miss counters for the OS image's [blocks] blocks.
    Application misses are counted but not attributed. *)

val block_misses : t -> int array
(** Per-OS-block miss counts.
    @raise Invalid_argument if attribution was not enabled. *)

val block_misses_self : t -> int array
(** Per-OS-block self-interference miss counts. *)

val block_misses_cross : t -> int array
(** Per-OS-block cross-interference miss counts. *)

type side = Chunk.side =
  | All  (** Every event. *)
  | Inside of int  (** OS events at addresses below the limit. *)
  | Outside of int  (** Every event [Inside] the same limit rejects. *)
(** Which of a chunk's events a cache takes: a sub-cache of a split or
    reserved {!System} sees only its side of the stream. *)

val reader : t -> side -> Chunk.reader
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
(** Zero counters and attributions, keeping cache contents (warm-up). *)
