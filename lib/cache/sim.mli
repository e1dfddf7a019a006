(** Set-associative instruction-cache simulator (LRU, FIFO or Random
    replacement) with the paper's miss classification and optional
    per-block miss attribution (for the miss-address distributions of
    Figures 1 and 14).

    A cache runs over a chunk's line stream ({!Chunk.stream}) at a time:
    one kernel loop per kind (direct-mapped, or set-associative with the
    policy fixed at {!create}), with the way search and the age shift
    inline and the miss classification in a cold out-of-line path.  A
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

val enable_block_attribution : t -> images:int -> blocks:int array -> unit
(** Allocate per-(image, block) miss counters; [blocks.(i)] is image [i]'s
    block count. *)

val block_misses : t -> image:int -> int array
(** Per-block miss counts.
    @raise Invalid_argument if attribution was not enabled. *)

val block_misses_self : t -> image:int -> int array
(** Per-block self-interference miss counts. *)

val block_misses_cross : t -> image:int -> int array
(** Per-block cross-interference miss counts. *)

type side = Chunk.side =
  | All  (** Every event. *)
  | Inside of int  (** OS events at addresses below the limit. *)
  | Outside of int  (** Every event [Inside] the same limit rejects. *)
(** Which of a chunk's events a cache takes: a sub-cache of a split or
    reserved {!System} sees only its side of the stream. *)

val run : t -> side -> Chunk.t -> unit
(** Feed the chunk's events on [side], in order, as the chunk's
    {!Chunk.stream} at this cache's line size: each event is one
    basic-block execution that fetches [max 1 (bytes/4)] instruction
    words and touches each spanned cache line once. *)

val access : t -> os:bool -> image:int -> block:int -> addr:int -> bytes:int -> unit
(** {!run} over a one-event chunk.
    @raise Invalid_argument unless [os = (image = 0)] and
    [0 <= image <= 5]. *)

val reset_counters : t -> unit
(** Zero counters and attributions, keeping cache contents (warm-up). *)

val reset : t -> unit
(** Empty the cache (and a victim cache's buffer) and zero all counters
    and attributions. *)
