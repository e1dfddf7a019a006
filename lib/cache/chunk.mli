(** A stretch of a trace's execution events, resolved under a code
    placement into the address ranges the cache kernels consume, and the
    line streams the kernels read.

    A replay pass fills one chunk over and over, so each event's code-map
    lookup happens once per pass however many cache systems ride it, and
    each chunk's streams are built once per fill however many caches read
    them.  The pass allocates nothing per event. *)

type code_map = {
  addr : int array array;  (** Per image: block id -> byte address. *)
  bytes : int array array;  (** Per image: block id -> block size. *)
}
(** A code map's arrays are shared and read-only: a layout builds its map
    once and hands the same one to every pass, and its rows are the
    placement's and the graph's own arrays, not copies.  Nothing that
    consumes a code map writes it. *)

type side =
  | All  (** Every event. *)
  | Inside of int  (** OS events at addresses below the limit. *)
  | Outside of int  (** Every event [Inside] the same limit rejects. *)
(** Which of a chunk's events a cache takes: a sub-cache of a split or
    reserved system sees only its side of the events. *)

type reader = {
  shift : int;  (** [log2] of the cache's line size. *)
  side : side;  (** The events it takes. *)
  sets : int;  (** Its set count, a power of two. *)
}
(** What a cache reads of a chunk: the pass plans one stream per reader
    from these three numbers. *)

type stream = private {
  mutable lines : int array;  (** Entries [0 .. len-1]: the lines probed, in order. *)
  mutable owner : int array;
      (** Per entry: the fetching event's [(block lsl 3) lor image], the
          trace's own packed encoding.  Image 0 is the OS, so
          [owner land 7 = 0] is the OS bit. *)
  mutable len : int;
  mutable os_words : int;  (** Instruction words the side's OS events fetch. *)
  mutable app_words : int;  (** Instruction words the side's other events fetch. *)
  mutable repeats : int;  (** Stage-1 entries dropped as repeats of the entry before. *)
}
(** The line fetches of a chunk's events on one side at one line size,
    stripped of references that cannot change a reader's state.

    Stage 1 is the fetches themselves: each event touches every line it
    spans once (further words on an already-touched line hit by
    construction), except that a line equal to the entry before it is
    dropped.  That is a one-set direct-mapped filter.  A stage at [s]
    sets keeps only the entries of the stage before it that miss an
    [s]-set direct-mapped tag array, which starts empty when the pass
    starts and keeps its state from chunk to chunk.  Every stage carries
    stage 1's word totals (every event on the side, one word per 4 bytes
    and at least one per event) and its count of dropped repeats: a
    reader that counts line references, as {!Stack_dist} does, adds
    those as hits at distance 0.

    A dropped entry changes no result of a cache with at least [s] sets
    and the same line size (set counts are powers of two): the filter
    still holding line [L] means [L] was the last line referenced in its
    filter set, which contains [L]'s cache set, so [L] is resident, and
    under LRU most recent.  A hit on it writes no tag, eviction record,
    PRNG draw or victim buffer, and references come from the word
    totals, never from the lines. *)

type t
(** One reused chunk: a fill's events resolved under the code map, and
    the streams planned for its readers, with the stream and filter
    buffers it keeps from pass to pass. *)

val size : int
(** Events per chunk in a replay pass (4096): large enough to amortise
    the per-chunk switch between systems, small enough that the three
    arrays stay in L2 while every system runs over them. *)

val iter :
  trace:Trace.t -> map:code_map -> boundary:int -> readers:reader array ->
  (t -> int -> unit) -> unit
(** Resolve [trace]'s execution events under [map] chunk by chunk
    through one reused chunk, build every stream [readers] need, and
    call [f chunk fed] with the number of events fed so far.

    Per (shift, side) of [readers] the chunk builds a chain of stages
    once per fill: stage 1, then one at each of those readers' set
    counts above 1 up to the second-largest.  Reader [i] reads
    ({!stream} [chunk i]) the last stage whose set count is at most its
    own, so a reader alone on its key reads stage 1 and nothing more is
    built.  A largest reader reads the stage below its own count, since
    a stage of its own would only repeat its kernel's work.

    When [0 < boundary], a chunk ends exactly after event [boundary], so
    [f] sees [fed = boundary] once if the trace is that long.  Each
    domain keeps one chunk, with its stream and filter buffers, from
    pass to pass; an [iter] called from inside another's [f] uses a
    chunk of its own.  Buffers start as long as the chunk and grow as a
    fill needs more.
    @raise Invalid_argument if an event names a block [map] lacks. *)

val stream : t -> int -> stream
(** [stream chunk i]: reader [i]'s stream of the current fill, valid
    until the next fill. *)
