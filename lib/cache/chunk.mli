(** A stretch of a trace's execution events, resolved under a code
    placement into the address ranges the cache kernels consume, and the
    line streams the kernels read.

    A replay pass fills one chunk over and over, so each event's code-map
    lookup happens once per pass however many cache systems ride it, and
    each chunk's line stream is built once per (line size, side) however
    many caches read it.  The pass allocates nothing per event. *)

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

type stream = private {
  mutable lines : int array;  (** Entries [0 .. len-1]: the lines fetched, in order. *)
  mutable owner : int array;  (** Per entry: the fetching event's owner (see {!t}). *)
  mutable len : int;
  mutable os_words : int;  (** Instruction words the side's OS events fetch. *)
  mutable app_words : int;  (** Instruction words the side's other events fetch. *)
  mutable shift : int;  (** Key: [log2] of the line size. *)
  mutable side : side;  (** Key: the events taken. *)
}

type t = private {
  owner : int array;
      (** Per event: [(block lsl 3) lor image], the trace's own packed
          encoding.  Image 0 is the OS, so [owner land 7 = 0] is the
          OS bit. *)
  addr : int array;  (** Per event: first byte fetched. *)
  last : int array;  (** Per event: [addr + bytes - 1], the last byte. *)
  mutable len : int;  (** Events [0 .. len-1] are valid. *)
  mutable streams : stream array;  (** Buffers for {!stream}. *)
  mutable built : int;  (** [streams.(0 .. built-1)] hold this fill's streams. *)
}

val size : int
(** Events per chunk in a replay pass (4096): large enough to amortise
    the per-chunk switch between systems, small enough that the three
    arrays stay in L2 while every system runs over them. *)

val stream : t -> shift:int -> side -> stream
(** The line fetches of the chunk's events on [side], at lines of
    [1 lsl shift] bytes: each event touches every line it spans once
    (further words on an already-touched line hit by construction),
    except that a line equal to the entry before it is dropped.  The word
    totals count every event on the side, one word per 4 bytes and at
    least one per event.

    Dropping a repeat changes no cache result: a cache that reads the
    stream has just probed that line, so it is resident, and a hit on
    the line probed last changes no state (under LRU it is already most
    recent; FIFO, Random, direct-mapped and a victim cache's main array
    never reorder on a hit, and Random draws only on a miss).  Only the
    word totals count references.

    Built on the first call per key after each fill and shared by every
    later call with that key, so the result is valid until the next
    fill.  Its buffers start as long as the chunk and grow as a fill
    needs more. *)

val iter : trace:Trace.t -> map:code_map -> boundary:int -> (t -> int -> unit) -> unit
(** Resolve [trace]'s execution events under [map] chunk by chunk
    through one reused chunk, calling [f chunk fed] with the number of
    events fed so far.  When [0 < boundary], a chunk ends exactly after
    event [boundary], so [f] sees [fed = boundary] once if the trace is
    that long.  Each domain keeps one chunk, with its stream buffers,
    from pass to pass; an [iter] called from inside another's [f] uses a
    chunk of its own.
    @raise Invalid_argument if an event names a block [map] lacks. *)

val single : image:int -> block:int -> addr:int -> bytes:int -> t
(** A one-event chunk, for feeding a single fetch through the kernels.
    @raise Invalid_argument unless [0 <= image <= 5]. *)
