(** A stretch of a trace's execution events, resolved under a code
    placement into the address ranges the cache kernels consume.

    A replay pass fills one chunk over and over, so each event's code-map
    lookup happens once per pass however many cache systems ride it, and
    the pass allocates nothing per event. *)

type code_map = {
  addr : int array array;  (** Per image: block id -> byte address. *)
  bytes : int array array;  (** Per image: block id -> block size. *)
}
(** A code map's arrays are shared and read-only: a layout builds its map
    once and hands the same one to every pass, and its rows are the
    placement's and the graph's own arrays, not copies.  Nothing that
    consumes a code map writes it. *)

type t = private {
  owner : int array;
      (** Per event: [(block lsl 3) lor image], the trace's own packed
          encoding.  Image 0 is the OS, so [owner land 7 = 0] is the
          OS bit. *)
  addr : int array;  (** Per event: first byte fetched. *)
  last : int array;  (** Per event: [addr + bytes - 1], the last byte. *)
  mutable len : int;  (** Events [0 .. len-1] are valid. *)
  mutable os_words : int;  (** Instruction words the OS events fetch. *)
  mutable app_words : int;  (** Instruction words the other events fetch. *)
}
(** A cache that takes every event adds the two word totals to its
    counters instead of counting event by event. *)

val size : int
(** Events per chunk in a replay pass (4096): large enough to amortise
    the per-chunk switch between systems, small enough that the three
    arrays stay in L2 while every system runs over them. *)

val words : addr:int -> last:int -> int
(** Instruction words one event fetches: [bytes/4], at least one. *)

val iter : trace:Trace.t -> map:code_map -> boundary:int -> (t -> int -> unit) -> unit
(** Resolve [trace]'s execution events under [map] chunk by chunk
    through one reused chunk, calling [f chunk fed] with the number of
    events fed so far.  When [0 < boundary], a chunk ends exactly after
    event [boundary], so [f] sees [fed = boundary] once if the trace is
    that long.
    @raise Invalid_argument if an event names a block [map] lacks. *)

val single : image:int -> block:int -> addr:int -> bytes:int -> t
(** A one-event chunk, for feeding a single fetch through the kernels.
    @raise Invalid_argument unless [0 <= image <= 5]. *)
