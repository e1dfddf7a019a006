(** LRU stack-distance (reuse-distance) analysis over a line-granular
    reference stream.

    One pass yields the miss count of {e every} fully-associative LRU
    capacity at once: a reference misses in a cache of [C] lines iff at
    least [C] distinct lines were touched since the previous reference to
    its line.  Since code placement cannot change a fully-associative
    curve, the gap between this curve and a set-associative simulation of
    the same trace is exactly the conflict-miss mass that the paper's
    layouts attack.

    Distances are binned with power-of-two edges (bin 0 is d = 0, bin j
    is 2^(j-1) <= d < 2^j, bin 24 everything from 2^23 on), so
    {!misses_at} is exact at power-of-two capacities (others round down).
    The LRU stack is a doubly linked list over dense line ids with one
    marker per bin at the bin's shallowest line; a reference at depth d
    moves one line across each shallower bin boundary, so it costs
    O(bin of d), and hot code, at small depths, is cheap. *)

type t

val create : ?line:int -> unit -> t
(** [line] is the line size in bytes (default 32, power of two). *)

val access : t -> addr:int -> bytes:int -> unit
(** Record the lines spanned by one block fetch.  Lines get their ids
    through a hash table here; {!from_trace} numbers them densely. *)

val refs : t -> int
(** Line references recorded. *)

val cold : t -> int
(** First-touch references (miss at every capacity). *)

val misses_at : t -> lines:int -> int
(** Misses of a fully-associative LRU cache with [lines] lines.
    @raise Invalid_argument if [lines < 1]. *)

val curve : t -> max_lines:int -> (int * int) list
(** [(capacity in lines, misses)] at every power of two up to
    [max_lines]. *)

val from_trace :
  trace:Trace.t -> map:Replay.code_map -> ?line:int -> ?os_only:bool -> unit -> t
(** Feed a captured block trace through the analysis under a given code
    placement ([os_only] restricts to OS fetches).  Line ids come from the
    map's per-image line ranges, merged where images overlap, so one pass
    sizes its arrays once and never hashes; the result equals feeding
    every fetch through {!access}. *)
