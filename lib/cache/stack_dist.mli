(** LRU stack-distance (reuse-distance) analysis over a line-granular
    reference stream.

    One pass yields the miss count of {e every} fully-associative LRU
    capacity at once: a reference misses in a cache of [C] lines iff at
    least [C] distinct lines were touched since the previous reference to
    its line.  Since code placement cannot change fully-associative
    misses, the gap between them and a set-associative simulation of the
    same trace is exactly the conflict-miss mass that the paper's layouts
    attack.

    Distances are binned with power-of-two edges (bin 0 is d = 0, bin j
    is 2^(j-1) <= d < 2^j, bin 24 everything from 2^23 on), so
    {!misses_at} is exact at power-of-two capacities (others round down).
    The LRU stack is a doubly linked list over dense line ids with one
    marker per bin at the bin's shallowest line; a reference at depth d
    moves one line across each shallower bin boundary, so it costs
    O(bin of d), and hot code, at small depths, is cheap. *)

type t

val from_trace :
  trace:Trace.t -> map:Chunk.code_map -> ?line:int -> ?os_only:bool -> unit -> t
(** Feed a captured block trace through the analysis under a given code
    placement, at [line]-byte lines (default 32, a power of two);
    [os_only] restricts it to OS fetches.  The references are stage 1 of
    one replay pass's stream ({!Chunk.stream}): every line each event
    spans, with each dropped repeat counted as a reference at distance
    0.  Line ids come from the map's per-image line ranges, merged where
    images overlap, so one pass sizes its arrays once and never hashes.
    @raise Invalid_argument if the merged ranges span more than 2^22
    lines. *)

val refs : t -> int
(** Line references recorded. *)

val cold : t -> int
(** First-touch references (miss at every capacity). *)

val misses_at : t -> lines:int -> int
(** Misses of a fully-associative LRU cache with [lines] lines.
    @raise Invalid_argument if [lines < 1]. *)
