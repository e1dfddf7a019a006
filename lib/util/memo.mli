(** Named, domain-safe, content-addressed memo table.

    Keys are strings — in practice hex digests of exactly the inputs the
    memoized computation consumes — so equal keys stand for equal values
    and a stored value may be handed to every caller.  Each table guards
    its own [Hashtbl] with its own mutex; builds run outside the lock.

    A table named [n] counts its lookups in the {!Metrics_registry}
    counters [n.hits], [n.misses] and [n.lookups] (every lookup bumps
    [lookups] and exactly one of the other two), so the run manifest's
    metrics snapshot carries them and [icache-opt validate] can check
    [hits + misses = lookups] without knowing the table.  Names must be
    unique per table.  The counters, like every registry counter, keep
    whole-process totals: {!clear} drops values, not counts. *)

type 'a t

type stats = { hits : int; misses : int }

val create : string -> 'a t
(** A fresh, empty table named [name] (see above for its counters). *)

val find : 'a t -> string -> 'a option
(** The stored value, if any.  Counts one lookup: a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Store [v] under [key] unless a value is already there: the first
    writer wins and later writers are ignored.  Counts no lookup. *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** The stored value, or [build ()] stored and returned.  [build] runs
    outside the lock, so two domains missing on one key may both build;
    the first store wins and both get the stored value, which keeps
    results (and physical sharing) independent of domain scheduling. *)

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop every stored value; the counters keep their totals. *)
