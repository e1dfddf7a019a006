(** Named, domain-safe, single-flight, content-addressed memo table.

    Keys are strings — in practice {!digest}s of exactly the inputs the
    memoized computation consumes — so equal keys stand for equal values
    and a stored value may be handed to every caller.  Each table guards
    its own [Hashtbl] with its own mutex; builds run outside the lock.

    Single flight: the first caller to miss on a key claims it and runs
    the build; every later caller of that key blocks until the value is
    stored and then gets it (physically the same value).  So each key is
    built once per process (between {!clear}s) whatever the domain
    schedule, and a raising build releases its claim: the exception goes
    to its own caller, and one of the blocked callers claims the key and
    builds it again.  A build may consult other tables, or other keys of
    the same table, as long as no key's build needs that key itself.

    A table named [n] counts its lookups in the {!Metrics_registry}
    counters [n.hits], [n.misses] and [n.lookups] (every lookup bumps
    [lookups] and exactly one of the other two).  A lookup is a miss when
    its caller builds the value and a hit when it gets a value built by
    someone else, waiting or not, so the counts depend only on which
    keys are looked up how often, never on the order: [misses] is the
    number of distinct keys built.  The run manifest's metrics snapshot
    carries the counters and [icache-opt validate] checks
    [hits + misses = lookups] without knowing the table.  Names must be
    unique per table.  The counters, like every registry counter, keep
    whole-process totals: {!clear} drops values, not counts. *)

type 'a t

type stats = { hits : int; misses : int }

val digest : 'a -> string
(** Hex MD5 of the value's marshalled content, without sharing: two
    values with equal content get equal digests however their parts are
    shared.  The one way this library turns a value into a key.  The
    value must be acyclic and hold no closures (marshalling loops on a
    cycle and raises on a closure). *)

val create : string -> 'a t
(** A fresh, empty table named [name] (see above for its counters). *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** The stored value, or [build ()] stored and returned, single-flight
    (see above).  [build] runs outside the lock, on the caller's domain. *)

val find_or_build_all : 'a t -> string array -> (int array -> 'a array) -> 'a array
(** [find_or_build_all t keys build] is [Array.map] of {!find_or_build}
    over [keys] with the builds batched: under one lock it takes what is
    stored and claims every absent key (at its first index), then calls
    [build claimed] once with the claimed indices in increasing order,
    which must return their values in the same order.  Only after those
    are stored does it wait for keys other callers are building (and
    repeats of a key it claimed, which count as hits), so no caller ever
    waits while holding a claim.  If [build] raises, every claim of the
    call is released and the exception re-raised. *)

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop every stored value; the counters keep their totals. *)
