(** Cache organizations evaluated in Section 5.5: the standard unified
    cache, the split OS/application cache ("Sep"), and a small reserved
    cache for the hottest OS code next to a main cache ("Resv"), plus a
    victim buffer behind a direct-mapped cache. *)

type spec =
  | Unified of Config.t
  | Split of { os : Config.t; app : Config.t }
      (** OS fetches go to [os], application fetches to [app]. *)
  | Reserved of { hot : Config.t; rest : Config.t; hot_limit : int }
      (** OS fetches at addresses below [hot_limit] go to the small [hot]
          cache; everything else to [rest].  The layout must place the
          most important OS code in [\[0, hot_limit)]. *)
  | Victim of { main : Config.t; entries : int }
      (** A direct-mapped [main] cache backed by an [entries]-line
          fully-associative LRU victim buffer (Jouppi 1990) - the classic
          hardware remedy for the conflict misses the paper removes in
          software.  Lines displaced from the main cache park in the
          buffer; hitting one there swaps it back. *)
(** A cache organization as plain data: comparable, and keyable through
    its runtime representation (as {!Sim_cache} keys replays). *)

type t

val create : spec -> t
(** A fresh, empty system.
    @raise Invalid_argument for a [Victim] whose [main] is not
    direct-mapped or whose [entries < 1]. *)

val unified : Config.t -> t
val split : os:Config.t -> app:Config.t -> t
val reserved : hot:Config.t -> rest:Config.t -> hot_limit:int -> t
val victim : main:Config.t -> entries:int -> t
(** {!create} of the matching {!spec}. *)

val readers : t -> Chunk.reader array
(** One {!Chunk.reader} per sub-cache, in the order {!run} feeds them: a
    split cache's OS half takes the OS events, a reserved cache's hot
    half the OS events below [hot_limit], the other half the rest.  A
    unified or victim cache is one sub-cache over every event. *)

val run : t -> Chunk.t -> first:int -> unit
(** Feed a chunk through every sub-cache in turn: sub-cache [k] reads
    the chunk's stream for reader [first + k], which [readers t] planned
    at position [k].  Sub-caches are independent, so each sees exactly
    the per-event order of the trace.  Allocates nothing per event. *)

val probes : t -> int
(** {!Sim.probes} summed over the sub-caches. *)

val counters : t -> Counters.t
(** Aggregated snapshot (a fresh copy) across sub-caches. *)

val reset_counters : t -> unit
(** Zero all counters while keeping cache contents (warm-up support). *)

val enable_block_attribution : t -> blocks:int -> unit
(** {!Sim.enable_block_attribution} on every sub-cache. *)

val block_misses : t -> int array
(** Aggregated per-OS-block misses across sub-caches. *)

val block_misses_self : t -> int array
val block_misses_cross : t -> int array
