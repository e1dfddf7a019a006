(** Cache organizations evaluated in Section 5.5: the standard unified
    cache, the split OS/application cache ("Sep"), and a small reserved
    cache for the hottest OS code next to a main cache ("Resv"), plus a
    victim buffer behind a direct-mapped cache.

    A system is its sub-caches ({!caches}), each a {!Sim.t} with the side
    of the events it takes.  A replay pass flattens its systems into
    them, and a system's results are its sub-caches' summed: {!counters}
    and the per-OS-block miss store ({!block_misses}). *)

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

val caches : t -> (Sim.t * Chunk.side) array
(** The sub-caches, each with the side of the events it takes: a split
    cache's OS half takes the OS events, a reserved cache's hot half the
    OS events below [hot_limit], the other half the rest.  A unified or
    victim cache is one sub-cache over every event.  Sub-caches are
    independent, so a replay pass ({!Replay.run_range}) feeds each its
    own stream, in the per-event order of the trace. *)

val probes : t -> int
(** {!Sim.probes} summed over the sub-caches. *)

val counters : t -> Counters.t
(** Aggregated snapshot (a fresh copy) across sub-caches. *)

val enable_block_attribution : t -> blocks:int -> unit
(** {!Sim.enable_block_attribution} on every sub-cache. *)

val block_misses : t -> int array
(** The sub-caches' {!Sim.block_misses} stores summed entry by entry
    into a fresh array, laid out as each one is: OS block [b]'s cold,
    self- and cross-interference misses at [3b], [3b + 1] and [3b + 2].
    @raise Invalid_argument if attribution was not enabled. *)
