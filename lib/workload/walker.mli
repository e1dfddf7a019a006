(** Stochastic execution of a flow graph.

    A walker follows a {!Graph.t} from a start block, emitting executed
    basic blocks one at a time.  At a block that ends in a call it descends
    into the callee's entry; at a callee exit block it returns to the
    caller block's outgoing arcs.  Multi-arc choices are made from the
    intrinsic arc probabilities, except where the [choose] override decides
    (used for the seed dispatch blocks, whose handler mix is
    workload-specific).

    Walkers are pausable: the engine interleaves an application walker with
    OS invocations by stepping it a bounded number of words at a time. *)

type t

type chooser = Block.id -> Arc.id array -> Arc.id option
(** Return [Some arc] to override the intrinsic choice at this block. *)

val create :
  graph:Graph.t -> arc_prob:float array -> prng:Prng.t ->
  ?choose:chooser -> arc_counts:float array -> unit -> t
(** [arc_counts], one slot per arc of [graph], gains 1 for every
    intra-routine arc the walk takes (the profile's arc weights;
    call/return transitions are visible as block executions).  Walkers
    over one image may share it.
    @raise Invalid_argument if its length is not [Graph.arc_count graph]. *)

val start : t -> Block.id -> unit
(** Begin a new walk at the given block, discarding any previous state. *)

val active : t -> bool
(** True while the current walk has not returned from its start frame. *)

val step : t -> Block.id option
(** Emit the next executed block, or [None] if the walk has completed. *)

val depth : t -> int
(** Current call-stack depth (testing aid). *)
