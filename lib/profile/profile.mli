(** Execution profiles: per-block, per-arc and per-routine weights gathered
    from the trace engine, the input to every placement algorithm of the
    paper (node and arc weights of the flow graph G, Section 4).

    A {!t}, the only form the placement algorithms take, is frozen: a
    {!capture} wraps the engine's count arrays, and any other profile is
    gathered in a mutable {!Builder.t} and {!freeze}d.  A frozen profile
    is never written, so its {!digest}, the key every layout stage of
    {!Layout_cache} uses, is computed once per value. *)

module Builder : sig
  type t = {
    block : float array;  (** Executions per {!Block.id}. *)
    arc : float array;  (** Traversals per {!Arc.id}. *)
    mutable total_blocks : float;  (** Sum of [block]. *)
    mutable invocations : float;
        (** OS invocations observed while profiling (0 for application
            images and hand-built profiles). *)
  }
  (** A profile being accumulated. *)

  val create : Graph.t -> t
  (** All counts zero, shaped for the graph. *)
end

type stamp
(** The write-once slot that holds a frozen profile's {!digest}. *)

type t = private {
  block : float array;  (** Executions per {!Block.id}. *)
  arc : float array;  (** Traversals per {!Arc.id}. *)
  total_blocks : float;  (** Sum of [block]. *)
  invocations : float;
      (** OS invocations observed while profiling (0 for application
          images and hand-built profiles).  Scaled along with the counts
          by {!scale_to} and {!average}. *)
  stamp : stamp;
}
(** A frozen profile.  Its arrays are its own (no builder or capture
    holds them) and read-only by contract: no function of this library
    writes them. *)

val freeze : Builder.t -> t
(** A frozen copy of the builder's counts; later writes to the builder do
    not reach it. *)

val thaw : t -> Builder.t
(** A builder holding a copy of the profile's counts. *)

val digest : t -> string
(** Hex MD5 of the counts ([block], [arc], [total_blocks],
    [invocations]).  Computed on the first call, not by {!freeze} (most
    profiles are never keyed), and stored in the value, so every later
    call is a field read. *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * Engine.stats * t array
(** One {!Engine.run}: its trace (exactly {!Engine.capture}'s for the same
    arguments), its stats, and one frozen profile per image (index 0 =
    OS) counting the same run's block executions, arcs taken and OS
    invocations.  The profiles are the run's {!Engine.counts} arrays,
    not copies.  Every trace-plus-profile capture goes through here. *)

val scale_to : t -> float -> t
(** Copy, rescaled so [total_blocks] equals the given value. *)

val average : t list -> t
(** Equal-weight average: each profile is first normalized to the same
    total (the paper builds layouts from the average of all workload
    profiles).  @raise Invalid_argument on the empty list or mismatched
    shapes. *)

val accumulate : Builder.t -> t -> unit
(** [accumulate dst src] adds [src]'s raw counts into [dst]. *)

(** {1 Derived quantities} *)

val executed : t -> Block.id -> bool

val block_fraction : t -> Block.id -> float
(** Block weight over total block weight (compared against ExecThresh). *)

val arc_probability : t -> Graph.t -> Arc.id -> float
(** Arc weight over its source block's weight (compared against
    BranchThresh); 0 when the source never executed. *)

val routine_invocations : t -> Graph.t -> float array
(** Invocations of each routine: executions of its entry block minus
    loop-back-edge re-entries. *)

val executed_routine_count : t -> Graph.t -> int
val executed_block_count : t -> int
val executed_bytes : t -> Graph.t -> int

val dynamic_words : t -> Graph.t -> float
(** Total instruction words implied by the block counts. *)
