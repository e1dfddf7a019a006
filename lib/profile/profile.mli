(** Execution profiles: per-block, per-arc and per-routine weights gathered
    from the trace engine, the input to every placement algorithm of the
    paper (node and arc weights of the flow graph G, Section 4).

    A {!t} is immutable: {!capture} wraps the engine's count arrays, any
    other profile is made by {!of_counts}, and [total_blocks] is always
    computed, never supplied.  A profile is never written, so its
    {!digest}, the key every layout stage of {!Layout_cache} uses, is
    computed once per value. *)

type stamp
(** The write-once slot that holds a profile's {!digest}. *)

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
(** A profile.  Its arrays are its own (nothing else holds them) and
    read-only by contract: no function of this library writes them. *)

val of_counts : block:float array -> arc:float array -> invocations:float -> t
(** The profile of these counts, taking ownership of the arrays: the
    caller must not write them afterwards.  [total_blocks] is the left
    fold of [( +. )] over [block] from [0.0]. *)

val digest : t -> string
(** Hex MD5 of the counts ([block], [arc], [total_blocks],
    [invocations]), by {!Memo.digest}, so profiles with equal counts get
    equal digests.  Computed on the first call, not by {!of_counts} (most
    profiles are never keyed), and stored in the value, so every later
    call is a field read. *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * Engine.stats * t array
(** One {!Engine.run}: its trace (exactly {!Engine.capture}'s for the same
    arguments), its stats, and one profile per image (index 0 =
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

val executed_block_count : t -> int
val executed_bytes : t -> Graph.t -> int
