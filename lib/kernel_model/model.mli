(** The generated synthetic kernel: flow graph, intrinsic arc
    probabilities, the four seed entry points and their handler dispatch
    structure, and the link (Base) order of routines. *)

type seed_info = {
  service : Service.t;
  routine : Routine.id;
  entry : Block.id;
}

type dispatch = {
  block : Block.id;  (** The seed's dispatch block. *)
  arcs : (Arc.id * int) array;
      (** Outgoing dispatch arcs with the handler index each selects. *)
}

type t = {
  graph : Graph.t;
  arc_prob : float array;  (** Indexed by {!Arc.id}. *)
  seeds : seed_info array;  (** Indexed by {!Service.index}. *)
  dispatches : dispatch array;  (** Indexed by {!Service.index}. *)
  handlers : Routine.id array array;  (** Per class. *)
  leaves : Routine.id array;
  base_order : Routine.id array;
      (** Pseudo-random but deterministic link order; the Base layout
          concatenates routines in this order (conflicts in the paper
          "vary from recompilation to recompilation"). *)
}

val seed_for : t -> Service.t -> seed_info
val routine_name : t -> Routine.id -> string
