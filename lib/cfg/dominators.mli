(** Dominator computation on a routine's intra-procedural flow graph,
    using the iterative algorithm of Cooper, Harvey and Kennedy over a
    reverse-postorder numbering.  Needed by {!Loops} to find back edges. *)

type t

val compute : Graph.t -> Routine.t -> t
(** Dominators of every block reachable from the routine's entry. *)

val idom : t -> Block.id -> Block.id option
(** Immediate dominator; [None] for the entry block and for blocks
    unreachable from the entry. *)

val dominates : t -> Block.id -> Block.id -> bool
(** [dominates t a b] is true when [a] dominates [b] (reflexive).  False
    whenever [b] is unreachable. *)

val reachable : t -> Block.id -> bool
