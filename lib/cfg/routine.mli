(** Routines (procedures).

    A routine owns a set of basic blocks with a distinguished entry block.
    Blocks without outgoing arcs are the routine's exit blocks: executing
    one returns control to the caller's continuation. *)

type id = int

type t = {
  id : id;
  name : string;
  entry : Block.id;
  blocks : Block.id array;  (** All blocks, in original (Base) text order. *)
}
