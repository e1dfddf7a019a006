(** Intra-routine control-flow arcs between basic blocks. *)

type id = int
(** Dense arc identifier, unique within a {!Graph.t}. *)

type kind =
  | Fallthrough  (** Control continues to the textually next block. *)
  | Taken  (** A conditional or unconditional branch target. *)

type t = { id : id; src : Block.id; dst : Block.id; kind : kind }
