(** Natural-loop detection via dataflow analysis (Aho, Sethi, Ullman), as
    used by the paper for its loop-locality analysis (Section 3.2.2) and
    the OptL / Section 4.4 optimizations. *)

type t = {
  header : Block.id;
  body : Block.id array;  (** Includes the header; sorted by block id. *)
  back_edges : Arc.id array;  (** All back edges sharing this header. *)
  routine : Routine.id;
  calls_routines : Routine.id array;  (** Routines called from the body. *)
  static_bytes : int;  (** Sum of body block sizes. *)
}

val has_calls : t -> bool

val find : Graph.t -> t list
(** All natural loops of the program, one per header (loops sharing a
    header are merged, per the standard construction). *)

val find_in_routine : Graph.t -> Routine.t -> t list

val blocks_in_loops : Graph.t -> t list -> bool array
(** [blocks_in_loops g loops] maps each block id to whether it belongs to
    any of the given loops' bodies. *)
