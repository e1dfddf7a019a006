(** Whole-program basic-block flow graph.

    This is the paper's directed flow graph G = (V, E) (Section 4): nodes
    are basic blocks, intra-routine arcs are branch/fall-through
    transitions, and calls are represented by the callee field of blocks
    (control enters the callee's entry block and, at a callee exit block,
    resumes at the caller block's ordinary successor arcs).

    A graph is built through a {!builder} and then frozen; all queries on a
    frozen [t] are O(1) array lookups. *)

type t

type builder

val builder : unit -> builder

val declare_routine : builder -> string -> Routine.id
(** Register a routine name and obtain its id.  Blocks are attached later;
    the first block attached becomes the entry block. *)

val add_block : builder -> routine:Routine.id -> size:int -> ?call:Routine.id -> unit -> Block.id
(** Attach a block to [routine].  [size] is the static byte size (must be
    positive).  [call] names the callee if the block ends in a call.
    @raise Invalid_argument on non-positive size or unknown routine. *)

val add_arc : builder -> src:Block.id -> dst:Block.id -> Arc.kind -> Arc.id
(** Add an intra-routine transition.
    @raise Invalid_argument if [src] and [dst] belong to different
    routines. *)

val freeze : builder -> t
(** Validate and freeze.  @raise Invalid_argument if some routine has no
    blocks or a call names a routine id that was never declared. *)

(** {1 Queries} *)

val block_count : t -> int
val arc_count : t -> int
val routine_count : t -> int

val block : t -> Block.id -> Block.t
val arc : t -> Arc.id -> Arc.t
val routine : t -> Routine.id -> Routine.t

val out_arcs : t -> Block.id -> Arc.id array
(** Outgoing intra-routine arcs, in insertion order.  Empty for routine
    exit blocks. *)

val in_arcs : t -> Block.id -> Arc.id array

val is_exit : t -> Block.id -> bool
(** True when the block has no outgoing arcs (returns to caller). *)

val entry_of : t -> Routine.id -> Block.id

val code_bytes : t -> int
(** Total static code size. *)

val block_sizes : t -> int array
(** Block id -> size, built once by {!freeze} and shared by every caller:
    read it, never write it. *)

val block_words : t -> int array
(** Block id -> {!Block.instruction_words}, built and shared like
    {!block_sizes}. *)

val digest : t -> string
(** Hex MD5 of the graph's content, computed on the first call and
    stored in the graph (not in {!freeze}: most graphs are never keyed).
    Graphs are immutable, so every later call is a field read. *)

val routine_of_block : t -> Block.id -> Routine.id

val iter_blocks : t -> (Block.t -> unit) -> unit
val iter_routines : t -> (Routine.t -> unit) -> unit
val iter_arcs : t -> (Arc.t -> unit) -> unit

val callers : t -> Routine.id -> Block.id array
(** All blocks (in any routine) whose [call] field names the routine. *)

val fold_blocks : t -> init:'a -> f:('a -> Block.t -> 'a) -> 'a
