(** Synthetic models of the paper's application codes (Section 2.3):

    - TRFD: small hand-parallelized Perfect-Club code dominated by tight
      matrix loops (69% of its dynamic instructions in loops);
    - ARC2D: 2-D fluid dynamics, even more loop-dominated (96%);
    - cc1: the second phase of the C compiler used in TRFD+Make - larger,
      branchy, with short loops over statements;
    - fsck: file-system checker - branchy I/O checking code with a big
      outer loop over inodes.

    The walker restarts [main] when it returns, so an application models an
    endlessly running program. *)

type t = {
  name : string;
  graph : Graph.t;
  arc_prob : float array;
  main : Routine.id;
  base_order : Routine.id array;
}

val trfd : ?seed:int -> unit -> t
val arc2d : ?seed:int -> unit -> t
val cc1 : ?seed:int -> unit -> t
val fsck : ?seed:int -> unit -> t
