(** The advanced loop-callee placement of Section 4.4 ("Call" in Figure
    18).  The paper implements it, measures it, and rejects it: pulling a
    loop's callees out of the sequences removes loop/callee conflicts but
    destroys more spatial locality than it saves.

    Algorithm: loops with procedure calls and at least
    {!Opt.min_loop_iterations} iterations per invocation are each assigned a
    logical cache past the sequence/loop area, with the loop body at offset
    SelfConfFree from the chunk start.  A {e conflict matrix} (loops x the
    50 most popular routines they call, directly or transitively) drives
    callee placement: each routine is placed as close as possible after its
    caller loop; a routine called by several loops is placed at an offset
    free in all of their logical caches, the other caches keeping a gap at
    that offset. *)

type stats = {
  candidate_loops : int;
  matrix_routines : int;
  extracted_blocks : int;
}

val layout : model:Model.t -> profile:Profile.t -> Opt.result * stats
(** OptS assembly ({!Opt.params} defaults) with the loop-callee extension
    applied on top.  The returned map is validated (every block placed
    exactly once). *)
