(** Graphviz export of one routine's flow graph: boxes for blocks (entry
    bold, executed blocks shaded when [weights] is given), dashed edges to
    callee-name stubs, loop back edges bold red when [loops] is given.
    [weights] is a per-block execution-count array (e.g.
    [profile.Profile.block]). *)

val routine_to_string :
  Graph.t -> ?weights:float array -> ?loops:Loops.t list -> Routine.t -> string
