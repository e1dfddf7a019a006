(** Graphviz export of one routine's flow graph: boxes for blocks (entry
    bold, executed blocks shaded and labelled with their count), dashed
    edges to callee-name stubs, the back edges of [loops] bold red.
    [weights] is a per-block execution-count array (e.g.
    [profile.Profile.block]). *)

val routine_to_string :
  Graph.t -> weights:float array -> loops:Loops.t list -> Routine.t -> string
