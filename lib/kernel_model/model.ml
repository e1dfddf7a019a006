type seed_info = { service : Service.t; routine : Routine.id; entry : Block.id }

type dispatch = { block : Block.id; arcs : (Arc.id * int) array }

type t = {
  graph : Graph.t;
  arc_prob : float array;
  seeds : seed_info array;
  dispatches : dispatch array;
  handlers : Routine.id array array;
  leaves : Routine.id array;
  base_order : Routine.id array;
}

let seed_for t c = t.seeds.(Service.index c)

let routine_name t r = (Graph.routine t.graph r).Routine.name
