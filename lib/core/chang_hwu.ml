(* Greedy trace selection within one routine: repeatedly start a trace at
   the heaviest unvisited executed block and extend it along the heaviest
   outgoing arc whose target is unvisited; unexecuted blocks go last in
   text order. *)
let intra_routine_order g p (r : Routine.t) =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let emit b =
    Hashtbl.add visited b ();
    order := b :: !order
  in
  let heaviest_unvisited_successor b =
    let best = ref None in
    Array.iter
      (fun a ->
        let arc = Graph.arc g a in
        let w = p.Profile.arc.(a) in
        if w > 0.0 && not (Hashtbl.mem visited arc.Arc.dst) then
          match !best with
          | Some (_, w') when w' >= w -> ()
          | Some _ | None -> best := Some (arc.Arc.dst, w))
      (Graph.out_arcs g b);
    Option.map fst !best
  in
  let rec extend b =
    match heaviest_unvisited_successor b with
    | Some next ->
        emit next;
        extend next
    | None -> ()
  in
  (* Seed traces from executed blocks, heaviest first; the entry block
     always leads so the routine remains enterable at its start. *)
  let executed =
    Array.to_list r.Routine.blocks
    |> List.filter (fun b -> Profile.executed p b)
    |> List.sort (fun a b -> compare p.Profile.block.(b) p.Profile.block.(a))
  in
  let seeds =
    if Profile.executed p r.Routine.entry then
      r.Routine.entry :: List.filter (fun b -> b <> r.Routine.entry) executed
    else executed
  in
  List.iter
    (fun b ->
      if not (Hashtbl.mem visited b) then begin
        emit b;
        extend b
      end)
    seeds;
  Array.iter (fun b -> if not (Hashtbl.mem visited b) then emit b) r.Routine.blocks;
  List.rev !order

(* Call-graph edge weights: calls from executed blocks of [caller] to
   [callee]. *)
let call_edges g p =
  let tbl = Hashtbl.create 256 in
  Graph.iter_blocks g (fun b ->
      match b.Block.call with
      | Some callee when p.Profile.block.(b.Block.id) > 0.0 ->
          let key = (b.Block.routine, callee) in
          let w = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (w +. p.Profile.block.(b.Block.id))
      | Some _ | None -> ());
  let edges = Hashtbl.fold (fun (c, r) w acc -> (c, r, w) :: acc) tbl [] in
  List.sort (fun (_, _, a) (_, _, b) -> compare b a) edges

(* Chain merging: each routine starts as a singleton chain; for each call
   edge in decreasing weight, append the callee's chain right after the
   caller's chain if the caller ends a chain and the callee begins one. *)
let routine_order g p =
  let n = Graph.routine_count g in
  let chain_of = Array.init n (fun r -> r) (* routine -> chain representative *) in
  let chain_blocks = Array.init n (fun r -> [ r ]) (* representative -> members *) in
  let chain_weight =
    let inv = Profile.routine_invocations p g in
    Array.init n (fun r -> inv.(r))
  in
  let head = Array.init n (fun r -> r) in
  let tail = Array.init n (fun r -> r) in
  let rec rep r = if chain_of.(r) = r then r else rep chain_of.(r) in
  List.iter
    (fun (caller, callee, _w) ->
      let rc = rep caller and re = rep callee in
      if rc <> re && tail.(rc) = caller && head.(re) = callee then begin
        chain_of.(re) <- rc;
        chain_blocks.(rc) <- chain_blocks.(rc) @ chain_blocks.(re);
        tail.(rc) <- tail.(re);
        chain_weight.(rc) <- chain_weight.(rc) +. chain_weight.(re)
      end)
    (call_edges g p);
  let chains = ref [] in
  for r = 0 to n - 1 do
    if rep r = r then chains := (chain_weight.(r), chain_blocks.(r)) :: !chains
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !chains in
  List.concat_map snd sorted

let layout g p =
  Address_map.back_to_back g
    (Seq.concat_map
       (fun r -> List.to_seq (intra_routine_order g p (Graph.routine g r)))
       (List.to_seq (routine_order g p)))
    ~region:(fun b ->
      if Profile.executed p b then Address_map.Other_seq else Address_map.Cold)
