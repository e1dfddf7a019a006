type info = {
  loop : Loops.t;
  invocations : float;
  iterations_per_invocation : float;
  executed_body_bytes : int;
  executed_bytes_with_callees : int;
  dynamic_words : float;
}

let executed_routine_bytes g p =
  Array.init (Graph.routine_count g) (fun r ->
      Array.fold_left
        (fun acc b ->
          if Profile.executed p b then acc + (Graph.block g b).Block.size else acc)
        0
        (Graph.routine g r).Routine.blocks)

(* Routines transitively callable from [r] through executed call blocks. *)
let reachable_routines g p r =
  let seen = Hashtbl.create 16 in
  let rec visit r =
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      Array.iter
        (fun b ->
          if Profile.executed p b then
            match (Graph.block g b).Block.call with
            | Some callee -> visit callee
            | None -> ())
        (Graph.routine g r).Routine.blocks
    end
  in
  visit r;
  seen

let analyze g p loops =
  let own = executed_routine_bytes g p in
  List.filter_map
    (fun (l : Loops.t) ->
      if not (Profile.executed p l.Loops.header) then None
      else begin
        let header_count = p.Profile.block.(l.Loops.header) in
        let back =
          Array.fold_left (fun acc a -> acc +. p.Profile.arc.(a)) 0.0 l.Loops.back_edges
        in
        let invocations = Float.max 1.0 (header_count -. back) in
        let executed_body_bytes = ref 0 in
        let dynamic_words = ref 0.0 in
        let callee_bytes =
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun b ->
              let blk = Graph.block g b in
              if Profile.executed p b then begin
                executed_body_bytes := !executed_body_bytes + blk.Block.size;
                dynamic_words :=
                  !dynamic_words
                  +. (p.Profile.block.(b) *. float_of_int (Block.instruction_words blk));
                match blk.Block.call with
                | Some callee ->
                    let sub = reachable_routines g p callee in
                    Hashtbl.iter (fun r () -> Hashtbl.replace seen r ()) sub
                | None -> ()
              end)
            l.Loops.body;
          Hashtbl.fold (fun r () acc -> acc + own.(r)) seen 0
        in
        Some
          {
            loop = l;
            invocations;
            iterations_per_invocation = header_count /. invocations;
            executed_body_bytes = !executed_body_bytes;
            executed_bytes_with_callees = !executed_body_bytes + callee_bytes;
            dynamic_words = !dynamic_words;
          }
      end)
    loops

let split_by_calls infos =
  List.partition (fun i -> not (Loops.has_calls i.loop)) infos

let plain_loop_marks g loops =
  Loops.blocks_in_loops g (List.filter (fun l -> not (Loops.has_calls l)) loops)

let dynamic_share_without_calls g p loops =
  let marks = plain_loop_marks g loops in
  let in_loops = ref 0.0 and total = ref 0.0 in
  Graph.iter_blocks g (fun b ->
      let w = p.Profile.block.(b.Block.id) *. float_of_int (Block.instruction_words b) in
      total := !total +. w;
      if marks.(b.Block.id) then in_loops := !in_loops +. w);
  if !total > 0.0 then !in_loops /. !total else 0.0

let static_executed_share_without_calls g p loops =
  let marks = plain_loop_marks g loops in
  let in_loops = ref 0 and total = ref 0 in
  Graph.iter_blocks g (fun b ->
      if Profile.executed p b.Block.id then begin
        total := !total + b.Block.size;
        if marks.(b.Block.id) then in_loops := !in_loops + b.Block.size
      end);
  Stats.ratio !in_loops !total

let static_share_without_calls ~profile:p g loops =
  let marks = plain_loop_marks g loops in
  let in_loops = ref 0 in
  Graph.iter_blocks g (fun b ->
      if marks.(b.Block.id) && Profile.executed p b.Block.id then
        in_loops := !in_loops + b.Block.size);
  Stats.ratio !in_loops (Graph.code_bytes g)
