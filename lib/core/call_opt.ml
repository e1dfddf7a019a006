type stats = {
  candidate_loops : int;
  matrix_routines : int;
  extracted_blocks : int;
}

(* The paper's "50 most popular routines" of the conflict matrix. *)
let max_matrix_routines = 50

let layout ~model ~profile:p =
  let params = Opt.params () in
  let g = model.Model.graph in
  let loops = Program_layout.os_loops model in
  let infos = Loopstat.analyze g p loops in
  let candidates =
    List.filter
      (fun (i : Loopstat.info) ->
        Loops.has_calls i.Loopstat.loop
        && i.Loopstat.iterations_per_invocation >= Opt.min_loop_iterations)
      infos
  in
  (* Claim blocks: loop bodies first (first claimer wins for nested or
     overlapping loops), then the matrix routines' executed blocks. *)
  let claimed = Array.make (Graph.block_count g) false in
  let loop_claims =
    List.map
      (fun (i : Loopstat.info) ->
        let blocks =
          Array.to_list i.Loopstat.loop.Loops.body
          |> List.filter (fun b ->
                 if claimed.(b) || not (Profile.executed p b) then false
                 else begin
                   claimed.(b) <- true;
                   true
                 end)
        in
        (i, blocks))
      candidates
  in
  (* Conflict matrix: which candidate loops call which routines. *)
  let loop_count = List.length loop_claims in
  let callers_of = Hashtbl.create 64 in
  List.iteri
    (fun li ((i : Loopstat.info), _) ->
      Array.iter
        (fun b ->
          if Profile.executed p b then
            match (Graph.block g b).Block.call with
            | Some callee ->
                Hashtbl.iter
                  (fun r () ->
                    let cur =
                      Option.value ~default:[] (Hashtbl.find_opt callers_of r)
                    in
                    if not (List.mem li cur) then Hashtbl.replace callers_of r (li :: cur))
                  (Loopstat.reachable_routines g p callee)
            | None -> ())
        i.Loopstat.loop.Loops.body)
    loop_claims;
  let invocations = Profile.routine_invocations p g in
  let matrix =
    Hashtbl.fold (fun r callers acc -> (r, callers) :: acc) callers_of []
    |> List.sort (fun (a, _) (b, _) -> compare invocations.(b) invocations.(a))
    |> List.filteri (fun i _ -> i < max_matrix_routines)
  in
  let routine_claims =
    List.map
      (fun (r, callers) ->
        let blocks =
          Array.to_list (Graph.routine g r).Routine.blocks
          |> List.filter (fun b ->
                 if claimed.(b) || not (Profile.executed p b) then false
                 else begin
                   claimed.(b) <- true;
                   true
                 end)
        in
        (r, callers, blocks))
      matrix
  in
  (* Base OptS assembly with all claimed blocks excluded. *)
  let seed_entry c = (Model.seed_for model c).Model.entry in
  let r =
    Opt.layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule:Schedule.paper
      ~exclude:(fun b -> claimed.(b))
      params
  in
  let map = r.Opt.map in
  let cache = params.Opt.cache_size in
  (* Logical caches past everything placed so far; loop body at offset
     scf_bytes.  Placement runs in two passes: first every claim is
     recorded as a (block, chunk, offset) triple while tracking the free
     offset of each chunk, then chunks are given bases.  A chunk whose
     contents outgrow one cache span simply occupies several consecutive
     cache-sized spans; keeping every base a multiple of the cache size
     preserves the offset-equals-cache-index property the conflict-matrix
     gaps rely on. *)
  let first_chunk = (Address_map.extent map + cache - 1) / cache in
  let offsets = Array.make loop_count r.Opt.scf_bytes in
  let recorded = ref [] in
  let record_blocks blocks ~chunk ~offset =
    List.fold_left
      (fun off b ->
        recorded := (b, chunk, off) :: !recorded;
        off + (Graph.block g b).Block.size)
      offset blocks
  in
  List.iteri
    (fun li (_info, blocks) -> offsets.(li) <- record_blocks blocks ~chunk:li ~offset:offsets.(li))
    loop_claims;
  let extracted = ref 0 in
  List.iter
    (fun (_r, callers, blocks) ->
      extracted := !extracted + List.length blocks;
      match callers with
      | [] -> ()
      | first :: _ ->
          (* Free offset in every caller's logical cache. *)
          let offset = List.fold_left (fun acc li -> max acc offsets.(li)) 0 callers in
          let size =
            List.fold_left (fun acc b -> acc + (Graph.block g b).Block.size) 0 blocks
          in
          ignore (record_blocks blocks ~chunk:first ~offset);
          List.iter (fun li -> offsets.(li) <- offset + size) callers)
    routine_claims;
  let chunk_base = Array.make (max 1 loop_count) (first_chunk * cache) in
  for li = 1 to loop_count - 1 do
    let spans = max 1 ((offsets.(li - 1) + cache - 1) / cache) in
    chunk_base.(li) <- chunk_base.(li - 1) + (spans * cache)
  done;
  List.iter
    (fun (b, chunk, off) ->
      Address_map.place map b ~addr:(chunk_base.(chunk) + off)
        ~region:Address_map.Loop_area)
    !recorded;
  List.iter
    (fun (_info, blocks) -> extracted := !extracted + List.length blocks)
    loop_claims;
  Address_map.validate map;
  ( r,
    {
      candidate_loops = loop_count;
      matrix_routines = List.length routine_claims;
      extracted_blocks = !extracted;
    } )
