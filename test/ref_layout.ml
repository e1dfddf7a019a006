(* The placement code as it stood before its fast paths, kept as a
   reference a reader can check by eye: list-based assembly with a
   polymorphic tuple sort for the cold filler and a first-fit hole list,
   and a comparison sort inside [validate].  The differential properties
   in test_properties hold Opt and Address_map to it. *)

(* Cursor over memory organized as logical caches of size [cache] whose
   lowest [hole] bytes (beyond the first logical cache) are reserved.
   Records the holes it skips so they can be filled with cold code. *)
type cursor = {
  cache : int;
  hole : int;
  mutable at : int;
  mutable holes : (int * int) list;  (* (start, size), reverse order *)
  seen : (int, unit) Hashtbl.t;  (* hole starts already recorded *)
}

let cursor ~cache ~hole ~start =
  { cache; hole; at = start; holes = []; seen = Hashtbl.create 16 }

(* Opt's totality rule: a block with no room beside the hole of any
   logical cache, and no room left in the first one, drops the holes. *)
exception No_room

let rec fit c size =
  if c.hole > 0 && c.hole + size > c.cache && c.at + size > c.cache then raise No_room;
  let off = c.at mod c.cache in
  if c.hole > 0 && c.at >= c.cache && off < c.hole then begin
    (* Entering a reserved hole: skip it, remembering the span. *)
    let start = c.at - off in
    if not (Hashtbl.mem c.seen start) then begin
      Hashtbl.add c.seen start ();
      c.holes <- (start, c.hole) :: c.holes
    end;
    c.at <- start + c.hole;
    fit c size
  end
  else if c.hole > 0 && off + size > c.cache then begin
    (* Block would run into the next logical cache's hole. *)
    c.at <- c.at - off + c.cache;
    fit c size
  end
  else begin
    let addr = c.at in
    c.at <- addr + size;
    addr
  end

(* Opt.assemble with every stage output computed directly. *)
let assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude (params : Opt.params) =
  let scf_blocks, scf_bytes =
    match params.Opt.scf_cutoff with
    | None -> ([], 0)
    | Some cutoff ->
        let blocks = List.filter (fun b -> not (exclude b)) (select_scf cutoff) in
        (blocks, Scf.bytes g blocks)
  in
  let in_scf = Array.make (Graph.block_count g) false in
  List.iter (fun b -> in_scf.(b) <- true) scf_blocks;
  (* Loop extraction: mark qualifying loops' bodies. *)
  let in_loop_area = Array.make (Graph.block_count g) false in
  if params.extract_loops then begin
    let infos = loop_infos () in
    List.iter
      (fun (i : Loopstat.info) ->
        if i.Loopstat.iterations_per_invocation >= Opt.min_loop_iterations then
          Array.iter
            (fun b -> if not in_scf.(b) && not (exclude b) then in_loop_area.(b) <- true)
            i.Loopstat.loop.Loops.body)
      infos
  end;
  let map = Address_map.create g in
  (* 1. SelfConfFree area at the bottom of the first logical cache. *)
  let scf_cursor = ref params.start_offset in
  List.iter
    (fun b ->
      Address_map.place map b ~addr:!scf_cursor ~region:Address_map.Self_conf_free;
      scf_cursor := !scf_cursor + (Graph.block g b).Block.size)
    scf_blocks;
  (* 2. Sequences, skipping later logical caches' SelfConfFree holes. *)
  let hole = if params.scf_holes then scf_bytes else 0 in
  let cur =
    cursor ~cache:params.cache_size ~hole ~start:(params.start_offset + scf_bytes)
  in
  let loop_order = ref [] in
  List.iter
    (fun (s : Sequence.t) ->
      let region =
        if s.Sequence.pass.Schedule.exec_thresh >= Schedule.main_seq_exec_thresh then
          Address_map.Main_seq
        else Address_map.Other_seq
      in
      Array.iter
        (fun b ->
          if exclude b || in_scf.(b) then ()
          else if in_loop_area.(b) then loop_order := b :: !loop_order
          else begin
            let size = (Graph.block g b).Block.size in
            Address_map.place map b ~addr:(fit cur size) ~region
          end)
        s.Sequence.blocks)
    sequences;
  (* 3. Loop area at the end of the sequences, same internal order. *)
  let loop_blocks = List.rev !loop_order in
  List.iter
    (fun b ->
      let size = (Graph.block g b).Block.size in
      Address_map.place map b ~addr:(fit cur size) ~region:Address_map.Loop_area)
    loop_blocks;
  (* 4. Cold filler: coldest blocks first into the reserved holes, the
     rest after the end. *)
  let unplaced =
    List.filter
      (fun b -> (not (Address_map.is_placed map b)) && not (exclude b))
      (List.init (Graph.block_count g) Fun.id)
  in
  let coldest =
    List.sort
      (fun a b -> compare (p.Profile.block.(a), a) (p.Profile.block.(b), b))
      unplaced
  in
  let holes = ref (List.rev_map (fun (start, size) -> (start, size)) cur.holes) in
  let place_cold b =
    let size = (Graph.block g b).Block.size in
    let rec try_holes acc = function
      | [] ->
          holes := List.rev acc;
          Address_map.place map b ~addr:(fit cur size) ~region:Address_map.Cold
      | (start, avail) :: rest when avail >= size ->
          Address_map.place map b ~addr:start ~region:Address_map.Cold;
          let remaining = (start + size, avail - size) in
          holes := List.rev_append acc (remaining :: rest)
      | hole :: rest -> try_holes (hole :: acc) rest
    in
    try_holes [] !holes
  in
  List.iter place_cold coldest;
  { Opt.map; sequences; scf_blocks; scf_bytes; loop_blocks }

let layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule ?(exclude = fun _ -> false)
    ?(follow_calls = true) params =
  let sequences = Sequence.build ~graph:g ~profile:p ~seed_entry ~schedule ~follow_calls () in
  let select_scf cutoff = Scf.select ~graph:g ~profile:p ~loops ~cutoff in
  let loop_infos () = Loopstat.analyze g p loops in
  try assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude params
  with No_room ->
    assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude
      { params with Opt.scf_holes = false }

let app_schedule =
  Schedule.uniform ~levels:[ (1e-3, 0.4); (1e-4, 0.1); (1e-7, 0.01); (0.0, 0.0) ]

let app_layout ~app ~profile ~stagger:k ~addr_skew (params : Opt.params) =
  let g = app.App_model.graph in
  let c = params.Opt.cache_size in
  let target = (c / 2) + (k * c / 4 mod (c / 2)) in
  let start = ((target - addr_skew) mod c + c) mod c in
  let params =
    { params with Opt.scf_cutoff = None; extract_loops = true; start_offset = start }
  in
  layout ~graph:g ~profile ~loops:(Loops.find g)
    ~seed_entry:(fun _ -> Graph.entry_of g app.App_model.main)
    ~schedule:app_schedule params

(* Address_map.blocks_by_addr and Address_map.validate, through the map's
   accessors. *)
let blocks_by_addr t =
  let blocks =
    Array.of_seq
      (Seq.filter (Address_map.is_placed t)
         (Seq.init (Graph.block_count (Address_map.graph t)) Fun.id))
  in
  Array.sort (fun a b -> compare (Address_map.addr t a) (Address_map.addr t b)) blocks;
  blocks

(* Every placed block as an (address, id) pair, the list sorted, then the
   first pair of neighbours where a block starts before the one below it
   ends.  Ties sort by id, as Address_map's sort keeps them, so both name
   the same first overlapping pair. *)
let validate t =
  let g = Address_map.graph t in
  let n = Graph.block_count g in
  if Address_map.placed_count t <> n then
    failwith (Printf.sprintf "Address_map: %d of %d blocks placed" (Address_map.placed_count t) n);
  let size b = (Graph.block g b).Block.size in
  let rec scan = function
    | (prev_addr, prev) :: ((a, b) :: _ as rest) ->
        if a < prev_addr + size prev then
          failwith (Printf.sprintf "Address_map: blocks %d and %d overlap at %d" prev b a);
        scan rest
    | [ _ ] | [] -> ()
  in
  scan (List.sort compare (List.init n (fun b -> (Address_map.addr t b, b))))
