type params = {
  cache_size : int;
  scf_cutoff : float option;
  extract_loops : bool;
  start_offset : int;
  scf_holes : bool;
}

let params ?(cache_size = 8192) ?(scf_cutoff = Some 0.5) ?(extract_loops = false)
    ?(scf_holes = true) () =
  {
    cache_size;
    scf_cutoff;
    extract_loops;
    start_offset = 0;
    scf_holes;
  }

let min_loop_iterations = 6.0

type result = {
  map : Address_map.t;
  sequences : Sequence.t list;
  scf_blocks : Block.id list;
  scf_bytes : int;
  loop_blocks : Block.id list;
}

(* Cursor over memory organized as logical caches of size [cache] whose
   lowest [hole] bytes (beyond the first logical cache) are reserved.
   Records the holes it skips so they can be filled with cold code; the
   cursor only moves up, so each hole is recorded once. *)
type cursor = {
  cache : int;
  hole : int;
  mutable at : int;
  mutable holes : int list;  (* starts of [hole]-byte spans, reverse order *)
}

let cursor ~cache ~hole ~start = { cache; hole; at = start; holes = [] }

(* [fit] cannot place a block that has no room beside the hole in any
   logical cache ([hole + size > cache]) and does not end inside the
   first one: it would skip holes forever. *)
exception No_room

let rec fit c size =
  if c.hole > 0 && c.hole + size > c.cache && c.at + size > c.cache then raise No_room;
  let off = c.at mod c.cache in
  if c.hole > 0 && c.at >= c.cache && off < c.hole then begin
    (* Entering a reserved hole: skip it, remembering the span. *)
    let start = c.at - off in
    c.holes <- start :: c.holes;
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

(* ------------------------------------------------------------------ *)
(* Staged construction                                                *)
(* ------------------------------------------------------------------ *)

(* The layout decomposes into stages with strictly shrinking input sets
   (Layout_cache's doc lists them), each memoized on a digest of exactly
   what it consumes.  Creation order below is pipeline order, which is
   also the order the run manifest reports. *)

let seq_stage : Sequence.t list Layout_cache.stage = Layout_cache.stage "sequences"

let scf_stage : Block.id list Layout_cache.stage = Layout_cache.stage "scf"

let loop_mark_stage : Loopstat.info list Layout_cache.stage =
  Layout_cache.stage "loop_mark"

let place_stage : result Layout_cache.stage = Layout_cache.stage "place"

(* Assemble a layout from the (individually cached) stage outputs.  This
   is the original monolithic construction, with sequence construction,
   raw SCF selection and the Loopstat pass factored out so they can be
   shared across parameter sweeps. *)
let assemble_once ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude params =
  let scf_blocks, scf_bytes =
    match params.scf_cutoff with
    | None -> ([], 0)
    | Some cutoff ->
        let blocks = List.filter (fun b -> not (exclude b)) (select_scf cutoff) in
        (blocks, Scf.bytes g blocks)
  in
  (* One mark per block: 's' in the SelfConfFree area, 'l' in a
     qualifying loop's body (loop extraction), '\000' neither. *)
  let n = Graph.block_count g and size = Graph.block_sizes g in
  let mark = Bytes.make n '\000' in
  List.iter (fun b -> Bytes.set mark b 's') scf_blocks;
  if params.extract_loops then begin
    let infos = loop_infos () in
    List.iter
      (fun (i : Loopstat.info) ->
        if i.Loopstat.iterations_per_invocation >= min_loop_iterations then
          Array.iter
            (fun b -> if Bytes.get mark b <> 's' && not (exclude b) then Bytes.set mark b 'l')
            i.Loopstat.loop.Loops.body)
      infos
  end;
  let map = Address_map.create g in
  (* 1. SelfConfFree area at the bottom of the first logical cache. *)
  let scf_cursor = ref params.start_offset in
  List.iter
    (fun b ->
      Address_map.place map b ~addr:!scf_cursor ~region:Address_map.Self_conf_free;
      scf_cursor := !scf_cursor + size.(b))
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
          match Bytes.get mark b with
          | 's' -> ()
          | 'l' -> loop_order := b :: !loop_order
          | _ ->
              if not (exclude b) then
                Address_map.place map b ~addr:(fit cur size.(b)) ~region)
        s.Sequence.blocks)
    sequences;
  (* 3. Loop area at the end of the sequences, same internal order. *)
  let loop_blocks = List.rev !loop_order in
  List.iter
    (fun b -> Address_map.place map b ~addr:(fit cur size.(b)) ~region:Address_map.Loop_area)
    loop_blocks;
  (* 4. Cold filler: coldest blocks first (ties by id) into the reserved
     holes, first fit, the rest after the end.  The zero-count blocks,
     usually all of them, are placed in one scan over ids; only the rest
     are sorted. *)
  let count b = p.Profile.block.(b) in
  let cold b = not (Address_map.is_placed map b || exclude b) in
  let others = ref [] in
  for b = n - 1 downto 0 do if cold b && count b <> 0.0 then others := b :: !others done;
  let below, above =
    List.stable_sort (fun a b -> Float.compare (count a) (count b)) !others
    |> List.partition (fun b -> Float.compare (count b) 0.0 < 0)
  in
  (* [next.(i)] is hole i's next free byte.  [room] is a tree over the
     holes: leaf [leaves + i] holds hole i's room left (-1 past the last
     hole) and node k the largest room under it, so the leftmost hole
     that fits is one descent away. *)
  let next = Array.of_list (List.rev cur.holes) in
  let rec pow2 k = if k >= Array.length next then k else pow2 (2 * k) in
  let leaves = pow2 1 in
  let room = Array.make (2 * leaves) (-1) in
  Array.fill room leaves (Array.length next) cur.hole;
  let up k = room.(k) <- Int.max room.(2 * k) room.((2 * k) + 1) in
  for k = leaves - 1 downto 1 do up k done;
  let rec refresh k = if k >= 1 then (up k; refresh (k / 2)) in
  let rec leaf size k =
    if k >= leaves then k else leaf size (if room.(2 * k) >= size then 2 * k else (2 * k) + 1) in
  let place_cold b =
    let size = size.(b) in
    if room.(1) < size then Address_map.place map b ~addr:(fit cur size) ~region:Address_map.Cold
    else begin
      let k = leaf size 1 in
      let i = k - leaves in
      Address_map.place map b ~addr:next.(i) ~region:Address_map.Cold;
      next.(i) <- next.(i) + size;
      room.(k) <- room.(k) - size;
      refresh (k / 2)
    end
  in
  List.iter place_cold below;
  for b = 0 to n - 1 do if cold b && count b = 0.0 then place_cold b done;
  List.iter place_cold above;
  { map; sequences; scf_blocks; scf_bytes; loop_blocks }

(* The totality rule of opt.mli: holes that leave a block no room are
   dropped, and the layout is built again without them. *)
let assemble ~graph ~profile ~sequences ~select_scf ~loop_infos ~exclude params =
  let once = assemble_once ~graph ~profile ~sequences ~select_scf ~loop_infos ~exclude in
  try once params with No_room -> once { params with scf_holes = false }

let layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule ?exclude
    ?(follow_calls = true) params =
  let gd = Graph.digest g in
  let pd = Profile.digest p in
  let ld = Layout_cache.loops_digest g loops in
  (* Sequence construction consumes [seed_entry] only through the seed
     block of each pass, so materializing those blocks turns the function
     into digestible data. *)
  let seeds =
    List.map (fun (pass : Schedule.pass) -> seed_entry pass.Schedule.service) schedule
  in
  let seq_key =
    Memo.digest (gd, pd, (schedule : Schedule.pass list), follow_calls, (seeds : Block.id list))
  in
  let sequences =
    Layout_cache.find_or_build seq_stage ~key:seq_key (fun () ->
        Sequence.build ~graph:g ~profile:p ~seed_entry ~schedule ~follow_calls ())
  in
  (* SCF selection and the Loopstat pass are cached on their raw
     (exclusion-free) outputs; [assemble] applies the exclusion filter and
     iteration threshold afterwards, so a Call-optimization build with a
     custom [exclude] still shares them. *)
  let select_scf cutoff =
    Layout_cache.find_or_build scf_stage ~key:(Memo.digest (gd, pd, ld, cutoff)) (fun () ->
        Scf.select ~graph:g ~profile:p ~loops ~cutoff)
  in
  let loop_infos () =
    Layout_cache.find_or_build loop_mark_stage ~key:(Memo.digest (gd, pd, ld)) (fun () ->
        Loopstat.analyze g p loops)
  in
  match exclude with
  | Some exclude ->
      (* The exclusion predicate is opaque, so the assembled result is not
         content-addressable; only the sub-stages are shared. *)
      assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude params
  | None ->
      (* [seq_key] covers graph and profile, [ld] the loop set, and the
         parameter record everything geometry-dependent, so together they
         determine the whole placement. *)
      let place_key = Memo.digest (seq_key, ld, (params : params)) in
      Layout_cache.find_or_build place_stage ~key:place_key (fun () ->
          let r =
            assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos
              ~exclude:(fun _ -> false)
              params
          in
          (* Validate, and so seal, once per actual construction: a
             placement served from the place cache was sealed when it was
             built.  The exclude path above returns an unsealed map, since
             its caller (Call_opt) still places the blocks it claimed and
             then validates. *)
          Address_map.validate r.map;
          r)

let os_layout ?(schedule = Schedule.paper) ?(follow_calls = true) ~model ~profile ~loops
    params =
  let seed_entry c = (Model.seed_for model c).Model.entry in
  layout ~graph:model.Model.graph ~profile ~loops ~seed_entry ~schedule ~follow_calls
    params

let app_schedule =
  Schedule.uniform ~levels:[ (1e-3, 0.4); (1e-4, 0.1); (1e-7, 0.01); (0.0, 0.0) ]

let app_layout ~app ~profile ?stagger:(k = 0) ?(addr_skew = 0) params =
  let g = app.App_model.graph in
  let loops = Layout_cache.loops g in
  let entry = Graph.entry_of g app.App_model.main in
  (* Distinct images are staggered within the cache so two compact
     optimized applications time-sharing the processor do not overlap
     set-for-set.  [addr_skew] is the image's load-address offset modulo
     the cache: the start offset compensates for it so the sequences'
     {e effective} cache position is the intended opposite-side slot. *)
  let c = params.cache_size in
  let target = (c / 2) + (k * c / 4 mod (c / 2)) in
  let start = ((target - addr_skew) mod c + c) mod c in
  let params =
    { params with scf_cutoff = None; extract_loops = true; start_offset = start }
  in
  layout ~graph:g ~profile ~loops ~seed_entry:(fun _ -> entry) ~schedule:app_schedule
    params
