type t = {
  blocks : Block.t array;
  arcs : Arc.t array;
  routines : Routine.t array;
  out_arcs : Arc.id array array;
  in_arcs : Arc.id array array;
  callers : Block.id array array;
  code_bytes : int;
  sizes : int array;
  words : int array;
  digest : string Atomic.t;  (* "" until the first {!digest} *)
}

type builder = {
  mutable names : string list; (* reverse order *)
  mutable routine_n : int;
  mutable blocks_rev : Block.t list;
  mutable block_n : int;
  mutable arcs_rev : Arc.t list;
  mutable arc_n : int;
  block_routine : (Block.id, int) Hashtbl.t;
}

let builder () =
  {
    names = [];
    routine_n = 0;
    blocks_rev = [];
    block_n = 0;
    arcs_rev = [];
    arc_n = 0;
    block_routine = Hashtbl.create 256;
  }

let declare_routine b name =
  let id = b.routine_n in
  b.names <- name :: b.names;
  b.routine_n <- id + 1;
  id

let add_block b ~routine ~size ?call () =
  if size <= 0 then invalid_arg "Graph.add_block: size must be positive";
  if routine < 0 || routine >= b.routine_n then
    invalid_arg "Graph.add_block: unknown routine";
  let id = b.block_n in
  b.blocks_rev <- { Block.id; routine; size; call } :: b.blocks_rev;
  Hashtbl.replace b.block_routine id routine;
  b.block_n <- id + 1;
  id

let add_arc b ~src ~dst kind =
  if src < 0 || src >= b.block_n || dst < 0 || dst >= b.block_n then
    invalid_arg "Graph.add_arc: unknown block";
  if Hashtbl.find b.block_routine src <> Hashtbl.find b.block_routine dst then
    invalid_arg "Graph.add_arc: arc crosses routine boundary";
  let id = b.arc_n in
  b.arcs_rev <- { Arc.id; src; dst; kind } :: b.arcs_rev;
  b.arc_n <- id + 1;
  id

let group_by_index ~count ~items ~index =
  let buckets = Array.make count [] in
  List.iter (fun item -> buckets.(index item) <- item :: buckets.(index item)) items;
  (* items arrive in reverse insertion order, so the cons above restores
     insertion order. *)
  Array.map Array.of_list buckets

let freeze b =
  let blocks = Array.of_list (List.rev b.blocks_rev) in
  let arcs = Array.of_list (List.rev b.arcs_rev) in
  Array.iter
    (fun (a : Arc.t) ->
      if blocks.(a.src).Block.routine <> blocks.(a.dst).Block.routine then
        invalid_arg "Graph.freeze: arc crosses routine boundary")
    arcs;
  Array.iter
    (fun (blk : Block.t) ->
      match blk.Block.call with
      | Some r when r < 0 || r >= b.routine_n ->
          invalid_arg "Graph.freeze: call to undeclared routine"
      | Some _ | None -> ())
    blocks;
  let routine_blocks = Array.make b.routine_n [] in
  (* blocks_rev is reverse insertion order; cons restores insertion order. *)
  List.iter
    (fun (blk : Block.t) ->
      routine_blocks.(blk.Block.routine) <- blk.Block.id :: routine_blocks.(blk.Block.routine))
    b.blocks_rev;
  let names = Array.of_list (List.rev b.names) in
  let routines =
    Array.init b.routine_n (fun id ->
        match routine_blocks.(id) with
        | [] -> invalid_arg (Printf.sprintf "Graph.freeze: routine %s has no blocks" names.(id))
        | entry :: _ as all ->
            { Routine.id; name = names.(id); entry; blocks = Array.of_list all })
  in
  let out_arcs =
    group_by_index ~count:(Array.length blocks) ~items:b.arcs_rev
      ~index:(fun (a : Arc.t) -> a.src)
    |> Array.map (Array.map (fun (a : Arc.t) -> a.Arc.id))
  in
  let in_arcs =
    group_by_index ~count:(Array.length blocks) ~items:b.arcs_rev
      ~index:(fun (a : Arc.t) -> a.dst)
    |> Array.map (Array.map (fun (a : Arc.t) -> a.Arc.id))
  in
  let caller_items =
    List.filter (fun (blk : Block.t) -> Option.is_some blk.Block.call) b.blocks_rev
  in
  let callers =
    group_by_index ~count:b.routine_n ~items:caller_items
      ~index:(fun (blk : Block.t) -> Option.get blk.Block.call)
    |> Array.map (Array.map (fun (blk : Block.t) -> blk.Block.id))
  in
  let sizes = Array.map (fun (blk : Block.t) -> blk.Block.size) blocks in
  let code_bytes = Array.fold_left ( + ) 0 sizes in
  let words = Array.map Block.instruction_words blocks in
  {
    blocks;
    arcs;
    routines;
    out_arcs;
    in_arcs;
    callers;
    code_bytes;
    sizes;
    words;
    digest = Atomic.make "";
  }

let block_count t = Array.length t.blocks
let arc_count t = Array.length t.arcs
let routine_count t = Array.length t.routines
let block t id = t.blocks.(id)
let arc t id = t.arcs.(id)
let routine t id = t.routines.(id)
let out_arcs t id = t.out_arcs.(id)
let in_arcs t id = t.in_arcs.(id)
let is_exit t id = Array.length t.out_arcs.(id) = 0
let entry_of t r = t.routines.(r).Routine.entry
let code_bytes t = t.code_bytes
let routine_of_block t id = t.blocks.(id).Block.routine
let iter_blocks t f = Array.iter f t.blocks
let iter_routines t f = Array.iter f t.routines
let iter_arcs t f = Array.iter f t.arcs
let callers t r = t.callers.(r)
let fold_blocks t ~init ~f = Array.fold_left f init t.blocks
let block_sizes t = t.sizes
let block_words t = t.words

(* The other fields are functions of blocks, arcs and routines.  Racing
   first calls compute the same string, so a plain write-once slot will do. *)
let digest t =
  match Atomic.get t.digest with
  | "" ->
      let d = Memo.digest (t.blocks, t.arcs, t.routines) in
      Atomic.set t.digest d;
      d
  | d -> d
