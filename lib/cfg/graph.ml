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

(* The builder keeps blocks and arcs as columns of growable int arrays
   (a block's call is -1 when it ends in none), so building allocates
   nothing per block beyond the occasional doubling; {!freeze} makes the
   records. *)
type builder = {
  mutable names : string array;
  mutable routine_n : int;
  mutable block_routine : int array;
  mutable block_size : int array;
  mutable block_call : int array;
  mutable block_n : int;
  mutable arc_src : int array;
  mutable arc_dst : int array;
  mutable arc_kind : Arc.kind array;
  mutable arc_n : int;
}

let builder () =
  {
    names = Array.make 16 "";
    routine_n = 0;
    block_routine = Array.make 64 0;
    block_size = Array.make 64 0;
    block_call = Array.make 64 0;
    block_n = 0;
    arc_src = Array.make 64 0;
    arc_dst = Array.make 64 0;
    arc_kind = Array.make 64 Arc.Fallthrough;
    arc_n = 0;
  }

(* [a] doubled, keeping its first [n] elements. *)
let grow a n fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 n;
  a'

let declare_routine b name =
  let id = b.routine_n in
  if id = Array.length b.names then b.names <- grow b.names id "";
  b.names.(id) <- name;
  b.routine_n <- id + 1;
  id

let add_block b ~routine ~size ?call () =
  if size <= 0 then invalid_arg "Graph.add_block: size must be positive";
  if routine < 0 || routine >= b.routine_n then
    invalid_arg "Graph.add_block: unknown routine";
  let id = b.block_n in
  if id = Array.length b.block_size then begin
    b.block_routine <- grow b.block_routine id 0;
    b.block_size <- grow b.block_size id 0;
    b.block_call <- grow b.block_call id 0
  end;
  b.block_routine.(id) <- routine;
  b.block_size.(id) <- size;
  (* A negative callee stays negative but never -1, so {!freeze} rejects it. *)
  b.block_call.(id) <- (match call with None -> -1 | Some r -> if r < 0 then min_int else r);
  b.block_n <- id + 1;
  id

let add_arc b ~src ~dst kind =
  if src < 0 || src >= b.block_n || dst < 0 || dst >= b.block_n then
    invalid_arg "Graph.add_arc: unknown block";
  if b.block_routine.(src) <> b.block_routine.(dst) then
    invalid_arg "Graph.add_arc: arc crosses routine boundary";
  let id = b.arc_n in
  if id = Array.length b.arc_src then begin
    b.arc_src <- grow b.arc_src id 0;
    b.arc_dst <- grow b.arc_dst id 0;
    b.arc_kind <- grow b.arc_kind id Arc.Fallthrough
  end;
  b.arc_src.(id) <- src;
  b.arc_dst.(id) <- dst;
  b.arc_kind.(id) <- kind;
  b.arc_n <- id + 1;
  id

(* Groups the ids [0, n) by [key.(id)] (skipping negative keys) into
   [count] arrays, one count pass and one fill pass, so each group lists
   its ids in ascending order. *)
let group ~count ~n key =
  let sizes = Array.make count 0 in
  for i = 0 to n - 1 do
    let k = key.(i) in
    if k >= 0 then sizes.(k) <- sizes.(k) + 1
  done;
  let groups = Array.map (fun len -> Array.make len 0) sizes in
  Array.fill sizes 0 count 0;
  for i = 0 to n - 1 do
    let k = key.(i) in
    if k >= 0 then begin
      groups.(k).(sizes.(k)) <- i;
      sizes.(k) <- sizes.(k) + 1
    end
  done;
  groups

let freeze b =
  let n = b.block_n and m = b.arc_n and rn = b.routine_n in
  for a = 0 to m - 1 do
    if b.block_routine.(b.arc_src.(a)) <> b.block_routine.(b.arc_dst.(a)) then
      invalid_arg "Graph.freeze: arc crosses routine boundary"
  done;
  for i = 0 to n - 1 do
    let c = b.block_call.(i) in
    if c < -1 || c >= rn then invalid_arg "Graph.freeze: call to undeclared routine"
  done;
  let routine_blocks = group ~count:rn ~n b.block_routine in
  let routines =
    Array.init rn (fun id ->
        let blocks = routine_blocks.(id) in
        if Array.length blocks = 0 then
          invalid_arg (Printf.sprintf "Graph.freeze: routine %s has no blocks" b.names.(id));
        { Routine.id; name = b.names.(id); entry = blocks.(0); blocks })
  in
  (* One [Some r] per callee, shared by all its call blocks. *)
  let some = Array.init rn Option.some in
  let blocks =
    Array.init n (fun id ->
        let c = b.block_call.(id) in
        {
          Block.id;
          routine = b.block_routine.(id);
          size = b.block_size.(id);
          call = (if c < 0 then None else some.(c));
        })
  in
  let arcs =
    Array.init m (fun id ->
        { Arc.id; src = b.arc_src.(id); dst = b.arc_dst.(id); kind = b.arc_kind.(id) })
  in
  let sizes = Array.sub b.block_size 0 n in
  let code_bytes = Array.fold_left ( + ) 0 sizes in
  let words = Array.map Block.instruction_words blocks in
  {
    blocks;
    arcs;
    routines;
    out_arcs = group ~count:n ~n:m b.arc_src;
    in_arcs = group ~count:n ~n:m b.arc_dst;
    callers = group ~count:rn ~n b.block_call;
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
