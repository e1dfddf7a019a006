type region = Main_seq | Self_conf_free | Loop_area | Other_seq | Cold

let region_to_string = function
  | Main_seq -> "MainSeq"
  | Self_conf_free -> "SelfConfFree"
  | Loop_area -> "Loops"
  | Other_seq -> "OtherSeq"
  | Cold -> "Cold"

type t = {
  graph : Graph.t;
  addr : int array;
  region : region array;
  mutable extent : int;
  mutable placed : int;
  mutable digest : string option;  (* [Some] once validated: the map is sealed *)
}

let create g =
  {
    graph = g;
    addr = Array.make (Graph.block_count g) (-1);
    region = Array.make (Graph.block_count g) Cold;
    extent = 0;
    placed = 0;
    digest = None;
  }

let is_placed t b = t.addr.(b) >= 0

let place t b ~addr ~region =
  if t.digest <> None then invalid_arg "Address_map.place: map is sealed";
  if addr < 0 then invalid_arg "Address_map.place: negative address";
  if is_placed t b then invalid_arg "Address_map.place: block already placed";
  t.addr.(b) <- addr;
  t.region.(b) <- region;
  t.placed <- t.placed + 1;
  let hi = addr + (Graph.block t.graph b).Block.size in
  if hi > t.extent then t.extent <- hi

let addr t b =
  if not (is_placed t b) then invalid_arg "Address_map.addr: block not placed";
  t.addr.(b)

let region t b = t.region.(b)

let extent t = t.extent

let placed_count t = t.placed

let graph t = t.graph

let radix_bits = 11

(* Stable LSD radix sort of the placed ids (collected in id order) on
   their address, one pass per [radix_bits] digit of the highest address:
   equal addresses keep id order. *)
let blocks_by_addr t =
  let ids = Array.make t.placed 0 and k = ref 0 in
  Array.iteri (fun b a -> if a >= 0 then (ids.(!k) <- b; incr k)) t.addr;
  let top = Array.fold_left Int.max 0 t.addr and mask = (1 lsl radix_bits) - 1 in
  let count = Array.make (mask + 1) 0 in
  let rec pass src dst shift =
    if shift >= Sys.int_size || top lsr shift = 0 then src
    else begin
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to t.placed - 1 do
        let x = (t.addr.(src.(i)) lsr shift) land mask in
        count.(x) <- count.(x) + 1
      done;
      (* Counts become each digit's first slot. *)
      let at = ref 0 in
      Array.iteri (fun x c -> count.(x) <- !at; at := !at + c) count;
      for i = 0 to t.placed - 1 do
        let x = (t.addr.(src.(i)) lsr shift) land mask in
        dst.(count.(x)) <- src.(i);
        count.(x) <- count.(x) + 1
      done;
      pass dst src (shift + radix_bits)
    end
  in
  pass ids (Array.make t.placed 0) 0

let addr_array t = Array.copy t.addr

let bytes_array t = Array.copy (Graph.block_sizes t.graph)

let validate t =
  let n = Graph.block_count t.graph in
  if t.placed <> n then
    failwith (Printf.sprintf "Address_map: %d of %d blocks placed" t.placed n);
  let order = blocks_by_addr t in
  for i = 1 to n - 1 do
    let prev = order.(i - 1) and b = order.(i) in
    if t.addr.(b) < t.addr.(prev) + (Graph.block t.graph prev).Block.size then
      failwith (Printf.sprintf "Address_map: blocks %d and %d overlap at %d" prev b t.addr.(b))
  done;
  if t.digest = None then
    t.digest <- Some (Memo.digest (t.addr, Graph.block_sizes t.graph))

let digest t =
  match t.digest with
  | Some d -> d
  | None -> invalid_arg "Address_map.digest: map not validated"

let sealed_addr t =
  if t.digest = None then invalid_arg "Address_map.sealed_addr: map not validated";
  t.addr

let back_to_back g blocks ~region =
  let t = create g in
  let cursor = ref 0 in
  Seq.iter
    (fun b ->
      place t b ~addr:!cursor ~region:(region b);
      cursor := !cursor + (Graph.block g b).Block.size)
    blocks;
  validate t;
  t
