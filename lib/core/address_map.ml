type region = Main_seq | Self_conf_free | Loop_area | Other_seq | Cold

let region_to_string = function
  | Main_seq -> "MainSeq"
  | Self_conf_free -> "SelfConfFree"
  | Loop_area -> "Loops"
  | Other_seq -> "OtherSeq"
  | Cold -> "Cold"

(* A map keeps each block's region as one byte: its index in [regions]. *)
let regions = [| Main_seq; Self_conf_free; Loop_area; Other_seq; Cold |]
let region_code = function
  | Main_seq -> 0 | Self_conf_free -> 1 | Loop_area -> 2 | Other_seq -> 3 | Cold -> 4

(* [blocks_by_addr] sorts [addr lsl id_bits lor id] keys, so an address
   and an id must share one non-negative int. *)
let id_bits = 22
let addr_limit = 1 lsl (Sys.int_size - 1 - id_bits)
let id_of key = key land ((1 lsl id_bits) - 1)

type t = {
  graph : Graph.t;
  addr : int array;
  region : Bytes.t;
  mutable extent : int;
  mutable placed : int;
  mutable digest : string option;  (* [Some] once validated: the map is sealed *)
}

let create g =
  if Graph.block_count g > 1 lsl id_bits then invalid_arg "Address_map.create: too many blocks";
  {
    graph = g;
    addr = Array.make (Graph.block_count g) (-1);
    region = Bytes.make (Graph.block_count g) (Char.chr (region_code Cold));
    extent = 0;
    placed = 0;
    digest = None;
  }

let is_placed t b = t.addr.(b) >= 0

let place t b ~addr ~region =
  if Option.is_some t.digest then invalid_arg "Address_map.place: map is sealed";
  if addr < 0 || addr >= addr_limit then invalid_arg "Address_map.place: address out of range";
  if is_placed t b then invalid_arg "Address_map.place: block already placed";
  t.addr.(b) <- addr;
  Bytes.set_uint8 t.region b (region_code region);
  t.placed <- t.placed + 1;
  let hi = addr + (Graph.block_sizes t.graph).(b) in
  if hi > t.extent then t.extent <- hi

let addr t b =
  if not (is_placed t b) then invalid_arg "Address_map.addr: block not placed";
  t.addr.(b)

let region t b = regions.(Bytes.get_uint8 t.region b)

let extent t = t.extent

let placed_count t = t.placed

let graph t = t.graph

let radix_bits = 11

(* The placed blocks' [addr lsl id_bits lor id] keys, collected in id order
   and sorted stably on the address digits only, one LSD radix pass per
   [radix_bits] digit of the highest address: ties keep id order. *)
let sorted_keys t =
  let keys = Array.make t.placed 0 and k = ref 0 and top = ref 0 in
  for b = 0 to Array.length t.addr - 1 do
    let a = t.addr.(b) in
    if a >= 0 then begin
      keys.(!k) <- (a lsl id_bits) lor b;
      incr k;
      top := Int.max !top a
    end
  done;
  let mask = (1 lsl radix_bits) - 1 in
  let count = Array.make (mask + 1) 0 in
  let rec pass src dst shift =
    if !top lsr shift = 0 then src
    else begin
      let s = id_bits + shift in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to t.placed - 1 do
        let x = (src.(i) lsr s) land mask in
        count.(x) <- count.(x) + 1
      done;
      (* Counts become each digit's first slot. *)
      let at = ref 0 in
      Array.iteri (fun x c -> count.(x) <- !at; at := !at + c) count;
      for i = 0 to t.placed - 1 do
        let x = (src.(i) lsr s) land mask in
        dst.(count.(x)) <- src.(i);
        count.(x) <- count.(x) + 1
      done;
      pass dst src (shift + radix_bits)
    end
  in
  pass keys (Array.make t.placed 0) 0

let blocks_by_addr t = Array.map id_of (sorted_keys t)

let addr_array t = Array.copy t.addr

let bytes_array t = Array.copy (Graph.block_sizes t.graph)

let validate t =
  let n = Graph.block_count t.graph and size = Graph.block_sizes t.graph in
  if t.placed <> n then
    failwith (Printf.sprintf "Address_map: %d of %d blocks placed" t.placed n);
  let keys = sorted_keys t in
  for i = 1 to n - 1 do
    let prev = keys.(i - 1) and key = keys.(i) in
    let a = key lsr id_bits and p = id_of prev in
    if a < (prev lsr id_bits) + size.(p) then
      failwith (Printf.sprintf "Address_map: blocks %d and %d overlap at %d" p (id_of key) a)
  done;
  if Option.is_none t.digest then t.digest <- Some (Memo.digest (t.addr, size))

let digest t =
  match t.digest with
  | Some d -> d
  | None -> invalid_arg "Address_map.digest: map not validated"

let sealed_addr t =
  if Option.is_none t.digest then invalid_arg "Address_map.sealed_addr: map not validated";
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
