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

(* Each domain's scratch for the sort and the digest: the two key arrays,
   the digit counts and the digest's byte buffer.  They grow as a larger
   graph needs and never shrink, so a domain that has sealed one map of a
   graph's size seals the next allocating nothing per block. *)
type scratch = {
  mutable keys : int array;
  mutable spare : int array;
  count : int array;
  mutable buf : Bytes.t;
}

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { keys = [||]; spare = [||]; count = Array.make (1 lsl radix_bits) 0; buf = Bytes.empty })

(* The placed blocks' [addr lsl id_bits lor id] keys, collected in id
   order and sorted stably on the address digits only, one LSD radix pass
   per [radix_bits] digit of the highest address: ties keep id order.
   Returns the scratch array holding the [t.placed] sorted keys, valid
   until the domain's next sort, and the highest address. *)
let sorted_keys t =
  let s = Domain.DLS.get scratch and n = t.placed in
  if Array.length s.keys < n then begin
    s.keys <- Array.make n 0;
    s.spare <- Array.make n 0
  end;
  let keys = s.keys and k = ref 0 and top = ref 0 in
  for b = 0 to Array.length t.addr - 1 do
    let a = Array.unsafe_get t.addr b in
    if a >= 0 then begin
      keys.(!k) <- (a lsl id_bits) lor b;
      incr k;
      top := Int.max !top a
    end
  done;
  let top = !top and mask = (1 lsl radix_bits) - 1 and count = s.count in
  let rec pass src dst shift =
    if top lsr shift = 0 then src
    else begin
      let d = id_bits + shift in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to n - 1 do
        let x = (Array.unsafe_get src i lsr d) land mask in
        Array.unsafe_set count x (Array.unsafe_get count x + 1)
      done;
      (* Counts become each digit's first slot. *)
      let at = ref 0 in
      Array.iteri (fun x c -> count.(x) <- !at; at := !at + c) count;
      for i = 0 to n - 1 do
        let key = Array.unsafe_get src i in
        let x = (key lsr d) land mask in
        let at = Array.unsafe_get count x in
        Array.unsafe_set dst at key;
        Array.unsafe_set count x (at + 1)
      done;
      pass dst src (shift + radix_bits)
    end
  in
  (pass keys s.spare 0, top)

let blocks_by_addr t =
  let keys, _ = sorted_keys t in
  Array.init t.placed (fun i -> id_of keys.(i))

let addr_array t = Array.copy t.addr

let bytes_array t = Array.copy (Graph.block_sizes t.graph)

(* MD5 of the graph's digest, which covers every block size, one byte
   holding the address width [w], and every block's address in id order
   as [w] little-endian bytes, [w] the fewest of 3, 4 or 8 that hold the
   highest address [top].  The graph fixes the block count, so for one
   graph the bytes determine the addresses.  The bytes are written into
   the domain's scratch buffer and hashed in place. *)
let content_digest t ~top =
  let g = Graph.digest t.graph and addr = t.addr in
  let w = if top < 1 lsl 24 then 3 else if top < 1 lsl 32 then 4 else 8 in
  let h = String.length g + 1 and n = Array.length addr in
  let len = h + (w * n) and s = Domain.DLS.get scratch in
  if Bytes.length s.buf < len then s.buf <- Bytes.create len;
  let buf = s.buf in
  Bytes.blit_string g 0 buf 0 (h - 1);
  Bytes.set_uint8 buf (h - 1) w;
  for b = 0 to n - 1 do
    let a = Array.unsafe_get addr b and at = h + (w * b) in
    for i = 0 to w - 1 do
      Bytes.set_uint8 buf (at + i) ((a lsr (8 * i)) land 0xff)
    done
  done;
  Digest.to_hex (Digest.subbytes buf 0 len)

(* Non-overlap in one scan over the sorted keys, which carry the
   addresses; returns the highest address. *)
let check_overlap t =
  let size = Graph.block_sizes t.graph in
  let keys, top = sorted_keys t in
  for i = 1 to t.placed - 1 do
    let prev = Array.unsafe_get keys (i - 1) and key = Array.unsafe_get keys i in
    let a = key lsr id_bits and p = id_of prev in
    if a < (prev lsr id_bits) + Array.unsafe_get size p then
      failwith (Printf.sprintf "Address_map: blocks %d and %d overlap at %d" p (id_of key) a)
  done;
  top

let validate t =
  let n = Graph.block_count t.graph in
  if t.placed <> n then
    failwith (Printf.sprintf "Address_map: %d of %d blocks placed" t.placed n);
  if Option.is_some t.digest then ignore (check_overlap t)
  else
    Trace_log.with_span "address_map.seal" (fun () ->
        let top = check_overlap t in
        t.digest <- Some (content_digest t ~top))

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
