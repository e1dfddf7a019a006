(* Text serialization of a code placement, in the spirit of a linker map:
   one line per block, sorted by address, with the owning routine and the
   Figure 13 region.  The format round-trips so a layout computed once can
   be re-simulated later or inspected with ordinary text tools.

     # icache-opt layout v1
     # addr  size  block  region  routine
     0x000000 24 1042 SelfConfFree intr_entry
     ... *)

let format_version = "icache-opt layout v1"

let region_of_string = function
  | "MainSeq" -> Address_map.Main_seq
  | "SelfConfFree" -> Address_map.Self_conf_free
  | "Loops" -> Address_map.Loop_area
  | "OtherSeq" -> Address_map.Other_seq
  | "Cold" -> Address_map.Cold
  | other -> invalid_arg (Printf.sprintf "Layout_file: unknown region %S" other)

let to_string ~graph:g map =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# %s\n# addr size block region routine\n" format_version;
  Array.iter
    (fun b ->
      let blk = Graph.block g b in
      Printf.bprintf buf "0x%06x %d %d %s %s\n" (Address_map.addr map b) blk.Block.size b
        (Address_map.region_to_string (Address_map.region map b))
        (Graph.routine g blk.Block.routine).Routine.name)
    (Address_map.blocks_by_addr map);
  Buffer.contents buf

let write_channel oc ~graph map = output_string oc (to_string ~graph map)

let save path ~graph map =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel oc ~graph map)

let parse_line lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | addr :: size :: block :: region :: _routine ->
      let num s =
        match int_of_string_opt s with
        | Some v -> v
        | None ->
            invalid_arg (Printf.sprintf "Layout_file: line %d: bad number %S" lineno s)
      in
      (num addr, num size, num block, region_of_string region)
  | _ -> invalid_arg (Printf.sprintf "Layout_file: line %d: malformed" lineno)

let of_string ~graph:g s =
  let map = Address_map.create g in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let addr, size, block, region = parse_line (i + 1) line in
        if block < 0 || block >= Graph.block_count g then
          invalid_arg (Printf.sprintf "Layout_file: line %d: block %d out of range" (i + 1) block);
        if (Graph.block g block).Block.size <> size then
          invalid_arg
            (Printf.sprintf "Layout_file: line %d: block %d has size %d, file says %d"
               (i + 1) block (Graph.block g block).Block.size size);
        Address_map.place map block ~addr ~region
      end)
    lines;
  Address_map.validate map;
  map

let load path ~graph =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string ~graph s)
