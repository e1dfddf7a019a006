type code_map = { addr : int array array; bytes : int array array }

type t = {
  owner : int array;
  addr : int array;
  last : int array;
  mutable len : int;
  mutable os_words : int;
  mutable app_words : int;
}

let size = 4096

let create n =
  {
    owner = Array.make n 0;
    addr = Array.make n 0;
    last = Array.make n 0;
    len = 0;
    os_words = 0;
    app_words = 0;
  }

let words ~addr ~last =
  let bytes = last - addr + 1 in
  if bytes <= 4 then 1 else bytes lsr 2

(* The one place an (image, block) pair becomes an address range.  The
   map reads stay bounds-checked: a block id the placement does not know
   fails here, not inside a kernel's unchecked loads. *)
let fill c (map : code_map) cursor n =
  let len = Trace.read_exec cursor c.owner n in
  let owner = c.owner and first = c.addr and last = c.last in
  let os_words = ref 0 and app_words = ref 0 in
  for i = 0 to len - 1 do
    let o = Array.unsafe_get owner i in
    let image = o land 7 and block = o lsr 3 in
    let a = map.addr.(image).(block) in
    let l = a + map.bytes.(image).(block) - 1 in
    Array.unsafe_set first i a;
    Array.unsafe_set last i l;
    if image = 0 then os_words := !os_words + words ~addr:a ~last:l
    else app_words := !app_words + words ~addr:a ~last:l
  done;
  c.len <- len;
  c.os_words <- !os_words;
  c.app_words <- !app_words

let iter ~trace ~map ~boundary f =
  let c = create size and cursor = Trace.cursor trace in
  let fed = ref 0 and more = ref true in
  while !more do
    fill c map cursor (if !fed < boundary then min size (boundary - !fed) else size);
    if c.len = 0 then more := false
    else begin
      fed := !fed + c.len;
      f c !fed
    end
  done

let single ~image ~block ~addr ~bytes =
  if image < 0 || image > 5 then invalid_arg "Chunk.single: image must be in 0..5";
  let last = addr + bytes - 1 in
  let w = words ~addr ~last in
  {
    owner = [| (block lsl 3) lor image |];
    addr = [| addr |];
    last = [| last |];
    len = 1;
    os_words = (if image = 0 then w else 0);
    app_words = (if image = 0 then 0 else w);
  }
