type code_map = { addr : int array array; bytes : int array array }

type side = All | Inside of int | Outside of int

type stream = {
  mutable lines : int array;
  mutable owner : int array;
  mutable len : int;
  mutable os_words : int;
  mutable app_words : int;
  mutable shift : int;
  mutable side : side;
}

type t = {
  owner : int array;
  addr : int array;
  last : int array;
  mutable len : int;
  mutable streams : stream array;
  mutable built : int;
}

let size = 4096

let create n =
  {
    owner = Array.make n 0;
    addr = Array.make n 0;
    last = Array.make n 0;
    len = 0;
    streams = [||];
    built = 0;
  }

let words ~addr ~last =
  let bytes = last - addr + 1 in
  if bytes <= 4 then 1 else bytes lsr 2

(* The one place an (image, block) pair becomes an address range.  The
   map reads stay bounds-checked: a block id the placement does not know
   fails here, not inside a kernel's unchecked loads.  A new fill
   invalidates every stream built from the last one. *)
let fill c (map : code_map) cursor n =
  let len = Trace.read_exec cursor c.owner n in
  let owner = c.owner and first = c.addr and last = c.last in
  for i = 0 to len - 1 do
    let o = Array.unsafe_get owner i in
    let image = o land 7 and block = o lsr 3 in
    let a = map.addr.(image).(block) in
    Array.unsafe_set first i a;
    Array.unsafe_set last i (a + map.bytes.(image).(block) - 1)
  done;
  c.len <- len;
  c.built <- 0

(* Room for [need] entries, keeping the first [s.len]. *)
let grow s need =
  let cap = max need (2 * Array.length s.lines) in
  let lines = Array.make cap 0 and owner = Array.make cap 0 in
  Array.blit s.lines 0 lines 0 s.len;
  Array.blit s.owner 0 owner 0 s.len;
  s.lines <- lines;
  s.owner <- owner

(* The side filter and the repeat drop, in one place: an OS event below
   [limit] is inside, any other event outside.  Lines within one event
   ascend, so only an event's first line can repeat the entry before it;
   [prev] is the last line kept, -1 before the first (tags are never
   negative).  The buffers live in locals between the rare grows, and
   the repeat test is arithmetic rather than a branch: half the events
   repeat, unpredictably. *)
let build (c : t) s ~shift ~side =
  let all = match side with All -> true | Inside _ | Outside _ -> false in
  let limit = match side with All -> 0 | Inside l | Outside l -> l in
  let inside = match side with Outside _ -> false | All | Inside _ -> true in
  let owner = c.owner and first = c.addr and last = c.last in
  let lines = ref s.lines and owners = ref s.owner and cap = ref (Array.length s.lines) in
  let n = ref 0 and prev = ref (-1) and os_words = ref 0 and app_words = ref 0 in
  for i = 0 to c.len - 1 do
    let o = Array.unsafe_get owner i and a = Array.unsafe_get first i in
    let os = o land 7 = 0 in
    if all || (os && a < limit) = inside then begin
      let l = Array.unsafe_get last i in
      let w = words ~addr:a ~last:l in
      if os then os_words := !os_words + w else app_words := !app_words + w;
      let lo = a lsr shift and hi = l lsr shift in
      let lo = lo + Bool.to_int (lo = !prev) in
      if lo <= hi then begin
        let k = !n in
        if k + (hi - lo + 1) > !cap then begin
          s.len <- k;
          grow s (k + (hi - lo + 1));
          lines := s.lines;
          owners := s.owner;
          cap := Array.length s.lines
        end;
        let lines = !lines and owners = !owners in
        Array.unsafe_set lines k lo;
        Array.unsafe_set owners k o;
        for line = lo + 1 to hi do
          Array.unsafe_set lines (k + line - lo) line;
          Array.unsafe_set owners (k + line - lo) o
        done;
        n := k + (hi - lo + 1);
        prev := hi
      end
    end
  done;
  s.len <- !n;
  s.os_words <- !os_words;
  s.app_words <- !app_words;
  s.shift <- shift;
  s.side <- side

(* Streams [0 .. built-1] belong to the current fill; a key not among
   them takes the next slot, whose buffers a previous fill left behind,
   or a new one the length of the chunk. *)
let rec find c ~shift side k =
  if k = c.built then begin
    if k = Array.length c.streams then begin
      let n = Array.length c.owner in
      let fresh =
        {
          lines = Array.make n 0;
          owner = Array.make n 0;
          len = 0;
          os_words = 0;
          app_words = 0;
          shift;
          side;
        }
      in
      c.streams <- Array.append c.streams [| fresh |]
    end;
    let s = c.streams.(k) in
    build c s ~shift ~side;
    c.built <- k + 1;
    s
  end
  else
    let s = c.streams.(k) in
    if s.shift = shift && s.side = side then s else find c ~shift side (k + 1)

let stream c ~shift side = find c ~shift side 0

(* One chunk per domain, with its streams' buffers, outlives the passes
   that fill it: a pass takes it and puts it back, and a pass nested in
   another's callback finds it taken and makes its own. *)
let spare : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let iter ~trace ~map ~boundary f =
  let c =
    match Domain.DLS.get spare with
    | Some c ->
        Domain.DLS.set spare None;
        c
    | None -> create size
  in
  let cursor = Trace.cursor trace in
  let fed = ref 0 and more = ref true in
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set spare (Some c))
    (fun () ->
      while !more do
        fill c map cursor (if !fed < boundary then min size (boundary - !fed) else size);
        if c.len = 0 then more := false
        else begin
          fed := !fed + c.len;
          f c !fed
        end
      done)

let single ~image ~block ~addr ~bytes =
  if image < 0 || image > 5 then invalid_arg "Chunk.single: image must be in 0..5";
  let c = create 1 in
  c.owner.(0) <- (block lsl 3) lor image;
  c.addr.(0) <- addr;
  c.last.(0) <- addr + bytes - 1;
  c.len <- 1;
  c
