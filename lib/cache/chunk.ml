type code_map = { addr : int array array; bytes : int array array }

type side = All | Inside of int | Outside of int

type reader = { shift : int; side : side; sets : int }

type stream = {
  mutable lines : int array;
  mutable owner : int array;
  mutable len : int;
  mutable os_words : int;
  mutable app_words : int;
  mutable repeats : int;
}

(* A stage past the first: the entries of [src] that miss [tags], an
   [mask + 1]-set direct-mapped tag array, land in [dst]. *)
type stage = { src : stream; dst : stream; tags : int array; mask : int }

(* One (shift, side) key: [base] is stage 1, [stages] the filters in
   ascending set count, each reading the one before. *)
type chain = { shift : int; side : side; base : stream; stages : stage array }

type buffers = {
  mutable chains : chain array;
  mutable read : stream array;
  mutable pool : stream array;
  mutable filters : int array array;
}

type t = {
  owner : int array;
  addr : int array;
  last : int array;
  mutable len : int;
  buffers : buffers;
}

let size = 4096

let create n =
  {
    owner = Array.make n 0;
    addr = Array.make n 0;
    last = Array.make n 0;
    len = 0;
    buffers = { chains = [||]; read = [||]; pool = [||]; filters = [||] };
  }

let words ~addr ~last =
  let bytes = last - addr + 1 in
  if bytes <= 4 then 1 else bytes lsr 2

(* Room for [need] entries, keeping the first [s.len]. *)
let grow s need =
  let cap = max need (2 * Array.length s.lines) in
  let lines = Array.make cap 0 and owner = Array.make cap 0 in
  Array.blit s.lines 0 lines 0 s.len;
  Array.blit s.owner 0 owner 0 s.len;
  s.lines <- lines;
  s.owner <- owner

(* Stage 1, the side filter and the repeat drop, in one place: an OS
   event below [limit] is inside, any other event outside.  Lines within
   one event ascend, so only an event's first line can repeat the entry
   before it; [prev] is the last line kept, -1 before the first (tags are
   never negative), and [repeats] counts the drops.  The buffers live in
   locals between the rare grows, and the repeat test is arithmetic
   rather than a branch: half the events repeat, unpredictably. *)
let build (c : t) s ~shift ~side =
  let all = match side with All -> true | Inside _ | Outside _ -> false in
  let limit = match side with All -> 0 | Inside l | Outside l -> l in
  let inside = match side with Outside _ -> false | All | Inside _ -> true in
  let owner = c.owner and first = c.addr and last = c.last in
  let lines = ref s.lines and owners = ref s.owner and cap = ref (Array.length s.lines) in
  let n = ref 0 and prev = ref (-1) and os_words = ref 0 and app_words = ref 0 in
  let repeats = ref 0 in
  for i = 0 to c.len - 1 do
    let o = Array.unsafe_get owner i and a = Array.unsafe_get first i in
    let os = o land 7 = 0 in
    if all || (os && a < limit) = inside then begin
      let l = Array.unsafe_get last i in
      let w = words ~addr:a ~last:l in
      if os then os_words := !os_words + w else app_words := !app_words + w;
      let lo = a lsr shift and hi = l lsr shift in
      let repeat = Bool.to_int (lo = !prev) in
      repeats := !repeats + repeat;
      let lo = lo + repeat in
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
  s.repeats <- !repeats

(* A later stage: every entry of [src] that misses the filter is copied
   and becomes the filter's tag.  A hit's tag is the line already, so the
   store, the copy and the count are unconditional and only the count's
   step depends on the compare: a stage keeps from a third to three
   quarters of its input, too evenly mixed for a branch to predict. *)
let strip { src; dst; tags; mask } =
  if Array.length dst.lines < src.len then begin
    dst.len <- 0;
    grow dst src.len
  end;
  let lines = src.lines and owner = src.owner in
  let out = dst.lines and owners = dst.owner in
  let n = ref 0 in
  for j = 0 to src.len - 1 do
    let line = Array.unsafe_get lines j in
    let set = line land mask in
    let k = !n in
    Array.unsafe_set out k line;
    Array.unsafe_set owners k (Array.unsafe_get owner j);
    n := k + Bool.to_int (Array.unsafe_get tags set <> line);
    Array.unsafe_set tags set line
  done;
  dst.len <- !n;
  dst.os_words <- src.os_words;
  dst.app_words <- src.app_words;
  dst.repeats <- src.repeats

(* The one place an (image, block) pair becomes an address range.  The
   map reads stay bounds-checked: a block id the placement does not know
   fails here, not inside a kernel's unchecked loads.  Then every planned
   stream is built from the fill, each chain's stages in order. *)
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
  Array.iter
    (fun ch ->
      build c ch.base ~shift:ch.shift ~side:ch.side;
      Array.iter strip ch.stages)
    c.buffers.chains

(* The streams a pass's readers need.  Each (shift, side) key gets a
   chain: stage 1, then a filter stage at each of its readers' set counts
   above 1 except the largest, and each reader reads the last stage whose
   set count is at most its own.  A lone largest reader would only redo
   its own stage's work, so it reads the stage below it.  Stream buffers
   and filters come from the chunk's pool in order, so a second pass of
   the same shape allocates none, and every filter starts empty. *)
let plan c (readers : reader array) =
  let b = c.buffers in
  let streams = ref 0 and filters = ref 0 in
  let take () =
    let k = !streams in
    incr streams;
    if k = Array.length b.pool then begin
      let n = Array.length c.owner in
      let fresh =
        {
          lines = Array.make n 0;
          owner = Array.make n 0;
          len = 0;
          os_words = 0;
          app_words = 0;
          repeats = 0;
        }
      in
      b.pool <- Array.append b.pool [| fresh |]
    end;
    b.pool.(k)
  in
  let filter sets =
    let k = !filters in
    incr filters;
    if k = Array.length b.filters then b.filters <- Array.append b.filters [| [||] |];
    if Array.length b.filters.(k) < sets then b.filters.(k) <- Array.make sets (-1)
    else Array.fill b.filters.(k) 0 sets (-1);
    b.filters.(k)
  in
  let readers = Array.to_list readers in
  let keys = List.sort_uniq compare (List.map (fun (r : reader) -> (r.shift, r.side)) readers) in
  let rec below_largest = function [] | [ _ ] -> [] | s :: rest -> s :: below_largest rest in
  let chain (shift, side) =
    let counts =
      List.filter_map
        (fun (r : reader) -> if r.shift = shift && r.side = side then Some r.sets else None)
        readers
    in
    let base = take () in
    let _, stages =
      List.fold_left_map
        (fun src sets ->
          let dst = take () in
          (dst, { src; dst; tags = filter sets; mask = sets - 1 }))
        base
        (List.filter (fun s -> s > 1) (below_largest (List.sort_uniq Int.compare counts)))
    in
    { shift; side; base; stages = Array.of_list stages }
  in
  let chains = List.map chain keys in
  b.chains <- Array.of_list chains;
  b.read <-
    Array.of_list
      (List.map
         (fun (r : reader) ->
           let ch = List.find (fun ch -> ch.shift = r.shift && ch.side = r.side) chains in
           Array.fold_left (fun s st -> if st.mask < r.sets then st.dst else s) ch.base ch.stages)
         readers)

let stream c i = c.buffers.read.(i)

(* One chunk per domain, with its streams' buffers, outlives the passes
   that fill it: a pass takes it and puts it back, and a pass nested in
   another's callback finds it taken and makes its own. *)
let spare : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let iter ~trace ~map ~boundary ~readers f =
  let c =
    match Domain.DLS.get spare with
    | Some c ->
        Domain.DLS.set spare None;
        c
    | None -> create size
  in
  plan c readers;
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
