(* LRU stack-distance (reuse-distance) analysis.

   One pass over a line-granular reference stream yields, for every
   fully-associative LRU capacity at once, the number of misses: a
   reference misses in a cache of C lines iff its stack distance (number
   of distinct lines touched since the previous reference to the same
   line) is at least C.  The classic tool for separating capacity misses
   from the conflict misses that the paper's layouts remove: a layout
   cannot change the stack-distance profile (it is address-free), so any
   gap between the fully-associative misses and a set-associative
   simulation's is conflict misses.

   Only the power-of-two bin of a distance is ever read, so the LRU stack
   is kept as a doubly linked list over dense line ids, in int arrays,
   with one boundary marker per bin: [first.(j)] is the line at depth
   2^(j-1), the shallowest line of bin j.  Each line also records its bin,
   which is the bin of its distance when it is next referenced.  Moving a
   line from depth d to the top pushes the deepest line of every
   shallower bin one bin down, so a reference costs O(bin of d) and hot
   code, which sits in the low bins, is cheap. *)

(* Bin 0 holds d = 0, bin j in 1..23 holds 2^(j-1) <= d < 2^j, and bin 24
   holds every d >= 2^23. *)
let bins = 25

let last_bin = bins - 1

type t = {
  prev : int array;  (** Toward the top; -1 at the top. *)
  next : int array;  (** Toward the bottom; -1 at the bottom. *)
  bin : int array;  (** Current bin of each line; -1 before its first reference. *)
  first : int array;  (** [first.(j)] for j >= 1: the line at depth 2^(j-1), or -1. *)
  mutable top : int;
  mutable bottom : int;
  mutable depth : int;  (** Lines on the stack. *)
  hist : int array;  (** References per bin of stack distance. *)
  mutable cold : int;
  mutable refs : int;
}

let make ~capacity =
  let capacity = max 1 capacity in
  {
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    bin = Array.make capacity (-1);
    first = Array.make bins (-1);
    top = -1;
    bottom = -1;
    depth = 0;
    hist = Array.make bins 0;
    cold = 0;
    refs = 0;
  }

(* A line's first reference: every line on the stack moves one deeper, so
   the deepest line of each occupied bin crosses into the next one.  A bin
   that was just reached takes the old bottom line as its first. *)
let push_cold t id =
  t.cold <- t.cold + 1;
  let prev = t.prev and bin = t.bin and first = t.first in
  let depth = t.depth + 1 in
  let j = ref 1 in
  while !j <= last_bin && 1 lsl (!j - 1) < depth do
    let f = first.(!j) in
    let f' = if f < 0 then t.bottom else prev.(f) in
    first.(!j) <- f';
    bin.(f') <- !j;
    incr j
  done;
  t.depth <- depth;
  if t.bottom < 0 then t.bottom <- id

let touch t id =
  t.refs <- t.refs + 1;
  let bin = t.bin in
  let b = bin.(id) in
  if b = 0 then t.hist.(0) <- t.hist.(0) + 1
  else begin
    let prev = t.prev and next = t.next in
    if b < 0 then push_cold t id
    else begin
      t.hist.(b) <- t.hist.(b) + 1;
      (* Depths above [id] grow by one: each bin up to [b] gives its
         first line to the next-shallower line, which joins it.  No such
         line is [id], which sits at depth >= 2^(b-1). *)
      let first = t.first in
      for j = 1 to b do
        let f' = prev.(first.(j)) in
        first.(j) <- f';
        bin.(f') <- j
      done;
      let p = prev.(id) and n = next.(id) in
      next.(p) <- n;
      if n < 0 then t.bottom <- p else prev.(n) <- p
    end;
    prev.(id) <- -1;
    next.(id) <- t.top;
    if t.top >= 0 then prev.(t.top) <- id;
    t.top <- id;
    bin.(id) <- 0
  end

let refs t = t.refs

let cold t = t.cold

let misses_at t ~lines =
  (* Misses in a fully-associative LRU cache of [lines] lines: cold misses
     plus references whose stack distance >= lines; [lines] is rounded
     down to a power of two.  A distance d hits in a cache of 2^k lines
     iff d < 2^k: bins 0..k exactly. *)
  if lines < 1 then invalid_arg "Stack_dist.misses_at: lines < 1";
  let k = Chunk.log2 lines in
  let hits = ref 0 and total = ref 0 in
  Array.iteri
    (fun i n ->
      total := !total + n;
      if i <= k then hits := !hits + n)
    t.hist;
  t.cold + (!total - !hits)

(* Dense ids for a code map's lines: each image spans one range of lines,
   overlapping ranges merge (lines are keyed by address, so overlapping
   images share them), and the merged ranges are numbered end to end, so
   image [k]'s line [l] is id [l + delta.(k)]. *)
let max_dense_lines = 1 lsl 22

let dense_ids (map : Chunk.code_map) ~shift =
  let ranges =
    List.filter_map
      (fun k ->
        let addr = map.Chunk.addr.(k) and bytes = map.Chunk.bytes.(k) in
        if Array.length addr = 0 then None
        else begin
          let lo = ref max_int and hi = ref min_int in
          Array.iteri
            (fun b a ->
              lo := min !lo (a lsr shift);
              hi := max !hi ((a + max 1 bytes.(b) - 1) lsr shift))
            addr;
          Some (k, !lo, !hi)
        end)
      (List.init (Array.length map.Chunk.addr) Fun.id)
    |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
  in
  let delta = Array.make (Array.length map.Chunk.addr) 0 in
  (* [start] is the id of line [lo], the first of the current merged
     range; a range starting past [hi] opens the next one. *)
  let start = ref 0 and lo = ref 0 and hi = ref (-1) in
  List.iter
    (fun (k, l, h) ->
      if l > !hi then begin
        start := !start + (!hi - !lo + 1);
        lo := l
      end;
      hi := max !hi h;
      delta.(k) <- !start - !lo)
    ranges;
  let lines = !start + (!hi - !lo + 1) in
  if lines > max_dense_lines then
    invalid_arg "Stack_dist.from_trace: the map spans more than 2^22 lines";
  (delta, lines)

(* Stage 1 of the pass's one stream: every line an event on the side
   spans, less the repeats of the entry before, which are references at
   distance 0 and are counted as such. *)
let from_trace ~trace ~map ?(line = 32) ?(os_only = false) () =
  let shift = Chunk.log2 line in
  let delta, lines = dense_ids map ~shift in
  let t = make ~capacity:lines in
  let side = if os_only then Chunk.Inside max_int else Chunk.All in
  Chunk.iter ~trace ~map ~boundary:0 ~readers:[| { Chunk.shift; side; sets = 1 } |] (fun c _ ->
      let s = Chunk.stream c 0 in
      let lines = s.Chunk.lines and owner = s.Chunk.owner in
      for j = 0 to s.Chunk.len - 1 do
        touch t (lines.(j) + delta.(owner.(j) land 7))
      done;
      t.refs <- t.refs + s.Chunk.repeats;
      t.hist.(0) <- t.hist.(0) + s.Chunk.repeats);
  t
