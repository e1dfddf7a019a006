(* LRU stack-distance (reuse-distance) analysis.

   One pass over a line-granular reference stream yields, for every
   fully-associative LRU capacity at once, the number of misses: a
   reference misses in a cache of C lines iff its stack distance (number
   of distinct lines touched since the previous reference to the same
   line) is at least C.  The classic tool for separating capacity misses
   from the conflict misses that the paper's layouts remove: a layout
   cannot change the stack-distance profile (it is address-free), so any
   gap between the fully-associative curve and a set-associative
   simulation is conflict misses.

   Distances are maintained with a Fenwick (binary indexed) tree over the
   reference timeline: O(log n) per access. *)

type t = {
  line_shift : int;
  last_ref : (int, int) Hashtbl.t;  (** line -> timestamp of last use *)
  mutable time : int;
  mutable tree : int array;  (** Fenwick tree over timestamps. *)
  histogram : Histogram.t;  (** Power-of-two buckets of stack distances. *)
  mutable cold : int;
  mutable refs : int;
}

let create ?(line = 32) () =
  let rec shift v i = if v <= 1 then i else shift (v lsr 1) (i + 1) in
  {
    line_shift = shift line 0;
    last_ref = Hashtbl.create 4096;
    time = 0;
    tree = Array.make 4096 0;
    histogram = Histogram.explicit (Array.init 24 (fun i -> 1 lsl i));
    cold = 0;
    refs = 0;
  }

let grow t needed =
  if needed >= Array.length t.tree then begin
    let n = ref (Array.length t.tree) in
    while needed >= !n do
      n := !n * 2
    done;
    let tree = Array.make !n 0 in
    (* Rebuild from the live timestamps. *)
    let add i =
      let rec go i = if i < !n then begin tree.(i) <- tree.(i) + 1; go (i lor (i + 1)) end in
      go i
    in
    Hashtbl.iter (fun _ ts -> add ts) t.last_ref;
    t.tree <- tree
  end

let tree_add t i delta =
  let n = Array.length t.tree in
  let rec go i = if i < n then begin t.tree.(i) <- t.tree.(i) + delta; go (i lor (i + 1)) end in
  go i

let tree_sum t i =
  (* Sum of [0..i]. *)
  let rec go i acc =
    if i < 0 then acc else go ((i land (i + 1)) - 1) (acc + t.tree.(i))
  in
  go i 0

(* Record the lines spanned by bytes [addr .. last]. *)
let touch t ~addr ~last =
  for line = addr lsr t.line_shift to last lsr t.line_shift do
    t.refs <- t.refs + 1;
    grow t t.time;
    (match Hashtbl.find_opt t.last_ref line with
    | None -> t.cold <- t.cold + 1
    | Some ts ->
        (* Distinct lines referenced strictly after ts = live timestamps
           in (ts, now). *)
        let total_live = Hashtbl.length t.last_ref in
        let upto = tree_sum t ts in
        let distance = total_live - upto in
        Histogram.add t.histogram distance;
        tree_add t ts (-1));
    Hashtbl.replace t.last_ref line t.time;
    tree_add t t.time 1;
    t.time <- t.time + 1
  done

let access t ~addr ~bytes = touch t ~addr ~last:(addr + max 1 bytes - 1)

let refs t = t.refs

let cold t = t.cold

let misses_at t ~lines =
  (* Misses in a fully-associative LRU cache of [lines] lines: cold misses
     plus references whose stack distance >= lines; [lines] is rounded
     down to a power of two. *)
  if lines < 1 then invalid_arg "Stack_dist.misses_at: lines < 1";
  let rec log2 v i = if v <= 1 then i else log2 (v lsr 1) (i + 1) in
  let k = log2 lines 0 in
  (* Distances are binned with explicit power-of-two edges: bucket 0 holds
     d = 0, bucket j >= 1 holds 2^(j-1) <= d < 2^j.  A distance d hits in
     a cache of 2^k lines iff d < 2^k: buckets 0..k exactly. *)
  let h = t.histogram in
  let hits = ref 0 in
  for i = 0 to min k (Histogram.bucket_count h - 1) do
    hits := !hits + Histogram.count h i
  done;
  t.cold + (Histogram.total h - !hits)

let curve t ~max_lines =
  let rec go lines acc =
    if lines > max_lines then List.rev acc
    else go (lines * 2) ((lines, misses_at t ~lines) :: acc)
  in
  go 1 []

let from_trace ~trace ~map ?(line = 32) ?(os_only = false) () =
  let t = create ~line () in
  Chunk.iter ~trace ~map ~boundary:0 (fun (c : Chunk.t) _ ->
      for i = 0 to c.len - 1 do
        let o = c.owner.(i) in
        if (not os_only) || Program.is_os (o land 7) then
          (* A block fetches at least one byte. *)
          touch t ~addr:c.addr.(i) ~last:(max c.addr.(i) c.last.(i))
      done);
  t
