type shape =
  | Log2 of { max_exp : int }
  | Explicit of int array

type t = { shape : shape; counts : int array; mutable total : int }

let make shape n = { shape; counts = Array.make n 0; total = 0 }

let log2 ~max_exp =
  if max_exp <= 0 then invalid_arg "Histogram.log2: max_exp must be positive";
  make (Log2 { max_exp }) (max_exp + 1)

let explicit edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Histogram.explicit: no edges";
  for i = 1 to n - 1 do
    if edges.(i) <= edges.(i - 1) then
      invalid_arg "Histogram.explicit: edges must be strictly increasing"
  done;
  make (Explicit (Array.copy edges)) (n + 1)

let bucket_of t v =
  match t.shape with
  | Log2 { max_exp } ->
      let v = if v < 0 then 0 else v in
      let rec magnitude x i = if x <= 0 then i else magnitude (x lsr 1) (i + 1) in
      let m = magnitude (v + 1) (-1) in
      if m > max_exp then max_exp else m
  | Explicit edges ->
      let n = Array.length edges in
      (* First bucket i such that v < edges.(i); fall through to bucket n. *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if v < edges.(mid) then search lo mid else search (mid + 1) hi
      in
      search 0 n

let add_many t v n =
  let i = bucket_of t v in
  t.counts.(i) <- t.counts.(i) + n;
  t.total <- t.total + n

let add t v = add_many t v 1

let bucket_count t = Array.length t.counts

let total t = t.total

let bucket_label t i =
  match t.shape with
  | Log2 { max_exp } ->
      if i = 0 then "0"
      else if i >= max_exp then Printf.sprintf ">=%d" ((1 lsl max_exp) - 1)
      else Printf.sprintf "[%d,%d]" ((1 lsl i) - 1) ((1 lsl (i + 1)) - 2)
  | Explicit edges ->
      let n = Array.length edges in
      if i = 0 then Printf.sprintf "<%d" edges.(0)
      else if i = n then Printf.sprintf ">=%d" edges.(n - 1)
      else Printf.sprintf "[%d,%d)" edges.(i - 1) edges.(i)

let to_list t =
  List.init (bucket_count t) (fun i -> (bucket_label t i, t.counts.(i)))

let cumulative_fraction_below t i =
  if t.total = 0 then 0.0
  else begin
    let acc = ref 0 in
    for j = 0 to min i (bucket_count t - 1) do
      acc := !acc + t.counts.(j)
    done;
    float_of_int !acc /. float_of_int t.total
  end

(* Inclusive-lo / exclusive-hi numeric bounds of bucket [i], used for the
   rank interpolation in [percentile].  Open-ended buckets collapse to
   their finite edge so a percentile never invents values outside the
   recorded range's known bounds. *)
let bucket_bounds t i =
  match t.shape with
  | Log2 { max_exp } ->
      if i = 0 then (0.0, 1.0)
      else if i >= max_exp then
        let lo = float_of_int ((1 lsl max_exp) - 1) in
        (lo, lo)
      else
        (float_of_int ((1 lsl i) - 1), float_of_int ((1 lsl (i + 1)) - 1))
  | Explicit edges ->
      let n = Array.length edges in
      if i = 0 then (float_of_int edges.(0), float_of_int edges.(0))
      else if i >= n then (float_of_int edges.(n - 1), float_of_int edges.(n - 1))
      else (float_of_int edges.(i - 1), float_of_int edges.(i))

let percentile t p =
  if t.total = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    let rank = p *. float_of_int t.total in
    let i = ref 0 in
    let cum = ref 0 in
    let n = bucket_count t in
    while !i < n - 1 && float_of_int (!cum + t.counts.(!i)) < rank do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    (* Skip trailing empty buckets the loop may have landed on. *)
    while !i > 0 && t.counts.(!i) = 0 do decr i done;
    (* Rank 0 never advances the walk; if bucket 0 is empty, the answer
       is the first occupied bucket, not the histogram's lower bound. *)
    while !i < n - 1 && t.counts.(!i) = 0 do incr i done;
    let lo, hi = bucket_bounds t !i in
    let c = t.counts.(!i) in
    if c = 0 then lo
    else
      let within = (rank -. float_of_int !cum) /. float_of_int c in
      let within = if within < 0.0 then 0.0 else if within > 1.0 then 1.0 else within in
      lo +. (within *. (hi -. lo))
  end

let same_shape a b =
  match (a.shape, b.shape) with
  | Log2 x, Log2 y -> x.max_exp = y.max_exp
  | Explicit x, Explicit y -> x = y
  | (Log2 _ | Explicit _), _ -> false

let merge dst src =
  if not (same_shape dst src) then invalid_arg "Histogram.merge: shape mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total

let copy_empty t = make t.shape (bucket_count t)
