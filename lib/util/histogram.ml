type t = { edges : int array; counts : int array; mutable total : int }

let explicit edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Histogram.explicit: no edges";
  for i = 1 to n - 1 do
    if edges.(i) <= edges.(i - 1) then
      invalid_arg "Histogram.explicit: edges must be strictly increasing"
  done;
  { edges = Array.copy edges; counts = Array.make (n + 1) 0; total = 0 }

(* First bucket i such that v < edges.(i); fall through to bucket n. *)
let bucket_of t v =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v < t.edges.(mid) then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length t.edges)

let add t v =
  let i = bucket_of t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let total t = t.total

let bucket_label t i =
  let n = Array.length t.edges in
  if i = 0 then Printf.sprintf "<%d" t.edges.(0)
  else if i = n then Printf.sprintf ">=%d" t.edges.(n - 1)
  else Printf.sprintf "[%d,%d)" t.edges.(i - 1) t.edges.(i)

let to_list t = List.init (Array.length t.counts) (fun i -> (bucket_label t i, t.counts.(i)))

let cumulative_fraction_below t i =
  if t.total = 0 then 0.0
  else begin
    let acc = ref 0 in
    for j = 0 to min i (Array.length t.counts - 1) do
      acc := !acc + t.counts.(j)
    done;
    float_of_int !acc /. float_of_int t.total
  end

let merge dst src =
  if dst.edges <> src.edges then invalid_arg "Histogram.merge: edges differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total
