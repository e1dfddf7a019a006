type t = Prng.t -> int

let uniform_int lo hi =
  if hi < lo then invalid_arg "Dist.uniform_int: empty range";
  fun g -> Prng.int_in g lo hi

let zipf_cdf n s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for rank = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) s);
    cdf.(rank) <- !acc
  done;
  let total = !acc in
  Array.map (fun x -> x /. total) cdf

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  let cdf = zipf_cdf n s in
  fun g ->
    let u = Prng.unit_float g in
    (* First index whose cdf is > u. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)

let zipf_mass ~n ~s ~rank =
  let cdf = zipf_cdf n s in
  if rank = 0 then cdf.(0) else cdf.(rank) -. cdf.(rank - 1)

let weighted choices =
  let tagged = Array.map (fun (v, w) -> (v, w)) choices in
  fun g -> Prng.choose_weighted g tagged

let scaled d k = fun g -> int_of_float (Float.round (float_of_int (d g) *. k))

let sample d g = d g

let mean_estimate d g n =
  let rec go i acc = if i = n then acc else go (i + 1) (acc +. float_of_int (d g)) in
  go 0 0.0 /. float_of_int n
