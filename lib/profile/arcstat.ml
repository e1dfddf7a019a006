type bin = { lo : float; hi : float; count : int }

(* Bins matching Figure 3's x-axis granularity. *)
let edges = [| 0.01; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 |]

let distribution p g =
  let n = Array.length edges in
  let counts = Array.make (n + 1) 0 in
  let bucket_of prob =
    (* First bin i with prob <= edges.(i); else the last bin. *)
    let rec search i = if i >= n then n else if prob <= edges.(i) then i else search (i + 1) in
    search 0
  in
  let record prob = counts.(bucket_of prob) <- counts.(bucket_of prob) + 1 in
  Graph.iter_blocks g (fun b ->
      if Profile.executed p b.Block.id then begin
        Array.iter
          (fun a -> record (Profile.arc_probability p g a))
          (Graph.out_arcs g b.Block.id);
        if Block.ends_in_call b then record 1.0
      end);
  Array.init (n + 1) (fun i ->
      {
        lo = (if i = 0 then 0.0 else edges.(i - 1));
        hi = (if i = n then 1.0 else edges.(i));
        count = counts.(i);
      })

let total bins = Array.fold_left (fun acc b -> acc + b.count) 0 bins

let fraction_at_least bins threshold =
  let t = total bins in
  if t = 0 then 0.0
  else begin
    let n =
      Array.fold_left (fun acc b -> if b.lo >= threshold then acc + b.count else acc) 0 bins
    in
    float_of_int n /. float_of_int t
  end

let fraction_at_most bins threshold =
  let t = total bins in
  if t = 0 then 0.0
  else begin
    let n =
      Array.fold_left (fun acc b -> if b.hi <= threshold then acc + b.count else acc) 0 bins
    in
    float_of_int n /. float_of_int t
  end
