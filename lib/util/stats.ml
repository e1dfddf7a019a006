let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

let minimum a =
  if Array.length a = 0 then invalid_arg "Stats.minimum: empty array";
  Array.fold_left min a.(0) a

let maximum a =
  if Array.length a = 0 then invalid_arg "Stats.maximum: empty array";
  Array.fold_left max a.(0) a

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pct num den = 100.0 *. ratio num den
