type policy = Lru | Fifo | Random of int

type t = { size : int; assoc : int; line : int; policy : policy }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let v ~size ~assoc ~line =
  if not (is_pow2 size && is_pow2 assoc && is_pow2 line) then
    invalid_arg "Config: size, assoc and line must be powers of two";
  if line * assoc > size then invalid_arg "Config: size < line * assoc";
  { size; assoc; line; policy = Lru }

let with_policy t policy = { t with policy }

let make ~size_kb ?(assoc = 1) ?(line = 32) ?(policy = Lru) () =
  with_policy (v ~size:(size_kb * 1024) ~assoc ~line) policy

let policy_to_string = function
  | Lru -> "LRU"
  | Fifo -> "FIFO"
  | Random _ -> "random"

let sets t = t.size / (t.line * t.assoc)

let to_string t =
  let base = Printf.sprintf "%dKB/%dway/%dB" (t.size / 1024) t.assoc t.line in
  match t.policy with Lru -> base | p -> base ^ "/" ^ policy_to_string p
