(* The 64-bit state lives in an 8-byte buffer rather than a boxed [int64]
   field: the unboxed byte primitives let a draw read, advance and store
   the state without allocating (the Random cache policy draws on the
   replay hot path).  The buffer never leaves this module, so its byte
   order is irrelevant. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let g = Bytes.create 8 in
  set64 g 0 seed;
  g

let of_int seed = create (Int64.of_int seed)

(* SplitMix64 step: advance by the golden gamma, then mix (Stafford's
   variant 13 finalizer).  Inlined so callers that narrow the result to
   an int never box it. *)
let[@inline] next_int64 g =
  let z = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = create (next_int64 g)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: 62 usable bits dwarf any bound used
     here, so modulo bias is negligible.  62 bits (not 63) so the value
     fits OCaml's native int without wrapping negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
  v mod bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let unit_float g =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  bits *. 0x1p-53

let float g bound = unit_float g *. bound

let bool g = Int64.logand (next_int64 g) 1L = 1L

let bernoulli g p = unit_float g < p

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let choose_weighted g choices =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 choices in
  if not (total > 0.0) then
    invalid_arg "Prng.choose_weighted: weights must sum to a positive value";
  let target = float g total in
  let n = Array.length choices in
  let rec scan i acc =
    let x, w = choices.(i) in
    let acc = acc +. w in
    if target < acc || i = n - 1 then x else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
