type entry = { counters : Counters.t; os_block_misses : int array }

type key = string

let key ~context ~layouts ~spec ~warmup_fraction ~attribute_os =
  let buf = Buffer.create 256 in
  Buffer.add_string buf context;
  Array.iter
    (fun d ->
      Buffer.add_char buf '|';
      Buffer.add_string buf d)
    layouts;
  Buffer.add_char buf '|';
  (* The runtime representation covers every field of the spec, including
     a Random policy's seed (Config.to_string does not). *)
  Buffer.add_string buf (Marshal.to_string (spec : System.spec) []);
  Buffer.add_string buf (Printf.sprintf "|%.17g|%b" warmup_fraction attribute_os);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let memo : entry array Memo.t = Memo.create "sim_cache"

let copy e =
  {
    counters = Counters.copy e.counters;
    os_block_misses = Array.copy e.os_block_misses;
  }

(* Stored entries are the replays' own arrays, which nothing else holds;
   every caller gets copies. *)
let find_or_replay keys replay =
  Array.map (Array.map copy) (Memo.find_or_build_all memo keys replay)

let hits () = (Memo.stats memo).Memo.hits

let misses () = (Memo.stats memo).Memo.misses

let clear () = Memo.clear memo
