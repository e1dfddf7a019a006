type entry = { counters : Counters.t; os_block_misses : int array }

type key = string

(* The runtime representation covers every field of the spec, including
   a Random policy's seed (Config.to_string does not). *)
let key ~context ~layouts ~spec ~warmup_fraction ~attribute_os =
  Memo.digest (context, layouts, (spec : System.spec), warmup_fraction, attribute_os)

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
