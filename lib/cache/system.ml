type spec =
  | Unified of Config.t
  | Split of { os : Config.t; app : Config.t }
  | Reserved of { hot : Config.t; rest : Config.t; hot_limit : int }
  | Victim of { main : Config.t; entries : int }

(* The sub-caches, each with the side of the stream it takes.  A split
   cache's [low] half takes every OS event ([limit = max_int]); a
   reserved cache's takes the OS events below [hot_limit].  Both halves
   are built here once, not per chunk. *)
type t = (Sim.t * Sim.side) array

let pair low high limit = [| (low, Sim.Inside limit); (high, Sim.Outside limit) |]

let create = function
  | Unified config -> [| (Sim.create config, Sim.All) |]
  | Split { os; app } -> pair (Sim.create os) (Sim.create app) max_int
  | Reserved { hot; rest; hot_limit } -> pair (Sim.create hot) (Sim.create rest) hot_limit
  | Victim { main; entries } -> [| (Sim.victim main ~entries, Sim.All) |]

let unified config = create (Unified config)

let split ~os ~app = create (Split { os; app })

let reserved ~hot ~rest ~hot_limit = create (Reserved { hot; rest; hot_limit })

let victim ~main ~entries = create (Victim { main; entries })

let readers t = Array.map (fun (s, side) -> Sim.reader s side) t

let run t c ~first = Array.iteri (fun k (s, _) -> Sim.run s (Chunk.stream c (first + k))) t

let probes t = Array.fold_left (fun n (s, _) -> n + Sim.probes s) 0 t

let counters t =
  let acc = Counters.create () in
  Array.iter (fun (s, _) -> Counters.add acc (Sim.counters s)) t;
  acc

let reset_counters t = Array.iter (fun (s, _) -> Sim.reset_counters s) t

let enable_block_attribution t ~blocks =
  Array.iter (fun (s, _) -> Sim.enable_block_attribution s ~blocks) t

let merged_misses t get =
  let acc = Array.copy (get (fst t.(0))) in
  for k = 1 to Array.length t - 1 do
    Array.iteri (fun i m -> acc.(i) <- acc.(i) + m) (get (fst t.(k)))
  done;
  acc

let block_misses t = merged_misses t Sim.block_misses

let block_misses_self t = merged_misses t Sim.block_misses_self

let block_misses_cross t = merged_misses t Sim.block_misses_cross
