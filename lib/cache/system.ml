type spec =
  | Unified of Config.t
  | Split of { os : Config.t; app : Config.t }
  | Reserved of { hot : Config.t; rest : Config.t; hot_limit : int }
  | Victim of { main : Config.t; entries : int }

(* The sub-caches, each with the side of the stream it takes.  A split
   cache's [low] half takes every OS event ([limit = max_int]); a
   reserved cache's takes the OS events below [hot_limit].  Both halves
   are built here once, not per chunk. *)
type t = (Sim.t * Chunk.side) array

let pair low high limit = [| (low, Chunk.Inside limit); (high, Chunk.Outside limit) |]

let create = function
  | Unified config -> [| (Sim.create config, Chunk.All) |]
  | Split { os; app } -> pair (Sim.create os) (Sim.create app) max_int
  | Reserved { hot; rest; hot_limit } -> pair (Sim.create hot) (Sim.create rest) hot_limit
  | Victim { main; entries } -> [| (Sim.victim main ~entries, Chunk.All) |]

let unified config = create (Unified config)

let split ~os ~app = create (Split { os; app })

let reserved ~hot ~rest ~hot_limit = create (Reserved { hot; rest; hot_limit })

let victim ~main ~entries = create (Victim { main; entries })

let caches t = t

let probes t = Array.fold_left (fun n (s, _) -> n + Sim.probes s) 0 t

let counters t =
  let acc = Counters.create () in
  Array.iter (fun (s, _) -> Counters.add acc (Sim.counters s)) t;
  acc

let enable_block_attribution t ~blocks =
  Array.iter (fun (s, _) -> Sim.enable_block_attribution s ~blocks) t

let block_misses t =
  let acc = Array.copy (Sim.block_misses (fst t.(0))) in
  for k = 1 to Array.length t - 1 do
    Array.iteri (fun i m -> acc.(i) <- acc.(i) + m) (Sim.block_misses (fst t.(k)))
  done;
  acc
