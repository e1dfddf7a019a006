type spec =
  | Unified of Config.t
  | Split of { os : Config.t; app : Config.t }
  | Reserved of { hot : Config.t; rest : Config.t; hot_limit : int }
  | Victim of { main : Config.t; entries : int }

(* A direct-mapped main cache backed by a small fully-associative victim
   buffer (Jouppi 1990): the classic hardware remedy for exactly the
   conflict misses the paper removes in software.  A line displaced from
   the main cache parks in the buffer; hitting it there swaps it back. *)
type victim_state = {
  vmain : int array;  (** Per set: resident line, -1 = invalid. *)
  vbuf : int array;  (** Fully associative, slot 0 = MRU, -1 = invalid. *)
  vsets : int;
  vline_shift : int;
  vcounters : Counters.t;
  vevicted : Evictions.t;
}

(* A split cache is a pair whose [low] half takes every OS event
   ([limit = max_int]); a reserved cache's takes the OS events below
   [hot_limit].  Both sides are built here once, not per chunk. *)
type t =
  | Single of Sim.t
  | Pair of { low : Sim.t; high : Sim.t; inside : Sim.side; outside : Sim.side }
  | Buffered of victim_state

let pair low high limit = Pair { low; high; inside = Sim.Inside limit; outside = Sim.Outside limit }

let create = function
  | Unified config -> Single (Sim.create config)
  | Split { os; app } -> pair (Sim.create os) (Sim.create app) max_int
  | Reserved { hot; rest; hot_limit } -> pair (Sim.create hot) (Sim.create rest) hot_limit
  | Victim { main; entries } ->
      if main.Config.assoc <> 1 then
        invalid_arg "System.create: a victim cache's main cache must be direct-mapped";
      if entries < 1 then invalid_arg "System.create: a victim buffer needs at least one entry";
      let sets = Config.sets main in
      let rec shift v i = if v <= 1 then i else shift (v lsr 1) (i + 1) in
      Buffered
        {
          vmain = Array.make sets (-1);
          vbuf = Array.make entries (-1);
          vsets = sets;
          vline_shift = shift main.Config.line 0;
          vcounters = Counters.create ();
          vevicted = Evictions.create ();
        }

let unified config = create (Unified config)

let split ~os ~app = create (Split { os; app })

let reserved ~hot ~rest ~hot_limit = create (Reserved { hot; rest; hot_limit })

let victim ~main ~entries = create (Victim { main; entries })

let sims = function
  | Single s -> [ s ]
  | Pair { low; high; _ } -> [ low; high ]
  | Buffered _ -> []

(* A main-cache miss: look in the buffer, swapping a hit back into the
   main cache; otherwise classify the miss and park the displaced line as
   the buffer's MRU, the buffer's LRU entry leaving the hierarchy
   (remembered in [vevicted] for miss classification). *)
let[@inline never] victim_miss v ~os line set =
  let vmain = v.vmain and vbuf = v.vbuf in
  let n = Array.length vbuf in
  let i = ref 0 in
  while !i < n && Array.unsafe_get vbuf !i <> line do
    incr i
  done;
  let i = !i in
  let displaced = Array.unsafe_get vmain set in
  let shift =
    if i < n then i
    else begin
      ignore (Evictions.classify v.vevicted v.vcounters ~os line);
      let lru = Array.unsafe_get vbuf (n - 1) in
      if displaced >= 0 && lru >= 0 then Evictions.record v.vevicted ~line:lru ~os;
      n - 1
    end
  in
  Array.unsafe_set vmain set line;
  (* On a buffer hit [displaced >= 0] always: the set conflicted. *)
  if displaced >= 0 then begin
    for k = shift downto 1 do
      Array.unsafe_set vbuf k (Array.unsafe_get vbuf (k - 1))
    done;
    Array.unsafe_set vbuf 0 displaced
  end

(* A repeat of the line probed last is a main-array hit, so the shared
   stream serves the victim cache too. *)
let run_victim v c =
  let s = Chunk.stream c ~shift:v.vline_shift Chunk.All in
  let lines = s.lines and owner = s.owner in
  let vmain = v.vmain and mask = v.vsets - 1 in
  for j = 0 to s.len - 1 do
    let line = Array.unsafe_get lines j in
    let set = line land mask in
    if Array.unsafe_get vmain set <> line then
      victim_miss v ~os:(Array.unsafe_get owner j land 7 = 0) line set
  done;
  let k = v.vcounters in
  k.Counters.refs_os <- k.Counters.refs_os + s.os_words;
  k.Counters.refs_app <- k.Counters.refs_app + s.app_words

let run t c =
  match t with
  | Single s -> Sim.run s Sim.All c
  | Pair { low; high; inside; outside } ->
      Sim.run low inside c;
      Sim.run high outside c
  | Buffered v -> run_victim v c

(* The victim cache keeps no per-image state, so [os] alone names the
   domain; the others charge misses to [image] and need the two to
   agree. *)
let access t ~os ~image ~block ~addr ~bytes =
  match t with
  | Buffered v -> run_victim v (Chunk.single ~image:(if os then 0 else 1) ~block ~addr ~bytes)
  | Single _ | Pair _ ->
      if os <> (image = 0) then invalid_arg "System.access: os must mean image 0";
      run t (Chunk.single ~image ~block ~addr ~bytes)

let counters t =
  match t with
  | Buffered v -> Counters.copy v.vcounters
  | Single _ | Pair _ ->
      let acc = Counters.create () in
      List.iter (fun s -> Counters.add acc (Sim.counters s)) (sims t);
      acc

let reset_counters t =
  match t with
  | Buffered v -> Counters.reset v.vcounters
  | Single _ | Pair _ -> List.iter Sim.reset_counters (sims t)

let enable_block_attribution t ~images ~blocks =
  match t with
  | Buffered _ ->
      invalid_arg "System.enable_block_attribution: unsupported for victim caches"
  | Single _ | Pair _ ->
      List.iter (fun s -> Sim.enable_block_attribution s ~images ~blocks) (sims t)

let merged_misses t ~image get =
  match sims t with
  | [] -> [||]
  | first :: rest ->
      let acc = Array.copy (get first ~image) in
      List.iter
        (fun s -> Array.iteri (fun i m -> acc.(i) <- acc.(i) + m) (get s ~image))
        rest;
      acc

let block_misses t ~image = merged_misses t ~image Sim.block_misses

let block_misses_self t ~image = merged_misses t ~image Sim.block_misses_self

let block_misses_cross t ~image = merged_misses t ~image Sim.block_misses_cross

let reset t =
  match t with
  | Buffered v ->
      Array.fill v.vmain 0 (Array.length v.vmain) (-1);
      Array.fill v.vbuf 0 (Array.length v.vbuf) (-1);
      Evictions.reset v.vevicted;
      Counters.reset v.vcounters
  | Single _ | Pair _ -> List.iter Sim.reset (sims t)
