(* A direct-mapped main cache backed by a small fully-associative victim
   buffer (Jouppi 1990): the classic hardware remedy for exactly the
   conflict misses the paper removes in software.  A line displaced from
   the main cache parks in the buffer; hitting it there swaps it back. *)
type victim_state = {
  vmain_config : Config.t;
  vmain : int array;  (** Per set: resident line, -1 = invalid. *)
  vbuf : int array;  (** Fully associative, slot 0 = MRU, -1 = invalid. *)
  vsets : int;
  vline_shift : int;
  vcounters : Counters.t;
  vevicted : Evictions.t;
}

type kind =
  | Unified of Sim.t
  | Split of { os_side : Sim.t; app_side : Sim.t }
  | Reserved of { hot : Sim.t; rest : Sim.t; hot_limit : int }
  | Victim of victim_state

type t = { kind : kind }

let unified config = { kind = Unified (Sim.create config) }

let split ~os ~app = { kind = Split { os_side = Sim.create os; app_side = Sim.create app } }

let reserved ~hot ~rest ~hot_limit =
  { kind = Reserved { hot = Sim.create hot; rest = Sim.create rest; hot_limit } }

let victim ~main ~entries =
  if main.Config.assoc <> 1 then
    invalid_arg "System.victim: the main cache must be direct-mapped";
  if entries < 1 then invalid_arg "System.victim: need at least one entry";
  let sets = Config.sets main in
  let rec shift v i = if v <= 1 then i else shift (v lsr 1) (i + 1) in
  {
    kind =
      Victim
        {
          vmain_config = main;
          vmain = Array.make sets (-1);
          vbuf = Array.make entries (-1);
          vsets = sets;
          vline_shift = shift main.Config.line 0;
          vcounters = Counters.create ();
          vevicted = Evictions.create ();
        };
  }

let sims t =
  match t.kind with
  | Unified s -> [ s ]
  | Split { os_side; app_side } -> [ os_side; app_side ]
  | Reserved { hot; rest; _ } -> [ hot; rest ]
  | Victim _ -> []

(* Park a displaced line as the buffer's MRU; the LRU entry leaves the
   hierarchy, remembered in [vevicted] for miss classification. *)
let victim_park v ~os line =
  if line >= 0 then begin
    let n = Array.length v.vbuf in
    let lru = v.vbuf.(n - 1) in
    if lru >= 0 then Evictions.record v.vevicted ~line:lru ~os;
    Array.blit v.vbuf 0 v.vbuf 1 (n - 1);
    v.vbuf.(0) <- line
  end

let victim_access_line v ~os line =
  let set = line land (v.vsets - 1) in
  if v.vmain.(set) = line then ()
  else begin
    let n = Array.length v.vbuf in
    let rec find i = if i = n then -1 else if v.vbuf.(i) = line then i else find (i + 1) in
    match find 0 with
    | i when i >= 0 ->
        (* Victim hit: swap with the main cache's resident line. *)
        let displaced = v.vmain.(set) in
        v.vmain.(set) <- line;
        Array.blit v.vbuf 0 v.vbuf 1 i;
        v.vbuf.(0) <- displaced
        (* displaced >= 0 always here: the set conflicted before. *)
    | _ ->
        ignore (Evictions.classify v.vevicted v.vcounters ~os line);
        victim_park v ~os v.vmain.(set);
        v.vmain.(set) <- line
  end

let victim_access v ~os ~addr ~bytes =
  let words = if bytes <= 4 then 1 else bytes lsr 2 in
  let c = v.vcounters in
  if os then c.Counters.refs_os <- c.Counters.refs_os + words
  else c.Counters.refs_app <- c.Counters.refs_app + words;
  let first = addr lsr v.vline_shift in
  let last = (addr + bytes - 1) lsr v.vline_shift in
  for line = first to last do
    victim_access_line v ~os line
  done

let access t ~os ~image ~block ~addr ~bytes =
  match t.kind with
  | Unified s -> Sim.access s ~os ~image ~block ~addr ~bytes
  | Split { os_side; app_side } ->
      Sim.access (if os then os_side else app_side) ~os ~image ~block ~addr ~bytes
  | Reserved { hot; rest; hot_limit } ->
      let target = if os && addr < hot_limit then hot else rest in
      Sim.access target ~os ~image ~block ~addr ~bytes
  | Victim v -> victim_access v ~os ~addr ~bytes

let counters t =
  match t.kind with
  | Victim v -> Counters.copy v.vcounters
  | Unified _ | Split _ | Reserved _ ->
      let acc = Counters.create () in
      List.iter (fun s -> Counters.add acc (Sim.counters s)) (sims t);
      acc

let reset_counters t =
  match t.kind with
  | Victim v -> Counters.reset v.vcounters
  | Unified _ | Split _ | Reserved _ -> List.iter Sim.reset_counters (sims t)

let enable_block_attribution t ~images ~blocks =
  match t.kind with
  | Victim _ ->
      invalid_arg "System.enable_block_attribution: unsupported for victim caches"
  | Unified _ | Split _ | Reserved _ ->
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
  match t.kind with
  | Victim v ->
      Array.fill v.vmain 0 (Array.length v.vmain) (-1);
      Array.fill v.vbuf 0 (Array.length v.vbuf) (-1);
      Evictions.reset v.vevicted;
      Counters.reset v.vcounters
  | Unified _ | Split _ | Reserved _ -> List.iter Sim.reset (sims t)

let describe t =
  match t.kind with
  | Unified s -> Config.to_string (Sim.config s)
  | Split { os_side; app_side } ->
      Printf.sprintf "split[os:%s|app:%s]"
        (Config.to_string (Sim.config os_side))
        (Config.to_string (Sim.config app_side))
  | Reserved { hot; rest; hot_limit } ->
      Printf.sprintf "reserved[hot:%s<%dB|rest:%s]"
        (Config.to_string (Sim.config hot))
        hot_limit
        (Config.to_string (Sim.config rest))
  | Victim v ->
      Printf.sprintf "%s+%d-line victim"
        (Config.to_string v.vmain_config)
        (Array.length v.vbuf)
