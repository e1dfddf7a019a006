(* The replacement policy is resolved once at [create] into this dispatch
   so the per-access hot path never re-examines [Config.policy].  With one
   way there is nothing to age, so every deterministic policy collapses to
   [Direct]: a single tag compare, no way search, no blit. *)
type kernel =
  | Direct
  | Lru_assoc
  | Fifo_assoc
  | Random_assoc of Prng.t

type t = {
  config : Config.t;
  kernel : kernel;
  sets : int;
  assoc : int;
  line_shift : int;
  tags : int array;
      (** [sets * assoc], -1 = invalid.  Under LRU slot 0 is MRU and the
          last slot the victim; under FIFO slot 0 is the newest insertion
          (hits do not reorder); under Random insertion also fills slot 0
          but the victim way is drawn uniformly. *)
  counters : Counters.t;
  evictions : Evictions.t;
  mutable attr : int array array;  (** per image: per block miss counts *)
  mutable attr_self : int array array;
  mutable attr_cross : int array array;
  mutable attribution : bool;
}

let log2 n =
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  go n 0

let create config =
  let sets = Config.sets config in
  {
    config;
    kernel =
      (match config.Config.policy with
      | Config.Random seed -> Random_assoc (Prng.of_int seed)
      | Config.Lru when config.Config.assoc = 1 -> Direct
      | Config.Fifo when config.Config.assoc = 1 -> Direct
      | Config.Lru -> Lru_assoc
      | Config.Fifo -> Fifo_assoc);
    sets;
    assoc = config.Config.assoc;
    line_shift = log2 config.Config.line;
    tags = Array.make (sets * config.Config.assoc) (-1);
    counters = Counters.create ();
    evictions = Evictions.create ();
    attr = [||];
    attr_self = [||];
    attr_cross = [||];
    attribution = false;
  }

let config t = t.config

let counters t = t.counters

let enable_block_attribution t ~images ~blocks =
  if images <> Array.length blocks then
    invalid_arg "Sim.enable_block_attribution: images/blocks mismatch";
  t.attr <- Array.map (fun n -> Array.make n 0) blocks;
  t.attr_self <- Array.map (fun n -> Array.make n 0) blocks;
  t.attr_cross <- Array.map (fun n -> Array.make n 0) blocks;
  t.attribution <- true

let block_misses t ~image =
  if not t.attribution then
    invalid_arg "Sim.block_misses: attribution not enabled";
  t.attr.(image)

let block_misses_self t ~image =
  if not t.attribution then
    invalid_arg "Sim.block_misses_self: attribution not enabled";
  t.attr_self.(image)

let block_misses_cross t ~image =
  if not t.attribution then
    invalid_arg "Sim.block_misses_cross: attribution not enabled";
  t.attr_cross.(image)

(* Returns true on hit.  On miss, installs the line as MRU and records the
   victim's evictor domain. *)
let access_line t ~os line =
  match t.kernel with
  | Direct ->
      (* One way: the set holds exactly one line, so hit/miss is a single
         tag compare and replacement is an unconditional store. *)
      let set = line land (t.sets - 1) in
      let tags = t.tags in
      let cur = Array.unsafe_get tags set in
      if cur = line then true
      else begin
        if cur >= 0 then Evictions.record t.evictions ~line:cur ~os;
        Array.unsafe_set tags set line;
        false
      end
  | (Lru_assoc | Fifo_assoc | Random_assoc _) as kernel ->
      let set = line land (t.sets - 1) in
      let base = set * t.assoc in
      let assoc = t.assoc in
      let tags = t.tags in
      (* Find the way holding [line]. *)
      let rec find i = if i = assoc then -1 else if tags.(base + i) = line then i else find (i + 1) in
      let way = find 0 in
      if way >= 0 then begin
        (* LRU refreshes on hit; FIFO and Random do not. *)
        (match kernel with
        | Lru_assoc ->
            if way > 0 then begin
              let v = tags.(base + way) in
              Array.blit tags base tags (base + 1) way;
              tags.(base) <- v
            end
        | Direct | Fifo_assoc | Random_assoc _ -> ());
        true
      end
      else begin
        (* Pick the victim way per policy, then insert at slot 0 so age order
           is maintained for LRU/FIFO. *)
        let victim_way =
          match kernel with
          | Random_assoc g ->
              (* Prefer an invalid way; otherwise uniform. *)
              let rec invalid i =
                if i = assoc then None
                else if tags.(base + i) < 0 then Some i
                else invalid (i + 1)
              in
              (match invalid 0 with Some i -> i | None -> Prng.int g assoc)
          | Direct | Lru_assoc | Fifo_assoc -> assoc - 1
        in
        let victim = tags.(base + victim_way) in
        if victim >= 0 then Evictions.record t.evictions ~line:victim ~os;
        Array.blit tags base tags (base + 1) victim_way;
        tags.(base) <- line;
        false
      end

let access t ~os ~image ~block ~addr ~bytes =
  let words = if bytes <= 4 then 1 else bytes lsr 2 in
  let c = t.counters in
  if os then c.Counters.refs_os <- c.Counters.refs_os + words
  else c.Counters.refs_app <- c.Counters.refs_app + words;
  let first = addr lsr t.line_shift in
  let last = (addr + bytes - 1) lsr t.line_shift in
  for line = first to last do
    if not (access_line t ~os line) then begin
      let kind = Evictions.classify t.evictions t.counters ~os line in
      if t.attribution then begin
        let a = t.attr.(image) in
        a.(block) <- a.(block) + 1;
        if kind = 1 then begin
          let a = t.attr_self.(image) in
          a.(block) <- a.(block) + 1
        end
        else if kind = 2 then begin
          let a = t.attr_cross.(image) in
          a.(block) <- a.(block) + 1
        end
      end
    end
  done

let probe t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.assoc in
  let rec find i =
    if i = t.assoc then false
    else if t.tags.(base + i) = line then true
    else find (i + 1)
  in
  find 0

let reset_counters t =
  Counters.reset t.counters;
  if t.attribution then begin
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.attr;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.attr_self;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.attr_cross
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Evictions.reset t.evictions;
  reset_counters t
