(* The replacement policy is resolved once at [create] into this dispatch
   so a kernel's loop never re-examines [Config.policy].  With one way
   there is nothing to age, so every deterministic policy collapses to
   [Direct]: a single tag compare, no way search, no shift.  [Victim] is
   [Direct] backed by a fully-associative victim buffer (Jouppi 1990):
   slot 0 is the MRU line, -1 invalid.  It changes only the miss path. *)
type kernel =
  | Direct
  | Victim of int array
  | Lru_assoc
  | Fifo_assoc
  | Random_assoc of Prng.t

type t = {
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
  mutable block_store : int array option;
      (** Per OS block [b], its misses of kind [k] (Evictions.classify's
          0 cold, 1 self, 2 cross) at [3b + k]; [None] until attribution
          is enabled. *)
  mutable probes : int;  (** Stream entries read, over the cache's life. *)
}

let create config =
  let sets = Config.sets config in
  {
    kernel =
      (match config.Config.policy with
      | Config.Random seed -> Random_assoc (Prng.of_int seed)
      | Config.Lru when config.Config.assoc = 1 -> Direct
      | Config.Fifo when config.Config.assoc = 1 -> Direct
      | Config.Lru -> Lru_assoc
      | Config.Fifo -> Fifo_assoc);
    sets;
    assoc = config.Config.assoc;
    line_shift = Chunk.log2 config.Config.line;
    tags = Array.make (sets * config.Config.assoc) (-1);
    counters = Counters.create ();
    evictions = Evictions.create ();
    block_store = None;
    probes = 0;
  }

let victim main ~entries =
  if main.Config.assoc <> 1 then
    invalid_arg "Sim.victim: a victim cache's main cache must be direct-mapped";
  if entries < 1 then invalid_arg "Sim.victim: a victim buffer needs at least one entry";
  { (create main) with kernel = Victim (Array.make entries (-1)) }

let counters t = t.counters

let enable_block_attribution t ~blocks = t.block_store <- Some (Array.make (3 * blocks) 0)

let block_misses t =
  match t.block_store with
  | Some store -> store
  | None -> invalid_arg "Sim.block_misses: attribution not enabled"

(* The cold path every kernel shares: count the miss on [line] by the
   stream entry's [owner] as cold, self or cross, and charge an OS miss
   to the fetching block's entry of that kind when attributing. *)
let[@inline never] classify t owner line =
  let os = owner land 7 = 0 in
  let kind = Evictions.classify t.evictions t.counters ~os line in
  match t.block_store with
  | Some store when os ->
      let i = (3 * (owner lsr 3)) + kind in
      store.(i) <- store.(i) + 1
  | Some _ | None -> ()

(* A main-array miss behind a victim buffer: a buffered [line] swaps
   back with the [displaced] one and is no miss.  Otherwise the miss is
   classified as any other, and the displaced line parks as the buffer's
   MRU, pushing its LRU line out of the hierarchy. *)
let victim_miss t buf owner line set displaced =
  let n = Array.length buf in
  let i = ref 0 in
  while !i < n && Array.unsafe_get buf !i <> line do
    incr i
  done;
  let shift =
    if !i < n then !i
    else begin
      classify t owner line;
      let lru = Array.unsafe_get buf (n - 1) in
      if displaced >= 0 && lru >= 0 then
        Evictions.record t.evictions ~line:lru ~os:(owner land 7 = 0);
      n - 1
    end
  in
  Array.unsafe_set t.tags set line;
  (* On a buffer hit [displaced >= 0] always: the set conflicted. *)
  if displaced >= 0 then begin
    for k = shift downto 1 do
      Array.unsafe_set buf k (Array.unsafe_get buf (k - 1))
    done;
    Array.unsafe_set buf 0 displaced
  end

(* One way: the set holds exactly one line, so replacement is an
   unconditional store. *)
let[@inline never] direct_miss t owner line =
  let set = line land (t.sets - 1) in
  let cur = Array.unsafe_get t.tags set in
  match t.kernel with
  | Victim buf -> victim_miss t buf owner line set cur
  | Direct | Lru_assoc | Fifo_assoc | Random_assoc _ ->
      if cur >= 0 then Evictions.record t.evictions ~line:cur ~os:(owner land 7 = 0);
      Array.unsafe_set t.tags set line;
      classify t owner line

(* Pick the victim way per policy, then shift the younger ways down and
   insert at slot 0, so age order is maintained for LRU/FIFO. *)
let[@inline never] assoc_miss t owner line base =
  let tags = t.tags and assoc = t.assoc in
  let way =
    match t.kernel with
    | Random_assoc g ->
        (* Prefer an invalid way; otherwise uniform. *)
        let w = ref 0 in
        while !w < assoc && Array.unsafe_get tags (base + !w) >= 0 do
          incr w
        done;
        if !w < assoc then !w else Prng.int g assoc
    | Direct | Victim _ | Lru_assoc | Fifo_assoc -> assoc - 1
  in
  let victim = Array.unsafe_get tags (base + way) in
  if victim >= 0 then Evictions.record t.evictions ~line:victim ~os:(owner land 7 = 0);
  for k = way downto 1 do
    Array.unsafe_set tags (base + k) (Array.unsafe_get tags (base + k - 1))
  done;
  Array.unsafe_set tags base line;
  classify t owner line

(* Each kernel probes the stream's lines in order; the stream has already
   taken the side and dropped the references that would hit without
   changing any state (Chunk.stream). *)
let run_direct t (s : Chunk.stream) =
  let lines = s.lines and owner = s.owner in
  let tags = t.tags and mask = t.sets - 1 in
  for j = 0 to s.len - 1 do
    let line = Array.unsafe_get lines j in
    if Array.unsafe_get tags (line land mask) <> line then
      direct_miss t (Array.unsafe_get owner j) line
  done

let run_assoc t (s : Chunk.stream) =
  let lines = s.lines and owner = s.owner in
  let tags = t.tags and mask = t.sets - 1 and assoc = t.assoc in
  (* LRU refreshes on hit; FIFO and Random do not. *)
  let lru =
    match t.kernel with Lru_assoc -> true | Direct | Victim _ | Fifo_assoc | Random_assoc _ -> false
  in
  for j = 0 to s.len - 1 do
    let line = Array.unsafe_get lines j in
    let base = (line land mask) * assoc in
    let way = ref 0 in
    while !way < assoc && Array.unsafe_get tags (base + !way) <> line do
      incr way
    done;
    let way = !way in
    if way = assoc then assoc_miss t (Array.unsafe_get owner j) line base
    else if lru && way > 0 then begin
      for k = way downto 1 do
        Array.unsafe_set tags (base + k) (Array.unsafe_get tags (base + k - 1))
      done;
      Array.unsafe_set tags base line
    end
  done

let reader t side = { Chunk.shift = t.line_shift; side; sets = t.sets }

let run t (s : Chunk.stream) =
  let k = t.counters in
  k.Counters.refs_os <- k.Counters.refs_os + s.os_words;
  k.Counters.refs_app <- k.Counters.refs_app + s.app_words;
  t.probes <- t.probes + s.len;
  match t.kernel with
  | Direct | Victim _ -> run_direct t s
  | Lru_assoc | Fifo_assoc | Random_assoc _ -> run_assoc t s

let probes t = t.probes

let reset_counters t =
  Counters.reset t.counters;
  Option.iter (fun store -> Array.fill store 0 (Array.length store) 0) t.block_store
