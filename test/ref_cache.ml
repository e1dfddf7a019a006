(* A deliberately naive model of every cache organization Replay drives,
   written to be checked by eye rather than to be fast: each set is a
   list of lines in age order, the last evictor of every line lives in a
   hash table (an association list made the model quadratic in the lines
   evicted), and a replay walks the trace one event at a time.  The
   differential tests hold the chunked kernels to it. *)

type policy = Lru | Fifo | Random of Prng.t

type cache = {
  sets : int;
  assoc : int;
  line : int;
  policy : policy;
  content : int list array;
      (** Per set: resident lines, newest first.  Under LRU "newest" means
          most recently used; under FIFO and Random, most recently
          inserted. *)
  evictors : (int, bool) Hashtbl.t;  (** line -> last evictor was the OS *)
  counters : Counters.t;
  blocks : (int * int, int * int * int) Hashtbl.t;
      (** (image, block) -> (misses, self-interference, cross-interference) *)
}

let cache (c : Config.t) =
  let sets = Config.sets c in
  {
    sets;
    assoc = c.Config.assoc;
    line = c.Config.line;
    policy =
      (match c.Config.policy with
      | Config.Lru -> Lru
      | Config.Fifo -> Fifo
      | Config.Random seed -> Random (Prng.of_int seed));
    content = Array.make sets [];
    evictors = Hashtbl.create 64;
    counters = Counters.create ();
    blocks = Hashtbl.create 64;
  }

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* An int-keyed [List.mem]: the stdlib one compares polymorphically, which
   makes long replays of the model needlessly slow. *)
let mem (x : int) l = List.exists (fun y -> y = x) l

let charge t ~image ~block ~kind =
  let m, s, x = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt t.blocks (image, block)) in
  Hashtbl.replace t.blocks (image, block)
    (match kind with
    | `Cold -> (m + 1, s, x)
    | `Self -> (m + 1, s + 1, x)
    | `Cross -> (m + 1, s, x + 1))

(* The paper's taxonomy: a miss on a line nobody evicted is cold,
   otherwise self- or cross-interference by its last evictor's domain. *)
let classify counters evictors ~os line =
  let c = counters in
  match (Hashtbl.find_opt evictors line, os) with
  | None, true -> c.Counters.os_cold <- c.Counters.os_cold + 1; `Cold
  | None, false -> c.Counters.app_cold <- c.Counters.app_cold + 1; `Cold
  | Some true, true -> c.Counters.os_self <- c.Counters.os_self + 1; `Self
  | Some false, false -> c.Counters.app_self <- c.Counters.app_self + 1; `Self
  | Some false, true -> c.Counters.os_cross <- c.Counters.os_cross + 1; `Cross
  | Some true, false -> c.Counters.app_cross <- c.Counters.app_cross + 1; `Cross

let count_words counters ~os ~bytes =
  let words = max 1 (bytes / 4) in
  if os then counters.Counters.refs_os <- counters.Counters.refs_os + words
  else counters.Counters.refs_app <- counters.Counters.refs_app + words

let cache_line t ~os ~image ~block line =
  let set = line mod t.sets in
  let lines = t.content.(set) in
  if mem line lines then begin
    match t.policy with
    | Lru -> t.content.(set) <- line :: List.filter (fun (l : int) -> l <> line) lines
    | Fifo | Random _ -> ()
  end
  else begin
    charge t ~image ~block ~kind:(classify t.counters t.evictors ~os line);
    (* A full set gives up its oldest line, or under Random any line. *)
    let kept =
      if List.length lines < t.assoc then lines
      else begin
        let gone =
          match t.policy with
          | Lru | Fifo -> t.assoc - 1
          | Random g -> Prng.int g t.assoc
        in
        let victim = List.nth lines gone in
        Hashtbl.replace t.evictors victim os;
        remove_nth gone lines
      end
    in
    t.content.(set) <- line :: kept
  end

let cache_access t ~os ~image ~block ~addr ~bytes =
  count_words t.counters ~os ~bytes;
  for line = addr / t.line to (addr + bytes - 1) / t.line do
    cache_line t ~os ~image ~block line
  done

(* A direct-mapped [main] cache and an MRU-first buffer of [entries]
   lines: a line displaced from the main cache enters the buffer, and
   hitting a line there swaps it back.  Only a miss in both is counted
   and charged, in [main]'s counters and blocks. *)
type victim = { main : cache; entries : int; mutable buffer : int list }

let victim_line v ~os ~image ~block line =
  let t = v.main in
  let set = line mod t.sets in
  let displaced = t.content.(set) in
  if not (mem line displaced) then begin
    if mem line v.buffer then
      v.buffer <- displaced @ List.filter (fun (l : int) -> l <> line) v.buffer
    else begin
      charge t ~image ~block ~kind:(classify t.counters t.evictors ~os line);
      let buffer = displaced @ v.buffer in
      if List.length buffer > v.entries then begin
        (* The buffer's oldest line leaves the hierarchy, evicted by [os]. *)
        let gone = List.nth buffer v.entries in
        Hashtbl.replace t.evictors gone os;
        v.buffer <- List.filteri (fun i _ -> i < v.entries) buffer
      end
      else v.buffer <- buffer
    end;
    t.content.(set) <- [ line ]
  end

type t =
  | Unified of cache
  | Split of { os_side : cache; app_side : cache }
  | Reserved of { hot : cache; rest : cache; hot_limit : int }
  | Victim of victim

let unified c = Unified (cache c)

let split ~os ~app = Split { os_side = cache os; app_side = cache app }

let reserved ~hot ~rest ~hot_limit = Reserved { hot = cache hot; rest = cache rest; hot_limit }

let victim ~main ~entries = Victim { main = cache main; entries; buffer = [] }

let caches = function
  | Unified c -> [ c ]
  | Split { os_side; app_side } -> [ os_side; app_side ]
  | Reserved { hot; rest; _ } -> [ hot; rest ]
  | Victim v -> [ v.main ]

(* One basic-block execution; image 0 is the OS. *)
let access t ~image ~block ~addr ~bytes =
  let os = image = 0 in
  match t with
  | Unified c -> cache_access c ~os ~image ~block ~addr ~bytes
  | Split { os_side; app_side } ->
      cache_access (if os then os_side else app_side) ~os ~image ~block ~addr ~bytes
  | Reserved { hot; rest; hot_limit } ->
      cache_access (if os && addr < hot_limit then hot else rest) ~os ~image ~block ~addr ~bytes
  | Victim v ->
      count_words v.main.counters ~os ~bytes;
      for line = addr / v.main.line to (addr + bytes - 1) / v.main.line do
        victim_line v ~os ~image ~block line
      done

let counters t =
  let acc = Counters.create () in
  List.iter (fun c -> Counters.add acc c.counters) (caches t);
  acc

let reset_counters t =
  List.iter
    (fun c ->
      Counters.reset c.counters;
      Hashtbl.reset c.blocks)
    (caches t)

(* Per-block (misses, self, cross) summed over the sub-caches. *)
let block_misses t ~image ~block =
  List.fold_left
    (fun (m, s, x) c ->
      let m', s', x' = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt c.blocks (image, block)) in
      (m + m', s + s', x + x'))
    (0, 0, 0) (caches t)

(* Replay's contract, one event at a time: every execution event goes to
   every model, and counters restart after the first [warmup]. *)
let replay ~trace ~(map : Chunk.code_map) ~warmup models =
  let fed = ref 0 in
  Trace.iter_exec trace (fun ~image ~block ->
      List.iter
        (fun m ->
          access m ~image ~block ~addr:map.Chunk.addr.(image).(block)
            ~bytes:map.Chunk.bytes.(image).(block))
        models;
      incr fed;
      if !fed = warmup then List.iter reset_counters models)

(* A fully-associative LRU stack, most recent line first: a reference's
   stack distance is its line's position in the list, and it misses in a
   cache of C lines iff that position is at least C. *)
type stack = {
  sline : int;
  mutable lines : int list;
  mutable distances : int list;  (** One per re-reference, latest first. *)
  mutable first_touches : int;
  mutable line_refs : int;
}

let stack ~line = { sline = line; lines = []; distances = []; first_touches = 0; line_refs = 0 }

(* One walk down to the line, keeping the lines above it reversed, so a
   re-reference costs its distance. *)
let stack_line t (line : int) =
  t.line_refs <- t.line_refs + 1;
  let rec walk d above = function
    | [] ->
        t.first_touches <- t.first_touches + 1;
        t.lines
    | l :: rest when l = line ->
        t.distances <- d :: t.distances;
        List.rev_append above rest
    | l :: rest -> walk (d + 1) (l :: above) rest
  in
  t.lines <- line :: walk 0 [] t.lines

let stack_access t ~addr ~bytes =
  for line = addr / t.sline to (addr + max 1 bytes - 1) / t.sline do
    stack_line t line
  done

let stack_misses t ~lines =
  t.first_touches + List.length (List.filter (fun d -> d >= lines) t.distances)

(* Every execution event of [trace] under [map], OS events only when
   [os_only]. *)
let stack_replay ~trace ~(map : Chunk.code_map) ~os_only t =
  Trace.iter_exec trace (fun ~image ~block ->
      if (not os_only) || image = 0 then
        stack_access t ~addr:map.Chunk.addr.(image).(block)
          ~bytes:map.Chunk.bytes.(image).(block))
