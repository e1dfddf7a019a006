type entry = { counters : Counters.t; os_block_misses : int array }

type key = string

let key ~context ~layouts ~config ~warmup_fraction ~attribute_os =
  let buf = Buffer.create 256 in
  Buffer.add_string buf context;
  Array.iter
    (fun d ->
      Buffer.add_char buf '|';
      Buffer.add_string buf d)
    layouts;
  Buffer.add_char buf '|';
  (* The runtime representation covers every Config field, including a
     Random policy's seed (Config.to_string does not). *)
  Buffer.add_string buf (Marshal.to_string (config : Config.t) []);
  Buffer.add_string buf (Printf.sprintf "|%.17g|%b" warmup_fraction attribute_os);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let table : (string, entry array) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0

(* Mirrored into the metrics registry so the manifest's metrics snapshot
   (and `icache-opt validate`'s hits + misses = lookups check) sees them
   without reaching into this module. *)
let m_hits = Metrics_registry.counter "sim_cache.hits"
let m_misses = Metrics_registry.counter "sim_cache.misses"
let m_lookups = Metrics_registry.counter "sim_cache.lookups"

let copy e =
  {
    counters = Counters.copy e.counters;
    os_block_misses = Array.copy e.os_block_misses;
  }

let find k =
  Metrics_registry.incr m_lookups;
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table k with
      | Some entries ->
          incr hit_count;
          Metrics_registry.incr m_hits;
          Some (Array.map copy entries)
      | None ->
          incr miss_count;
          Metrics_registry.incr m_misses;
          None)

let add k entries =
  let entries = Array.map copy entries in
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem table k) then Hashtbl.add table k entries)

let hits () = Mutex.protect lock (fun () -> !hit_count)

let misses () = Mutex.protect lock (fun () -> !miss_count)

let hit_rate () =
  Mutex.protect lock (fun () ->
      let total = !hit_count + !miss_count in
      if total = 0 then 0.0 else float_of_int !hit_count /. float_of_int total)

let reset_stats () =
  Mutex.protect lock (fun () ->
      hit_count := 0;
      miss_count := 0)

let clear () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)
