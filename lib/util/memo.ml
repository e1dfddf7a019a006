type 'a t = {
  table : (string, 'a) Hashtbl.t;
  lock : Mutex.t;
  hit_count : Metrics_registry.counter;
  miss_count : Metrics_registry.counter;
  lookup_count : Metrics_registry.counter;
}

type stats = { hits : int; misses : int }

let create name =
  let counter suffix = Metrics_registry.counter (name ^ suffix) in
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    hit_count = counter ".hits";
    miss_count = counter ".misses";
    lookup_count = counter ".lookups";
  }

let find t key =
  let v = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key) in
  Metrics_registry.incr t.lookup_count;
  Metrics_registry.incr (if Option.is_some v then t.hit_count else t.miss_count);
  v

(* Caller holds the lock.  Returns what the table holds afterwards. *)
let store t key v =
  match Hashtbl.find_opt t.table key with
  | Some stored -> stored
  | None ->
      Hashtbl.add t.table key v;
      v

let add t key v = Mutex.protect t.lock (fun () -> ignore (store t key v))

let find_or_build t key build =
  match find t key with
  | Some v -> v
  | None ->
      let v = build () in
      Mutex.protect t.lock (fun () -> store t key v)

let stats t =
  {
    hits = Metrics_registry.counter_value t.hit_count;
    misses = Metrics_registry.counter_value t.miss_count;
  }

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
