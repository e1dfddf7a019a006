(* A key is absent, claimed by the one caller building it, or stored. *)
type 'a slot = Building | Done of 'a

type 'a t = {
  table : (string, 'a slot) Hashtbl.t;
  lock : Mutex.t;
  built : Condition.t;  (* broadcast whenever a claim ends, stored or released *)
  hit_count : Metrics_registry.counter;
  miss_count : Metrics_registry.counter;
  lookup_count : Metrics_registry.counter;
}

type stats = { hits : int; misses : int }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let create name =
  let counter suffix = Metrics_registry.counter (name ^ suffix) in
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    built = Condition.create ();
    hit_count = counter ".hits";
    miss_count = counter ".misses";
    lookup_count = counter ".lookups";
  }

let count t ~hits ~misses =
  Metrics_registry.incr ~by:(hits + misses) t.lookup_count;
  Metrics_registry.incr ~by:hits t.hit_count;
  Metrics_registry.incr ~by:misses t.miss_count

(* Caller holds the lock.  Fills [key] unless a value is already there and
   returns what the table holds afterwards. *)
let store t key v =
  match Hashtbl.find_opt t.table key with
  | Some (Done stored) -> stored
  | Some Building | None ->
      Hashtbl.replace t.table key (Done v);
      Condition.broadcast t.built;
      v

(* Caller holds the lock.  Drop this caller's unfinished claims, so a
   waiter claims the key itself. *)
let release t keys =
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.table key with
      | Some Building -> Hashtbl.remove t.table key
      | Some (Done _) | None -> ())
    keys;
  Condition.broadcast t.built

(* Caller holds the lock; waits out other callers' claims. *)
let rec await t key =
  match Hashtbl.find_opt t.table key with
  | Some (Done v) -> `Stored v
  | Some Building ->
      Condition.wait t.built t.lock;
      await t key
  | None ->
      Hashtbl.replace t.table key Building;
      `Claimed

let build_claimed t keys build =
  match build () with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect t.lock (fun () -> release t keys);
      Printexc.raise_with_backtrace e bt

let find_or_build t key build =
  match Mutex.protect t.lock (fun () -> await t key) with
  | `Stored v ->
      count t ~hits:1 ~misses:0;
      v
  | `Claimed ->
      count t ~hits:0 ~misses:1;
      let v = build_claimed t [ key ] build in
      Mutex.protect t.lock (fun () -> store t key v)

let find_or_build_all t keys build =
  let n = Array.length keys in
  (* Claim every absent key in one pass under the lock, first occurrence
     first.  Keys another caller is building (or a repeat of a key claimed
     here) are awaited only after this call's builds are stored, so no
     caller waits while holding a claim. *)
  let stored = Array.make n None in
  let claimed = ref [] in
  Mutex.protect t.lock (fun () ->
      Array.iteri
        (fun i key ->
          match Hashtbl.find_opt t.table key with
          | Some (Done v) -> stored.(i) <- Some v
          | Some Building -> ()
          | None ->
              Hashtbl.replace t.table key Building;
              claimed := i :: !claimed)
        keys);
  let claimed = Array.of_list (List.rev !claimed) in
  let misses = Array.length claimed in
  let hits = Array.fold_left (fun k v -> if Option.is_some v then k + 1 else k) 0 stored in
  count t ~hits ~misses;
  if misses > 0 then begin
    let claimed_keys = Array.to_list (Array.map (fun i -> keys.(i)) claimed) in
    let values = build_claimed t claimed_keys (fun () -> build claimed) in
    Mutex.protect t.lock (fun () ->
        Array.iteri (fun k i -> stored.(i) <- Some (store t keys.(i) values.(k))) claimed)
  end;
  Array.mapi
    (fun i v ->
      match v with
      | Some v -> v
      | None ->
          (* Awaited keys count when they resolve, like [find_or_build]. *)
          find_or_build t keys.(i) (fun () -> (build [| i |]).(0)))
    stored

let stats t =
  {
    hits = Metrics_registry.counter_value t.hit_count;
    misses = Metrics_registry.counter_value t.miss_count;
  }

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
