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
  Array.iter
    (fun key ->
      match Hashtbl.find_opt t.table key with
      | Some Building -> Hashtbl.remove t.table key
      | Some (Done _) | None -> ())
    keys;
  Condition.broadcast t.built

let find_or_build_all t keys build =
  let values = Array.make (Array.length keys) None in
  let unresolved = ref (List.init (Array.length keys) Fun.id) in
  let building i =
    match Hashtbl.find_opt t.table keys.(i) with
    | Some Building -> true
    | Some (Done _) | None -> false
  in
  while !unresolved <> [] do
    (* One round under the lock: wait while every unresolved key is another
       caller's claim, then take what is stored and claim what is absent,
       in index order so a key is claimed at its first index.  A repeat of
       a key claimed here stays unresolved and hits in the next round.
       This caller holds no claim while it waits: each round stores its
       own builds before the next begins. *)
    let claimed, hits =
      Mutex.protect t.lock (fun () ->
          while List.for_all building !unresolved do
            Condition.wait t.built t.lock
          done;
          let claimed = ref [] and hits = ref 0 in
          unresolved :=
            List.filter
              (fun i ->
                match Hashtbl.find_opt t.table keys.(i) with
                | Some (Done v) ->
                    values.(i) <- Some v;
                    incr hits;
                    false
                | Some Building -> true
                | None ->
                    Hashtbl.replace t.table keys.(i) Building;
                    claimed := i :: !claimed;
                    false)
              !unresolved;
          (Array.of_list (List.rev !claimed), !hits))
    in
    count t ~hits ~misses:(Array.length claimed);
    if claimed <> [||] then begin
      let claimed_keys = Array.map (fun i -> keys.(i)) claimed in
      let built =
        match build claimed with
        | v -> v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.protect t.lock (fun () -> release t claimed_keys);
            Printexc.raise_with_backtrace e bt
      in
      Mutex.protect t.lock (fun () ->
          Array.iteri (fun k i -> values.(i) <- Some (store t claimed_keys.(k) built.(k))) claimed)
    end
  done;
  Array.map Option.get values

let find_or_build t key build = (find_or_build_all t [| key |] (fun _ -> [| build () |])).(0)

let stats t =
  {
    hits = Metrics_registry.counter_value t.hit_count;
    misses = Metrics_registry.counter_value t.miss_count;
  }

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
