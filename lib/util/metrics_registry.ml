type counter = { value : int Atomic.t }

(* Every observation, in arrival order, in the first [count] slots of
   [obs]; the array doubles when full.  A run observes a few hundred
   values per histogram, so keeping them all costs kilobytes and makes
   every reported statistic exact. *)
type histogram = { unit_ : string; mutable obs : float array; mutable count : int }

type metric = Counter of counter | Hist of histogram

let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 32

let register name make kind_label =
  let m =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some m -> m
        | None ->
            let m = make () in
            Hashtbl.add table name m;
            m)
  in
  match (m, kind_label) with
  | Counter _, `C | Hist _, `H -> m
  | _ ->
      invalid_arg
        (Printf.sprintf "Metrics_registry: %S already registered as another kind" name)

let counter name =
  match register name (fun () -> Counter { value = Atomic.make 0 }) `C with
  | Counter c -> c
  | _ -> assert false

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.value by)

let counter_value c = Atomic.get c.value

let histogram ?(unit_ = "seconds") name =
  match register name (fun () -> Hist { unit_; obs = [||]; count = 0 }) `H with
  | Hist h -> h
  | _ -> assert false

let observe h v =
  let v = if v < 0.0 then 0.0 else v in
  Mutex.protect lock (fun () ->
      if h.count = Array.length h.obs then begin
        let grown = Array.make (max 64 (2 * h.count)) 0.0 in
        Array.blit h.obs 0 grown 0 h.count;
        h.obs <- grown
      end;
      h.obs.(h.count) <- v;
      h.count <- h.count + 1)

(* Exact statistics from a sorted copy of the observations.  A
   percentile is the nearest rank: the smallest observation with at least
   [pct]% of the observations at or below it, so it is always observed. *)
let hist_json h =
  let obs = Mutex.protect lock (fun () -> Array.sub h.obs 0 h.count) in
  let n = Array.length obs in
  let sum = Array.fold_left ( +. ) 0.0 obs in
  Array.sort Float.compare obs;
  let at i = if n = 0 then 0.0 else obs.(i) in
  let pct p = at (max 0 ((((p * n) + 99) / 100) - 1)) in
  Json.Obj
    [
      ("unit", Json.String h.unit_);
      ("count", Json.Int n);
      ("sum", Json.Float sum);
      ("min", Json.Float (at 0));
      ("max", Json.Float (at (n - 1)));
      ("mean", Json.Float (if n = 0 then 0.0 else sum /. float_of_int n));
      ("p50", Json.Float (pct 50));
      ("p90", Json.Float (pct 90));
      ("p99", Json.Float (pct 99));
    ]

let find_counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Counter c) -> Some (Atomic.get c.value)
      | _ -> None)

let to_json () =
  let snapshot =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) snapshot in
  let pick f = List.filter_map f sorted in
  let counters =
    pick (function n, Counter c -> Some (n, Json.Int (Atomic.get c.value)) | _ -> None)
  in
  let hists = pick (function n, Hist h -> Some (n, hist_json h) | _ -> None) in
  Json.Obj
    [ ("counters", Json.Obj counters); ("histograms", Json.Obj hists) ]

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.value 0
          | Hist h ->
              h.obs <- [||];
              h.count <- 0)
        table)
