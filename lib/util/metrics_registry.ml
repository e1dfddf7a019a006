type counter = { value : int Atomic.t }

(* Observations are scaled to integer micro-units and bucketed by binary
   magnitude; 2^52 micro-units covers ~4.5e9 whole units, far beyond any
   duration or rate the pipeline records.  Exact sum/min/max ride along so
   only percentiles are bucket-quantized. *)
let micro = 1e6
let hist_max_exp = 52

type histogram = {
  unit_ : string;
  mutable buckets : Histogram.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

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
  match
    register name
      (fun () ->
        Hist
          {
            unit_;
            buckets = Histogram.log2 ~max_exp:hist_max_exp;
            count = 0;
            sum = 0.0;
            min_v = infinity;
            max_v = neg_infinity;
          })
      `H
  with
  | Hist h -> h
  | _ -> assert false

let observe h v =
  let v = if v < 0.0 then 0.0 else v in
  Mutex.protect lock (fun () ->
      Histogram.add h.buckets (int_of_float (v *. micro));
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v)

(* Bucket interpolation can land anywhere in the occupied bucket, which
   may reach past the observed range (one observation of 0.31 s sits in a
   bucket spanning 0.26-0.52 s); clamp to the exact [min, max]. *)
let pct h p =
  if h.count = 0 then 0.0
  else Float.min h.max_v (Float.max h.min_v (Histogram.percentile h.buckets p /. micro))

let percentile h p = Mutex.protect lock (fun () -> pct h p)

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
  let hists =
    pick (function
      | n, Hist h ->
          let empty = h.count = 0 in
          Some
            ( n,
              Json.Obj
                [
                  ("unit", Json.String h.unit_);
                  ("count", Json.Int h.count);
                  ("sum", Json.Float h.sum);
                  ("min", Json.Float (if empty then 0.0 else h.min_v));
                  ("max", Json.Float (if empty then 0.0 else h.max_v));
                  ( "mean",
                    Json.Float (if empty then 0.0 else h.sum /. float_of_int h.count) );
                  ("p50", Json.Float (pct h 0.5));
                  ("p90", Json.Float (pct h 0.9));
                  ("p99", Json.Float (pct h 0.99));
                ] )
      | _ -> None)
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("histograms", Json.Obj hists) ]

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.value 0
          | Hist h ->
              h.buckets <- Histogram.copy_empty h.buckets;
              h.count <- 0;
              h.sum <- 0.0;
              h.min_v <- infinity;
              h.max_v <- neg_infinity)
        table)
