open Helpers

(* Validate: every document a small traced run writes is accepted under 1
   and 4 jobs, the run's stage totals are exactly its stage spans, and
   each invariant rejects a document that breaks only that invariant. *)

type run = {
  repro : Json.t;  (** What repro --format json prints. *)
  manifest : Json.t;
  trace : Json.t;  (** What --trace writes. *)
  events : Trace_log.event list;
  stages : (string * int * float) list;
}

(* One traced run of every experiment in a fresh context of this job
   count, recorded as the run as the CLI records it (the seed differs per
   count, so neither run is served from the other's memos). *)
let small_run jobs =
  lazy
    (Parallel.set_jobs jobs;
     Trace_log.reset ();
     Trace_log.set_enabled true;
     let ctx = Context.create ~spec:Spec.small ~words:60_000 ~seed:(20 + jobs) () in
     Manifest.set_run ctx ~jobs;
     let reports = List.map (fun e -> Experiments.compute e ctx) Experiments.all in
     Trace_log.set_enabled false;
     let manifest = Manifest.to_json () in
     {
       repro =
         Json.Obj
           [ ("reports", Json.List (List.map Result.to_json reports)); ("manifest", manifest) ];
       manifest;
       trace = Trace_log.to_chrome ~extra:[ ("metrics", Metrics_registry.to_json ()) ] ();
       events = Trace_log.events ();
       stages = Trace_log.stage_totals ();
     })

let run1 = small_run 1
let run4 = small_run 4

let accepts what doc =
  match Validate.json doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s rejected: %s" what e

let test_accepts jobs run () =
  let r = Lazy.force run in
  let what s = Printf.sprintf "%s at %d job(s)" s jobs in
  accepts (what "repro document") r.repro;
  accepts (what "bare manifest") r.manifest;
  accepts (what "trace") r.trace;
  (* And through the text the CLI reads. *)
  List.iter
    (fun (name, doc) ->
      match Validate.of_string (Json.to_string ~minify:true doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s text rejected: %s" (what name) e)
    [ ("repro", r.repro); ("trace", r.trace) ]

let test_stages_are_spans () =
  let r = Lazy.force run4 in
  let spans =
    match
      Trace_log.fold_spans
        (fun acc (b : Trace_log.event) dur -> (b.Trace_log.name, dur) :: acc)
        [] r.events
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check_bool "the run has stages" true (List.length r.stages > 10);
  List.iter
    (fun (name, count, seconds) ->
      let durs = List.filter_map (fun (n, d) -> if n = name then Some d else None) spans in
      check_int (name ^ ": one span per call") count (List.length durs);
      let summed = List.fold_left ( +. ) 0.0 durs in
      if Float.abs ((seconds *. 1e6) -. summed) > float_of_int count then
        Alcotest.failf "%s: stage %.3f us, spans %.3f us" name (seconds *. 1e6) summed)
    r.stages

(* ------------------------------------------------------------------ *)
(* One rejected document per invariant                                *)
(* ------------------------------------------------------------------ *)

(* [update path f j] applies [f] at [path]: object keys, or list indices
   as decimal strings. *)
let rec update path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, Json.Obj kvs ->
      Json.Obj (List.map (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v)) kvs)
  | k :: rest, Json.List l ->
      Json.List (List.mapi (fun i v -> if string_of_int i = k then update rest f v else v) l)
  | _ -> Alcotest.failf "no %s in the document" (String.concat "." path)

let set path v = update path (fun _ -> v)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Rejected, with an error that names [because]. *)
let rejects what ~because doc =
  match Validate.json doc with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> if not (contains e because) then Alcotest.failf "%s: wrong error %S" what e

let manifest () = (Lazy.force run1).manifest

let int_at path j =
  match
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  with
  | Some v -> Option.get (Json.to_int v)
  | None -> Alcotest.failf "no %s" (String.concat "." path)

let test_rejects_stages () =
  rejects "stage count 0" ~because:"count 0" (set [ "stages"; "0"; "count" ] (Json.Int 0) (manifest ()));
  rejects "negative stage seconds" ~because:"seconds"
    (set [ "stages"; "0"; "seconds" ] (Json.Float (-1.0)) (manifest ()))

let test_rejects_trio () =
  let m = manifest () in
  let path = [ "metrics"; "counters"; "sim_cache.lookups" ] in
  rejects "trio off by one" ~because:"sim_cache hits"
    (set path (Json.Int (int_at path m + 1)) m)

let test_rejects_percentile () =
  let m = manifest () in
  let name, h =
    match Json.member "histograms" (Json.member "metrics" m |> Option.get) with
    | Some (Json.Obj hs) -> List.find (fun (_, h) -> int_at [ "count" ] h > 0) hs
    | _ -> Alcotest.fail "no histograms"
  in
  let max = Option.get (Option.bind (Json.member "max" h) Json.to_float) in
  rejects "p99 above max" ~because:"outside"
    (set [ "metrics"; "histograms"; name; "p99" ] (Json.Float (max +. 1.0)) m)

let test_rejects_batch () =
  let m = manifest () in
  check_bool "the run simulated batch members" true (int_at [ "batch"; "simulated" ] m > 0);
  (* The counter moves with the field, so only the sum breaks. *)
  let m = set [ "batch"; "members" ] (Json.Int 0) m in
  let m = set [ "metrics"; "counters"; "batch.members" ] (Json.Int 0) m in
  rejects "cache_hits + simulated > members" ~because:"> members" m;
  rejects "batch field differs from its counter" ~because:"metrics counter batch.calls"
    (set [ "batch"; "calls" ] (Json.Int (int_at [ "batch"; "calls" ] (manifest ()) + 1)) (manifest ()))

let test_rejects_gc () =
  rejects "negative gc field" ~because:"gc minor_words"
    (set [ "run"; "gc"; "minor_words" ] (Json.Float (-1.0)) (manifest ()))

let test_rejects_shape () =
  rejects "v4 manifest" ~because:"fields"
    (match manifest () with
    | Json.Obj kvs -> Json.Obj (kvs @ [ ("sim_cache", Json.Obj []) ])
    | j -> j);
  rejects "other schema version" ~because:"schema_version"
    (set [ "schema_version" ] (Json.Int 4) (manifest ()))

let test_rejects_report () =
  let repro = (Lazy.force run1).repro in
  rejects "unparsable report" ~because:"report 1"
    (set [ "reports"; "1" ] (Json.Obj [ ("id", Json.Int 3) ]) repro)

let chrome events =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun (name, ph, ts, tid) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("ph", Json.String ph);
                   ("ts", Json.Float ts);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int tid);
                 ])
             events) );
    ]

let test_rejects_traces () =
  accepts "balanced trace" (chrome [ ("a", "B", 1.0, 0); ("a", "E", 2.0, 0) ]);
  rejects "unmatched end" ~because:"no open span" (chrome [ ("a", "E", 2.0, 0) ]);
  rejects "end of another span" ~because:"does not match"
    (chrome [ ("a", "B", 1.0, 0); ("b", "E", 2.0, 0) ]);
  rejects "unclosed span" ~because:"unclosed" (chrome [ ("a", "B", 1.0, 0) ]);
  rejects "negative duration" ~because:"negative duration"
    (chrome [ ("a", "B", 5.0, 0); ("a", "E", 2.0, 0) ]);
  rejects "bad metrics snapshot" ~because:"sim_cache"
    (set [ "metrics"; "counters"; "sim_cache.hits" ] (Json.Int (-1)) (Lazy.force run1).trace)

let test_rejects_text () =
  check_bool "unparsable text" true (Stdlib.Result.is_error (Validate.of_string "{\"reports\": ["))

let () =
  Alcotest.run "validate"
    [
      ( "accepts",
        [
          case "small run under 1 job" (test_accepts 1 run1);
          case "small run under 4 jobs" (test_accepts 4 run4);
          case "stage totals are the stage spans (4 jobs)" test_stages_are_spans;
        ] );
      ( "rejects",
        [
          case "stage count 0 or negative seconds" test_rejects_stages;
          case "counter trio that does not add up" test_rejects_trio;
          case "percentile outside [min, max]" test_rejects_percentile;
          case "batch over members or off its counters" test_rejects_batch;
          case "negative GC field" test_rejects_gc;
          case "other manifest shapes" test_rejects_shape;
          case "unparsable report" test_rejects_report;
          case "malformed traces" test_rejects_traces;
          case "unparsable text" test_rejects_text;
        ] );
    ]
