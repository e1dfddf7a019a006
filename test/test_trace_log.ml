open Helpers

(* Trace_log + Metrics_registry: the observability layer must (a) emit
   well-formed Chrome traces — balanced begin/end, non-negative durations,
   proper nesting per track — that round-trip through the Json parser,
   (b) record the same span/metric *structure* regardless of the worker
   domain count (timestamps and track assignment may differ; counts may
   not), and (c) cost nothing but a branch when disabled. *)

(* ------------------------------------------------------------------ *)
(* Span-stream well-formedness helpers                                *)
(* ------------------------------------------------------------------ *)

(* Replay the event stream against per-track stacks; returns the list of
   completed (name, duration_us) spans.  Fails the test on unbalanced or
   badly nested events. *)
let check_stream events =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref [] in
  List.iter
    (fun (e : Trace_log.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.Trace_log.track with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.Trace_log.track s;
            s
      in
      if e.Trace_log.begin_ then stack := (e.name, e.ts) :: !stack
      else
        match !stack with
        | (n, t0) :: rest ->
            if n <> e.Trace_log.name then
              Alcotest.failf "track %d: end %S does not match open span %S"
                e.Trace_log.track e.Trace_log.name n;
            stack := rest;
            spans := (n, e.Trace_log.ts -. t0) :: !spans
        | [] ->
            Alcotest.failf "track %d: end %S with no open span" e.Trace_log.track
              e.Trace_log.name)
    events;
  Hashtbl.iter
    (fun track s ->
      if !s <> [] then Alcotest.failf "track %d: unclosed span(s)" track)
    stacks;
  List.rev !spans

let fresh () =
  Trace_log.reset ();
  Trace_log.set_enabled true

let quiesce () = Trace_log.set_enabled false

(* ------------------------------------------------------------------ *)
(* Unit: disabled fast path                                           *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Trace_log.reset ();
  Trace_log.set_enabled false;
  let r = Trace_log.with_span "ghost" (fun () -> 41 + 1) in
  check_int "result passes through" 42 r;
  check_int "no events" 0 (List.length (Trace_log.events ()));
  check_int "no spans" 0 (Trace_log.span_count ())

let test_disabled_propagates_exceptions () =
  Trace_log.reset ();
  Trace_log.set_enabled false;
  (match Trace_log.with_span "ghost" (fun () -> failwith "boom") with
  | exception Failure m -> check_string "exception surfaces" "boom" m
  | _ -> Alcotest.fail "expected Failure");
  check_int "still no events" 0 (List.length (Trace_log.events ()))

(* ------------------------------------------------------------------ *)
(* Unit: span recording                                               *)
(* ------------------------------------------------------------------ *)

let test_span_records_pair () =
  fresh ();
  let r =
    Trace_log.with_span "outer" ~args:[ ("k", Json.Int 7) ] (fun () ->
        Trace_log.with_span "inner" (fun () -> "v"))
  in
  quiesce ();
  check_string "result" "v" r;
  let events = Trace_log.events () in
  check_int "four events" 4 (List.length events);
  (match events with
  | [ b_out; b_in; e_in; e_out ] ->
      check_string "outer begins first" "outer" b_out.Trace_log.name;
      check_bool "is begin" true b_out.Trace_log.begin_;
      check_string "inner nested" "inner" b_in.Trace_log.name;
      check_bool "inner end before outer end" true
        (e_in.Trace_log.name = "inner" && not e_in.Trace_log.begin_);
      check_bool "outer end last" true
        (e_out.Trace_log.name = "outer" && not e_out.Trace_log.begin_);
      check_bool "args preserved" true
        (b_out.Trace_log.args = [ ("k", Json.Int 7) ])
  | _ -> Alcotest.fail "unexpected event shape");
  let spans = check_stream events in
  check_int "two completed spans" 2 (List.length spans);
  List.iter
    (fun (n, d) -> check_bool (n ^ " duration >= 0") true (d >= 0.0))
    spans;
  check_int "span_count agrees" 2 (Trace_log.span_count ())

let test_span_end_recorded_on_raise () =
  fresh ();
  (try Trace_log.with_span "bang" (fun () -> failwith "x") with Failure _ -> ());
  quiesce ();
  ignore (check_stream (Trace_log.events ()));
  check_int "span completed despite raise" 1 (Trace_log.span_count ())

(* [after]'s arguments join the begin event once the body returns, even
   when a nested span grew the buffer meanwhile; a raise skips them, and
   an untraced span never evaluates them. *)
let test_span_after_args () =
  fresh ();
  let r =
    Trace_log.with_span "outer" ~args:[ ("k", Json.Int 7) ]
      ~after:(fun () -> [ ("late", Json.Int 3) ])
      (fun () ->
        for _ = 1 to 300 do
          Trace_log.with_span "inner" Fun.id
        done;
        "v")
  in
  (try
     Trace_log.with_span "bang" ~after:(fun () -> [ ("late", Json.Int 0) ]) (fun () ->
         failwith "x")
   with Failure _ -> ());
  quiesce ();
  check_string "result" "v" r;
  let begins name =
    List.filter_map
      (fun (e : Trace_log.event) ->
        if e.Trace_log.begin_ && e.Trace_log.name = name then Some e.Trace_log.args else None)
      (Trace_log.events ())
  in
  check_bool "args, then after's" true
    (begins "outer" = [ [ ("k", Json.Int 7); ("late", Json.Int 3) ] ]);
  check_bool "a raise skips after" true (begins "bang" = [ [] ]);
  Trace_log.set_enabled false;
  Trace_log.with_span "ghost" ~after:(fun () -> Alcotest.fail "after evaluated untraced") Fun.id

(* ------------------------------------------------------------------ *)
(* QCheck: random span forests are well-formed and round-trip          *)
(* ------------------------------------------------------------------ *)

type tree = Node of string * tree list

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 20)
    @@ fix (fun self n ->
           let name = map (fun i -> "s" ^ string_of_int i) (int_bound 5) in
           if n = 0 then map (fun s -> Node (s, [])) name
           else
             map2
               (fun s kids -> Node (s, kids))
               name
               (list_size (int_bound 3) (self (n / 2)))))

let forest_arb =
  QCheck.make
    ~print:(fun f ->
      let rec pp (Node (s, kids)) =
        s ^ "(" ^ String.concat "," (List.map pp kids) ^ ")"
      in
      String.concat ";" (List.map pp f))
    QCheck.Gen.(list_size (int_bound 4) tree_gen)

let rec exec (Node (s, kids)) =
  Trace_log.with_span s (fun () -> List.iter exec kids)

let rec tree_size (Node (_, kids)) =
  1 + List.fold_left (fun acc k -> acc + tree_size k) 0 kids

let prop_forest_well_formed =
  QCheck.Test.make ~count:50 ~name:"random span forest: balanced, nested, json round-trips"
    forest_arb (fun forest ->
      fresh ();
      List.iter exec forest;
      quiesce ();
      let events = Trace_log.events () in
      let spans = check_stream events in
      let expected = List.fold_left (fun acc t -> acc + tree_size t) 0 forest in
      if List.length spans <> expected then
        QCheck.Test.fail_reportf "expected %d spans, got %d" expected
          (List.length spans);
      if not (List.for_all (fun (_, d) -> d >= 0.0) spans) then
        QCheck.Test.fail_report "negative span duration";
      (* The Chrome document must survive the Json emitter/parser pair
         both pretty-printed and minified. *)
      let doc = Trace_log.to_chrome () in
      (match Json.of_string (Json.to_string doc) with
      | Ok doc' when doc' = doc -> ()
      | Ok _ -> QCheck.Test.fail_report "chrome json drifted through round-trip"
      | Error e -> QCheck.Test.fail_reportf "chrome json does not parse: %s" e);
      (match Json.of_string (Json.to_string ~minify:true doc) with
      | Ok doc' when doc' = doc -> ()
      | _ -> QCheck.Test.fail_report "minified chrome json drifted");
      true)

(* ------------------------------------------------------------------ *)
(* Structure is identical under 1 and 4 worker domains                *)
(* ------------------------------------------------------------------ *)

(* A fixed fan-out workload with nested spans and metrics.  Timestamps
   and track ids legitimately differ between job counts; the span-name
   multiset and every metric count must not.  (parallel.* registry
   counters are excluded by construction: they measure the fan-out
   itself, which is exactly what varies.) *)
let parity_counter = Metrics_registry.counter "test.parity_items"
let parity_hist = Metrics_registry.histogram ~unit_:"units" "test.parity_obs"

let run_parity_workload ~jobs =
  let items = Array.init 12 (fun i -> i) in
  ignore
    (Parallel.map_array ~jobs
       (fun i x ->
         Trace_log.with_span "parity_outer" (fun () ->
             Metrics_registry.incr parity_counter;
             Metrics_registry.observe parity_hist (float_of_int (x + 1));
             Trace_log.with_span "parity_inner" (fun () -> (x * 2) + i)))
       items)

let span_name_counts () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace_log.event) ->
      if e.Trace_log.begin_ then
        Hashtbl.replace tbl e.Trace_log.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.Trace_log.name)))
    (Trace_log.events ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let hist_count name =
  match Json.member "histograms" (Metrics_registry.to_json ()) with
  | Some hs -> (
      match Option.bind (Json.member name hs) (Json.member "count") with
      | Some j -> Option.value ~default:(-1) (Json.to_int j)
      | None -> -1)
  | None -> -1

let test_jobs_parity () =
  let snapshot jobs =
    Metrics_registry.reset ();
    fresh ();
    run_parity_workload ~jobs;
    quiesce ();
    ignore (check_stream (Trace_log.events ()));
    ( span_name_counts (),
      Option.value ~default:(-1) (Metrics_registry.find_counter "test.parity_items"),
      hist_count "test.parity_obs" )
  in
  let spans1, counter1, hist1 = snapshot 1 in
  let spans4, counter4, hist4 = snapshot 4 in
  check_bool "span name counts identical under 1 and 4 jobs" true (spans1 = spans4);
  check_int "counter count identical" counter1 counter4;
  check_int "histogram count identical" hist1 hist4;
  check_int "counter saw every item" 12 counter1;
  check_bool "both span kinds present" true
    (spans1 = [ ("parity_inner", 12); ("parity_outer", 12) ])

let test_tracks_under_four_jobs () =
  fresh ();
  (* Four tasks that each wait until all four have started, so every
     runner of a 4-job fan-out holds one: the caller runs its own tasks
     on track 0 and the pool's three persistent workers use tracks 1-3. *)
  let started = Atomic.make 0 in
  let deadline = Trace_log.now () +. 10.0 in
  let met =
    Parallel.map_array ~jobs:4
      (fun _ () ->
        Trace_log.with_span "rendezvous" (fun () ->
            Atomic.incr started;
            while Atomic.get started < 4 && Trace_log.now () < deadline do
              Domain.cpu_relax ()
            done;
            Atomic.get started = 4))
      (Array.make 4 ())
  in
  quiesce ();
  check_bool "all four tasks ran at once" true (Array.for_all Fun.id met);
  let tracks =
    List.sort_uniq compare
      (List.map (fun (e : Trace_log.event) -> e.Trace_log.track) (Trace_log.events ()))
  in
  check_bool "caller on track 0, workers on 1-3" true (tracks = [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Stages: the span that also keeps a total                           *)
(* ------------------------------------------------------------------ *)

let stage_row name =
  List.find_opt (fun (n, _, _) -> n = name) (Trace_log.stage_totals ())

let test_stage_totals_untraced () =
  Trace_log.reset ();
  Trace_log.set_enabled false;
  check_int "result passes through" 7 (Trace_log.stage "st" (fun () -> 7));
  (try Trace_log.stage "st" (fun () -> failwith "x") with Failure _ -> ());
  ignore (Trace_log.with_span "not_a_stage" (fun () -> ()));
  (match stage_row "st" with
  | Some (_, count, seconds) ->
      check_int "both calls counted, the raising one too" 2 count;
      check_bool "seconds >= 0" true (seconds >= 0.0)
  | None -> Alcotest.fail "no st row");
  check_bool "with_span keeps no total" true (stage_row "not_a_stage" = None);
  check_int "no events while disabled" 0 (List.length (Trace_log.events ()))

let test_stage_total_is_its_spans () =
  fresh ();
  for _ = 1 to 3 do
    Trace_log.stage "outer" (fun () -> Trace_log.stage "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id))))
  done;
  quiesce ();
  let spans =
    match
      Trace_log.fold_spans
        (fun acc (b : Trace_log.event) dur -> (b.Trace_log.name, dur) :: acc)
        [] (Trace_log.events ())
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun name ->
      let durs = List.filter_map (fun (n, d) -> if n = name then Some d else None) spans in
      match stage_row name with
      | Some (_, count, seconds) ->
          check_int (name ^ ": one span per call") count (List.length durs);
          check_close 1e-3 (name ^ ": total = summed span us") (seconds *. 1e6)
            (List.fold_left ( +. ) 0.0 durs)
      | None -> Alcotest.failf "no %s row" name)
    [ "outer"; "inner" ];
  check_bool "rows in order of first completion" true
    (List.map (fun (n, _, _) -> n) (Trace_log.stage_totals ()) = [ "inner"; "outer" ])

(* ------------------------------------------------------------------ *)
(* Chrome round trip and the shared span fold                         *)
(* ------------------------------------------------------------------ *)

let prop_of_chrome_inverts_to_chrome =
  QCheck.Test.make ~count:50 ~name:"of_chrome (to_chrome ()) keeps name, phase, track, ts"
    forest_arb (fun forest ->
      fresh ();
      ignore (Parallel.map_array ~jobs:2 (fun _ t -> exec t) (Array.of_list forest));
      quiesce ();
      let key (e : Trace_log.event) = (e.Trace_log.name, e.Trace_log.begin_, e.Trace_log.track, e.Trace_log.ts) in
      let doc = Json.of_string (Json.to_string ~minify:true (Trace_log.to_chrome ())) in
      match Stdlib.Result.bind doc Trace_log.of_chrome with
      | Ok events -> List.map key events = List.map key (Trace_log.events ())
      | Error e -> QCheck.Test.fail_reportf "of_chrome: %s" e)

let test_fold_rejects_malformed () =
  let ev seq name begin_ ts track = { Trace_log.seq; name; begin_; ts; track; args = [] } in
  let rejects what events =
    check_bool what true (Stdlib.Result.is_error (Trace_log.fold_spans (fun () _ _ -> ()) () events))
  in
  rejects "end without begin" [ ev 0 "a" false 1.0 0 ];
  rejects "end of the wrong span" [ ev 0 "a" true 1.0 0; ev 1 "b" false 2.0 0 ];
  rejects "unclosed span" [ ev 0 "a" true 1.0 0 ];
  check_bool "tracks pair independently" true
    (Trace_log.fold_spans
       (fun n _ _ -> n + 1)
       0
       [ ev 0 "a" true 1.0 0; ev 1 "a" true 1.5 1; ev 2 "a" false 2.0 0; ev 3 "a" false 3.0 1 ]
    = Ok 2)

(* ------------------------------------------------------------------ *)
(* Histogram.percentile                                               *)
(* ------------------------------------------------------------------ *)

let test_percentile_linear () =
  let h = Histogram.linear ~lo:0 ~hi:100 ~bucket:1 in
  for v = 1 to 100 do
    Histogram.add h v
  done;
  check_close 1.0 "p50 of 1..100" 50.0 (Histogram.percentile h 0.5);
  check_close 1.0 "p90 of 1..100" 90.0 (Histogram.percentile h 0.9);
  check_close 1.0 "p99 of 1..100" 99.0 (Histogram.percentile h 0.99);
  check_close 1.0 "p0 clamps" 1.0 (Histogram.percentile h 0.0);
  check_close 1.0 "p100 clamps" 100.0 (Histogram.percentile h 1.0)

let test_percentile_edges () =
  let h = Histogram.linear ~lo:0 ~hi:10 ~bucket:1 in
  check_float "empty histogram is 0" 0.0 (Histogram.percentile h 0.5);
  Histogram.add_many h 3 1000;
  let p50 = Histogram.percentile h 0.5 in
  check_bool "single-bucket p50 inside [3,4)" true (p50 >= 3.0 && p50 < 4.0);
  (* p clamps into [0,1]; p=1 interpolates to the bucket's upper edge. *)
  check_bool "out-of-range p clamps" true
    (Histogram.percentile h (-1.0) >= 3.0 && Histogram.percentile h 2.0 <= 4.0)

let prop_percentile_monotone =
  QCheck.Test.make ~count:100 ~name:"percentiles are monotone in p"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
    (fun samples ->
      let h = Histogram.log2 ~max_exp:20 in
      List.iter (Histogram.add h) samples;
      let p50 = Histogram.percentile h 0.5 in
      let p90 = Histogram.percentile h 0.9 in
      let p99 = Histogram.percentile h 0.99 in
      p50 <= p90 && p90 <= p99)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_registry_get_or_create () =
  let a = Metrics_registry.counter "test.reg_counter" in
  let b = Metrics_registry.counter "test.reg_counter" in
  Metrics_registry.incr a;
  Metrics_registry.incr ~by:4 b;
  check_int "one underlying counter" 5 (Metrics_registry.counter_value a);
  check_bool "find_counter sees it" true
    (Metrics_registry.find_counter "test.reg_counter" = Some 5);
  check_bool "unknown name is None" true
    (Metrics_registry.find_counter "test.no_such" = None);
  check_raises_invalid "kind clash rejected" (fun () ->
      Metrics_registry.histogram "test.reg_counter")

let test_registry_json_shape () =
  let h = Metrics_registry.histogram ~unit_:"widgets" "test.shape_hist" in
  List.iter (fun v -> Metrics_registry.observe h (float_of_int v)) [ 1; 2; 3; 4 ];
  let j = Metrics_registry.to_json () in
  let dig path =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  check_bool "hist count" true
    (dig [ "histograms"; "test.shape_hist"; "count" ] = Some (Json.Int 4));
  check_bool "hist unit" true
    (dig [ "histograms"; "test.shape_hist"; "unit" ] = Some (Json.String "widgets"));
  (match Option.bind (dig [ "histograms"; "test.shape_hist"; "mean" ]) Json.to_float with
  | Some m -> check_close 1e-9 "hist mean exact" 2.5 m
  | None -> Alcotest.fail "missing mean");
  (match Option.bind (dig [ "histograms"; "test.shape_hist"; "max" ]) Json.to_float with
  | Some m -> check_close 1e-9 "hist max exact" 4.0 m
  | None -> Alcotest.fail "missing max");
  (* The snapshot itself must round-trip like any manifest fragment. *)
  check_bool "metrics json round-trips" true
    (Json.of_string (Json.to_string j) = Ok j)

let test_observe_clamps_negative () =
  let h = Metrics_registry.histogram "test.clamp_hist" in
  Metrics_registry.observe h (-5.0);
  (* A clamped observation lands in the [0, 1) micro-unit bucket, so the
     interpolated percentile is at most one micro-unit. *)
  let p = Metrics_registry.percentile h 0.5 in
  check_bool "negative clamps to 0" true (p >= 0.0 && p <= 1e-6)

(* Bucket interpolation must never report a percentile outside what was
   observed: one observation of 0.31 s sits in a bucket reaching 0.52 s. *)
let prop_registry_percentiles_in_range =
  let fresh = ref 0 in
  QCheck.Test.make ~count:200 ~name:"registry: min <= p50 <= p90 <= p99 <= max"
    QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_inclusive 10.0))
    (fun obs ->
      incr fresh;
      let name = Printf.sprintf "test.pct_range_%d" !fresh in
      let h = Metrics_registry.histogram name in
      List.iter (Metrics_registry.observe h) obs;
      let field f =
        match
          Option.bind
            (Option.bind
               (Json.member "histograms" (Metrics_registry.to_json ()))
               (Json.member name))
            (Json.member f)
        with
        | Some (Json.Float x) -> x
        | _ -> Alcotest.failf "histogram %s: no %s" name f
      in
      let p q = Metrics_registry.percentile h q in
      field "min" <= p 0.5
      && p 0.5 <= p 0.9
      && p 0.9 <= p 0.99
      && p 0.99 <= field "max"
      && field "p50" = p 0.5
      && field "p99" = p 0.99)

let () =
  Alcotest.run "trace_log"
    [
      ( "disabled",
        [
          case "records nothing" test_disabled_records_nothing;
          case "propagates exceptions" test_disabled_propagates_exceptions;
        ] );
      ( "spans",
        [
          case "begin/end pair with nesting and args" test_span_records_pair;
          case "end recorded when f raises" test_span_end_recorded_on_raise;
          case "after's args join the begin event" test_span_after_args;
          qcheck prop_forest_well_formed;
          qcheck prop_of_chrome_inverts_to_chrome;
          case "fold rejects unmatched and unclosed spans" test_fold_rejects_malformed;
        ] );
      ( "stages",
        [
          case "totals count every call, traced or not" test_stage_totals_untraced;
          case "a stage's total is its spans' summed duration" test_stage_total_is_its_spans;
        ] );
      ( "parallel",
        [
          case "span/metric counts identical under 1 and 4 jobs" test_jobs_parity;
          case "one track per worker under 4 jobs" test_tracks_under_four_jobs;
        ] );
      ( "percentiles",
        [
          case "linear 1..100" test_percentile_linear;
          case "edge cases" test_percentile_edges;
          qcheck prop_percentile_monotone;
        ] );
      ( "registry",
        [
          case "get-or-create and kind clash" test_registry_get_or_create;
          case "json snapshot shape" test_registry_json_shape;
          case "negative observations clamp" test_observe_clamps_negative;
          qcheck prop_registry_percentiles_in_range;
        ] );
    ]
