open Helpers

(* The determinism harness for the parallel runner: simulating with 1
   domain and with N domains must be *bit-identical* — same counters,
   same per-block miss arrays, same captured traces event for event.
   Parallelism is only allowed to change wall-clock time, never results;
   these tests are run under both ICACHE_JOBS=1 and =4 by `make check`. *)

let config = Config.make ~size_kb:8 ()

(* Two contexts over the same (spec, words, seed): one captured strictly
   sequentially, one with four worker domains. *)
let ctx_seq = lazy (Context.create ~spec:Spec.small ~words:100_000 ~seed:7 ~jobs:1 ())
let ctx_par = lazy (Context.create ~spec:Spec.small ~words:100_000 ~seed:7 ~jobs:4 ())

let check_counters name (a : Counters.t) (b : Counters.t) =
  check_int (name ^ ": refs_os") a.Counters.refs_os b.Counters.refs_os;
  check_int (name ^ ": refs_app") a.Counters.refs_app b.Counters.refs_app;
  check_int (name ^ ": os_cold") a.Counters.os_cold b.Counters.os_cold;
  check_int (name ^ ": os_self") a.Counters.os_self b.Counters.os_self;
  check_int (name ^ ": os_cross") a.Counters.os_cross b.Counters.os_cross;
  check_int (name ^ ": app_cold") a.Counters.app_cold b.Counters.app_cold;
  check_int (name ^ ": app_self") a.Counters.app_self b.Counters.app_self;
  check_int (name ^ ": app_cross") a.Counters.app_cross b.Counters.app_cross

(* --- Runner.simulate: parallel == sequential ---------------------- *)

let test_runner_determinism () =
  let ctx = Lazy.force ctx_seq in
  let layouts = Levels.build ctx Levels.OptS in
  let simulate jobs =
    (* Through the uncached [simulate] entry point, so every job count
       actually replays rather than hitting Sim_cache. *)
    with_jobs jobs (fun () ->
        Runner.simulate ctx ~layouts
          ~system:(fun () -> System.unified config)
          ~attribute_os:true ())
  in
  let seq = simulate 1 in
  check_int "one run per workload" (Context.workload_count ctx) (Array.length seq);
  List.iter
    (fun jobs ->
      let par = simulate jobs in
      check_int "same workload count" (Array.length seq) (Array.length par);
      Array.iteri
        (fun i (s : Runner.run) ->
          let p = par.(i) in
          let name = Printf.sprintf "workload %d, %d jobs" i jobs in
          check_counters name s.Runner.counters p.Runner.counters;
          check_bool (name ^ ": os_block_misses bit-identical") true
            (s.Runner.os_block_misses = p.Runner.os_block_misses))
        seq)
    [ 2; 3; 4 ]

let test_runner_totals () =
  let ctx = Lazy.force ctx_seq in
  let layouts = Levels.build ctx Levels.Base in
  let totals jobs =
    with_jobs jobs (fun () ->
        Runner.total
          (Runner.simulate ctx ~layouts ~system:(fun () -> System.unified config) ()))
  in
  check_counters "merged totals" (totals 1) (totals 4)

(* --- Context.create: parallel capture == sequential capture ------- *)

let test_context_traces_identical () =
  let a = Lazy.force ctx_seq and b = Lazy.force ctx_par in
  check_int "same workload count" (Context.workload_count a)
    (Context.workload_count b);
  check_string "same context key" (Context.key a) (Context.key b);
  Array.iteri
    (fun i ta ->
      let tb = b.Context.traces.(i) in
      let name = Printf.sprintf "workload %d" i in
      check_int (name ^ ": trace length") (Trace.length ta) (Trace.length tb);
      let mismatch = ref (-1) in
      for k = Trace.length ta - 1 downto 0 do
        if Trace.raw ta k <> Trace.raw tb k then mismatch := k
      done;
      if !mismatch >= 0 then
        Alcotest.failf "%s: traces diverge at event %d" name !mismatch)
    a.Context.traces

let test_context_stats_identical () =
  let a = Lazy.force ctx_seq and b = Lazy.force ctx_par in
  Array.iteri
    (fun i (sa : Engine.stats) ->
      let sb = b.Context.stats.(i) in
      let name = Printf.sprintf "workload %d" i in
      check_int (name ^ ": total words") sa.Engine.total_words sb.Engine.total_words;
      check_int (name ^ ": os words") sa.Engine.os_words sb.Engine.os_words;
      check_int (name ^ ": app words") sa.Engine.app_words sb.Engine.app_words;
      check_int (name ^ ": context switches") sa.Engine.context_switches
        sb.Engine.context_switches;
      check_bool (name ^ ": invocation mix") true
        (sa.Engine.invocations = sb.Engine.invocations))
    a.Context.stats

let test_context_profiles_identical () =
  let a = Lazy.force ctx_seq and b = Lazy.force ctx_par in
  Array.iteri
    (fun i (pa : Profile.t) ->
      let pb = b.Context.os_profiles.(i) in
      let name = Printf.sprintf "workload %d" i in
      check_bool (name ^ ": OS block weights") true (pa.Profile.block = pb.Profile.block);
      check_bool (name ^ ": OS arc weights") true (pa.Profile.arc = pb.Profile.arc);
      check_float (name ^ ": invocations") pa.Profile.invocations pb.Profile.invocations)
    a.Context.os_profiles;
  check_bool "averaged OS profile" true
    (a.Context.avg_os_profile.Profile.block = b.Context.avg_os_profile.Profile.block)

(* --- Sim_cache: memoized replay returns the same runs ------------- *)

let test_sim_cache_roundtrip () =
  let ctx = Lazy.force ctx_seq in
  let layouts = Levels.build ctx Levels.CH in
  let cfg = Config.make ~size_kb:4 () in
  let simulate () =
    (Runner.simulate_batch ctx ~members:[| (layouts, cfg) |] ~attribute_os:true ()).(0)
  in
  let r1 = simulate () in
  let h0 = Sim_cache.hits () and m0 = Sim_cache.misses () in
  let r2 = simulate () in
  check_int "re-lookup is a hit" (h0 + 1) (Sim_cache.hits ());
  check_int "re-lookup is not a miss" m0 (Sim_cache.misses ());
  Array.iteri
    (fun i (a : Runner.run) ->
      let b = r2.(i) in
      let name = Printf.sprintf "cached workload %d" i in
      check_counters name a.Runner.counters b.Runner.counters;
      check_bool (name ^ ": os_block_misses") true
        (a.Runner.os_block_misses = b.Runner.os_block_misses))
    r1

let test_sim_cache_copies () =
  let ctx = Lazy.force ctx_seq in
  let layouts = Levels.build ctx Levels.CH in
  let cfg = Config.make ~size_kb:4 () in
  let r1 = (Runner.simulate_batch ctx ~members:[| (layouts, cfg) |] ()).(0) in
  let refs_before = Counters.refs r1.(0).Runner.counters in
  (* Mutating what a caller got back must not poison the cache. *)
  Counters.reset r1.(0).Runner.counters;
  let r2 = (Runner.simulate_batch ctx ~members:[| (layouts, cfg) |] ()).(0) in
  check_int "cache unaffected by caller mutation" refs_before
    (Counters.refs r2.(0).Runner.counters)

(* --- Experiments that fan out: reports identical across job counts - *)

let test_reports_identical () =
  let ctx = Lazy.force ctx_seq in
  List.iter
    (fun (name, report) ->
      let render jobs = with_jobs jobs (fun () -> Result.render_text (report ctx)) in
      check_string (name ^ ": 1 job == 4 jobs") (render 1) (render 4))
    [ ("curve", Exp_curve.report); ("inline", Exp_inline.report); ("robust", Exp_robust.report) ]

(* --- Context reuse: one kernel per spec, the parent as robust's 1x -- *)

let counter name = Option.value ~default:0 (Metrics_registry.find_counter name)

let test_model_shared () =
  let a = Lazy.force ctx_seq and b = Lazy.force ctx_par in
  check_bool "one spec, one model" true (a.Context.model == b.Context.model)

let stage_calls name =
  List.fold_left
    (fun acc (n, calls, _) -> if String.equal n name then calls else acc)
    0 (Trace_log.stage_totals ())

let test_robust_reuses_context () =
  (* A context no other case builds, so its budgets' keys are fresh. *)
  let ctx = Context.create ~spec:Spec.small ~words:40_000 ~seed:5 () in
  ignore (Levels.build ctx Levels.OptS);
  ignore (Levels.build ctx Levels.Base);
  let captures = stage_calls "trace_capture" and places = counter "layout_cache.place.misses" in
  let models = counter "kernel_model.misses" in
  let r = Exp_robust.report ctx in
  check_int "four budgets" 4 (List.length (nums r "OptS/Base"));
  check_int "three new contexts: the 1x budget is the parent" (captures + 3)
    (stage_calls "trace_capture");
  check_int "one new OptS placement per new context, none for the 1x budget" (places + 3)
    (counter "layout_cache.place.misses");
  check_int "no kernel regenerated" models (counter "kernel_model.misses")

(* --- The whole suite: results and memo counts independent of jobs -- *)

let suite_counters () =
  match Json.member "counters" (Metrics_registry.to_json ()) with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          let memo =
            List.exists (fun s -> String.ends_with ~suffix:s k) [ ".hits"; ".misses"; ".lookups" ]
          in
          if memo || String.starts_with ~prefix:"batch." k then
            Some (k, Option.value ~default:(-1) (Json.to_int v))
          else None)
        kvs
  | _ -> Alcotest.fail "no counters in the metrics snapshot"

let is_memo_counter (k, _) = not (String.starts_with ~prefix:"batch." k)

(* Every experiment from cold memos: the rendered reports and each
   counter's increase over the run. *)
let cold_suite jobs compute =
  with_jobs jobs (fun () ->
      Sim_cache.clear ();
      Layout_cache.clear ();
      let before = suite_counters () in
      let reports = List.map Result.render_text (compute ()) in
      let after = suite_counters () in
      ( reports,
        List.map
          (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
          after ))

let test_suite_counters_and_reports () =
  let ctx = Lazy.force small_context in
  let one_at_a_time () = List.map (fun e -> Experiments.compute e ctx) Experiments.all in
  let reports1, counts1 = cold_suite 1 one_at_a_time in
  let reports4, counts4 = cold_suite 4 one_at_a_time in
  let reports_all, counts_all =
    cold_suite 4 (fun () -> Experiments.compute_all Experiments.all ctx)
  in
  check_int "one report per experiment" (List.length Experiments.all) (List.length reports1);
  List.iter2
    (fun (e : Experiments.t) (r1, (r4, r_all)) ->
      check_string (e.Experiments.id ^ ": 1 job == 4 jobs") r1 r4;
      check_string (e.Experiments.id ^ ": compute_all == one at a time") r1 r_all)
    Experiments.all
    (List.combine reports1 (List.combine reports4 reports_all));
  check_bool "memo trios counted" true (List.exists is_memo_counter counts1);
  List.iter2
    (fun (k, v1) (k', v4) ->
      check_string "same counters" k k';
      check_int (k ^ ": 1 job == 4 jobs") v1 v4)
    counts1 counts4;
  (* Concurrent experiments may split a shared key's replay differently
     between their batches, so only the memo trios must match here. *)
  List.iter2
    (fun (k, v1) (_, v_all) -> check_int (k ^ ": compute_all == one at a time") v1 v_all)
    (List.filter is_memo_counter counts1)
    (List.filter is_memo_counter counts_all)

(* Every replay is counted: the whole suite from cold memos, traced,
   records exactly as many replay_pass spans as batch.replay_passes
   rises, and each says how many stream entries its kernels read. *)
let test_every_pass_counted () =
  let ctx = Lazy.force small_context in
  Sim_cache.clear ();
  Layout_cache.clear ();
  let passes0 = counter "batch.replay_passes" in
  Trace_log.reset ();
  Trace_log.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace_log.set_enabled false)
    (fun () -> ignore (Experiments.compute_all Experiments.all ctx));
  let spans =
    List.filter
      (fun (e : Trace_log.event) -> e.Trace_log.begin_ && e.Trace_log.name = "replay_pass")
      (Trace_log.events ())
  in
  Trace_log.reset ();
  check_bool "passes recorded" true (spans <> []);
  check_int "replay_pass spans == batch.replay_passes rise" (List.length spans)
    (counter "batch.replay_passes" - passes0);
  List.iter
    (fun (e : Trace_log.event) ->
      match List.assoc_opt "probes" e.Trace_log.args with
      | Some (Json.Int n) when n > 0 -> ()
      | _ -> Alcotest.fail "a replay_pass span without a positive probes count")
    spans

(* The exact-store histograms hold one observation per unit of work: a
   whole suite from cold memos on two domains adds one busy-time
   observation per runner that took part in a fan-out (so as many as
   parallel.domains_used rises) and one decode-rate observation per
   replay pass (so as many as batch.replay_passes rises; the suite makes
   no Runner.simulate call, which observes passes without counting them
   in the batch counters). *)
let test_observations_match_work () =
  let ctx = Lazy.force small_context in
  let observations name =
    match
      Option.bind
        (Option.bind (Json.member "histograms" (Metrics_registry.to_json ())) (Json.member name))
        (Json.member "count")
    with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "no %s histogram in the metrics snapshot" name
  in
  let read () =
    ( observations "parallel.domain_busy_seconds",
      counter "parallel.domains_used",
      observations "simulate.pass_events_per_sec",
      counter "batch.replay_passes" )
  in
  let busy0, domains0, rates0, passes0 = read () in
  with_jobs 2 (fun () ->
      Sim_cache.clear ();
      Layout_cache.clear ();
      ignore (Experiments.compute_all Experiments.all ctx));
  let busy1, domains1, rates1, passes1 = read () in
  check_bool "runners took part" true (domains1 > domains0);
  check_int "one busy observation per runner per fan-out" (domains1 - domains0)
    (busy1 - busy0);
  check_bool "passes replayed" true (passes1 > passes0);
  check_int "one rate observation per replay pass" (passes1 - passes0) (rates1 - rates0)

let () =
  Alcotest.run "parallel"
    [
      ( "runner-determinism",
        [
          case "N domains == 1 domain (counters, per-block misses)"
            test_runner_determinism;
          case "merged totals identical across job counts" test_runner_totals;
        ] );
      ( "context-determinism",
        [
          case "parallel trace capture identical event-for-event"
            test_context_traces_identical;
          case "engine stats identical" test_context_stats_identical;
          case "profiles identical" test_context_profiles_identical;
        ] );
      ( "sim-cache",
        [
          case "re-lookup hits and returns identical runs" test_sim_cache_roundtrip;
          case "cached entries are isolated from caller mutation"
            test_sim_cache_copies;
        ] );
      ( "report-determinism",
        [ case "curve, inline and robust render identically under 1 and 4 jobs" test_reports_identical ] );
      ( "context-reuse",
        [
          case "contexts of one spec share the model" test_model_shared;
          case "robust's 1x budget reuses the parent context" test_robust_reuses_context;
        ] );
      ( "suite-determinism",
        [
          case "all experiments: counters and reports equal at 1 and 4 jobs"
            test_suite_counters_and_reports;
          case "every replay pass is counted in batch.*" test_every_pass_counted;
          case "histogram observations match the work" test_observations_match_work;
        ] );
    ]
