open Helpers

(* Tests for the extension modules: ablation hooks (flat schedules,
   restricted seeds, no call-following), the function inliner, and the
   multiprocessor tracer. *)

let small_ctx () = Lazy.force small_context

(* ------------------------------------------------------------------ *)
(* Schedule ablation hooks                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_flat () =
  check_int "one pass per seed" Service.count (List.length Schedule.flat);
  List.iter
    (fun (p : Schedule.pass) ->
      check_close 1e-12 "exhaustive exec" 0.0 p.Schedule.exec_thresh;
      check_close 1e-12 "exhaustive branch" 0.0 p.Schedule.branch_thresh)
    Schedule.flat;
  let services = List.map (fun p -> p.Schedule.service) Schedule.flat in
  check_int "all seeds present" Service.count
    (List.length (List.sort_uniq compare services))

let test_schedule_restrict () =
  let only_intr = Schedule.restrict [ Service.Interrupt ] Schedule.paper in
  check_bool "non-empty" true (only_intr <> []);
  List.iter
    (fun (p : Schedule.pass) ->
      check_bool "interrupt only" true (p.Schedule.service = Service.Interrupt))
    only_intr;
  check_int "nothing for empty restriction" 0
    (List.length (Schedule.restrict [] Schedule.paper))

let test_sequence_no_follow_calls () =
  let lc = loop_call () in
  let arcs b = Array.to_list (Graph.out_arcs lc.g b) in
  let arc_between src dst =
    List.find (fun a -> (Graph.arc lc.g a).Arc.dst = dst) (arcs src)
  in
  let p =
    profile_of lc.g
      [
        (lc.c0, 10.0); (lc.c1, 30.0); (lc.c2, 30.0); (lc.c3, 30.0); (lc.c4, 10.0);
        (lc.l0, 30.0); (lc.l1, 30.0);
      ]
      [
        (arc_between lc.c0 lc.c1, 10.0);
        (arc_between lc.c1 lc.c2, 30.0);
        (arc_between lc.c2 lc.c3, 30.0);
        (lc.back_edge, 20.0);
        (arc_between lc.c3 lc.c4, 10.0);
        (arc_between lc.l0 lc.l1, 30.0);
      ]
  in
  let build follow_calls =
    Sequence.build ~graph:lc.g ~profile:p
      ~seed_entry:(fun _ -> lc.c0)
      ~schedule:[ { Schedule.service = Service.Interrupt; exec_thresh = 0.0; branch_thresh = 0.0 } ]
      ~follow_calls ()
  in
  let pos blocks x =
    match Array.find_index (fun b -> b = x) blocks with
    | Some i -> i
    | None -> Alcotest.failf "block %d missing from sequence" x
  in
  (match build true with
  | [ s ] ->
      (* Interleaved: the callee body sits between the call site and the
         caller's continuation. *)
      check_bool "callee placed before the caller's continuation" true
        (pos s.Sequence.blocks lc.l0 < pos s.Sequence.blocks lc.c3)
  | _ -> Alcotest.fail "expected one sequence");
  match build false with
  | [ s ] ->
      (* Without call-following the caller stays contiguous; the callee is
         placed by the final sweep, after the caller's last block. *)
      check_bool "callee after the whole caller" true
        (pos s.Sequence.blocks lc.l0 > pos s.Sequence.blocks lc.c4)
  | _ -> Alcotest.fail "expected one sequence"

(* ------------------------------------------------------------------ *)
(* Inline                                                             *)
(* ------------------------------------------------------------------ *)

let inlined_small () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let inlined, stats =
    Inline.transform ~model ~profile:ctx.Context.avg_os_profile
  in
  (ctx, model, inlined, stats)

let test_inline_finds_sites () =
  let _, _, _, stats = inlined_small () in
  check_bool "some sites inlined" true (stats.Inline.sites > 0);
  check_bool "some callees involved" true
    (stats.Inline.callees > 0 && stats.Inline.callees <= stats.Inline.sites);
  check_bool "code grew" true (stats.Inline.added_bytes > 0)

let test_inline_graph_shape () =
  let _, model, inlined, stats = inlined_small () in
  let g0 = model.Model.graph and g1 = inlined.Model.graph in
  check_int "routine population preserved" (Graph.routine_count g0)
    (Graph.routine_count g1);
  check_bool "blocks added" true (Graph.block_count g1 > Graph.block_count g0);
  check_int "code growth matches stats"
    (Graph.code_bytes g0 + stats.Inline.added_bytes)
    (Graph.code_bytes g1)

let test_inline_no_remaining_hot_leaf_calls () =
  (* Every inlined site lost its call field. *)
  let ctx, _, inlined, _ = inlined_small () in
  let p = ctx.Context.avg_os_profile in
  ignore p;
  let g = inlined.Model.graph in
  (* The transform's invariant: graph is well formed and seed/dispatch
     remaps are consistent. *)
  Array.iter
    (fun (s : Model.seed_info) ->
      check_int "seed entry is its routine's entry"
        (Graph.entry_of g s.Model.routine)
        s.Model.entry)
    inlined.Model.seeds;
  Array.iter
    (fun (d : Model.dispatch) ->
      Array.iter
        (fun (a, _) ->
          check_int "dispatch arcs leave the dispatch block" d.Model.block
            (Graph.arc g a).Arc.src)
        d.Model.arcs)
    inlined.Model.dispatches

let test_inline_arc_probabilities () =
  let _, _, inlined, _ = inlined_small () in
  let g = inlined.Model.graph in
  Graph.iter_blocks g (fun b ->
      let arcs = Graph.out_arcs g b.Block.id in
      if Array.length arcs > 0 then begin
        let sum =
          Array.fold_left (fun acc a -> acc +. inlined.Model.arc_prob.(a)) 0.0 arcs
        in
        if sum > 1.0 +. 1e-6 then
          Alcotest.failf "inlined block %d arc probabilities sum to %f" b.Block.id sum
      end)

let test_inline_model_traces () =
  (* The inlined model must drive the engine exactly like a normal one. *)
  let _, _, inlined, _ = inlined_small () in
  let pairs = Workload.standard_programs inlined in
  let w, p = pairs.(0) in
  let _, stats = Engine.capture ~program:p ~workload:w ~words:30_000 ~seed:3 in
  check_bool "engine runs on the inlined kernel" true
    (stats.Engine.total_words >= 30_000);
  check_bool "OS invocations happen" true
    (Array.fold_left ( + ) 0 stats.Engine.invocations > 0)

(* ------------------------------------------------------------------ *)
(* Multiproc                                                          *)
(* ------------------------------------------------------------------ *)

let mp_result ?(xcall_prob = 0.4) ?(which = 0) () =
  let ctx = small_ctx () in
  let w, p = ctx.Context.pairs.(which) in
  Multiproc.run ~program:p ~workload:w ~cpus:4 ~words_per_cpu:20_000 ~seed:5
    ~xcall_prob ()

let test_mp_word_budget () =
  let r = mp_result () in
  check_int "four cpus" 4 (Array.length r.Multiproc.cpus);
  Array.iter
    (fun (c : Multiproc.cpu) ->
      check_bool "per-cpu budget met" true (Multiproc.words c >= 20_000))
    r.Multiproc.cpus

let test_mp_invalid_cpus () =
  let ctx = small_ctx () in
  let w, p = ctx.Context.pairs.(0) in
  check_raises_invalid "zero cpus" (fun () ->
      Multiproc.run ~program:p ~workload:w ~cpus:0 ~words_per_cpu:100 ~seed:1 ())

let test_mp_xcalls_served () =
  let r = mp_result ~xcall_prob:0.5 () in
  check_bool "broadcasts happened" true (r.Multiproc.xcalls_sent > 0);
  let served =
    Array.fold_left (fun acc (c : Multiproc.cpu) -> acc + c.Multiproc.forced) 0
      r.Multiproc.cpus
  in
  (* Each broadcast enqueues cpus-1 forced invocations; the tail may still
     be pending when the budget is reached. *)
  check_bool "forced invocations served" true (served > 0);
  check_bool "served at most sent*(cpus-1)" true
    (served <= r.Multiproc.xcalls_sent * 3)

let test_mp_no_xcalls () =
  let r = mp_result ~xcall_prob:0.0 () in
  check_int "no broadcasts" 0 r.Multiproc.xcalls_sent;
  Array.iter
    (fun (c : Multiproc.cpu) -> check_int "no forced invocations" 0 c.Multiproc.forced)
    r.Multiproc.cpus

let test_mp_determinism () =
  let a = mp_result () and b = mp_result () in
  Array.iteri
    (fun i (c : Multiproc.cpu) ->
      check_int "same trace length" (Trace.length c.Multiproc.trace)
        (Trace.length b.Multiproc.cpus.(i).Multiproc.trace))
    a.Multiproc.cpus

let test_mp_traces_are_balanced_invocations () =
  let r = mp_result () in
  Array.iter
    (fun (c : Multiproc.cpu) ->
      let depth = ref 0 and bad = ref false in
      Trace.iter c.Multiproc.trace (fun e ->
          match e with
          | Trace.Invocation_start _ ->
              incr depth;
              if !depth > 1 then bad := true
          | Trace.Invocation_end ->
              decr depth;
              if !depth < 0 then bad := true
          | Trace.Exec _ -> ());
      check_bool "invocation markers balanced" false !bad)
    r.Multiproc.cpus

let test_mp_replayable () =
  let ctx = small_ctx () in
  let r = mp_result () in
  let layout = (Levels.build ctx Levels.Base).(0) in
  let map = Program_layout.code_map layout in
  Array.iter
    (fun (c : Multiproc.cpu) ->
      let system = System.unified (Config.make ~size_kb:8 ()) in
      Replay.run_range ~warmup:0 ~trace:c.Multiproc.trace ~map ~systems:[| system |];
      let cnt = System.counters system in
      check_bool "cpu trace replays" true (Counters.refs cnt > 0);
      check_bool "misses bounded" true (Counters.misses cnt <= Counters.refs cnt))
    r.Multiproc.cpus

(* ------------------------------------------------------------------ *)
(* Pettis-Hansen                                                      *)
(* ------------------------------------------------------------------ *)

let test_ph_chain_order_merges_heaviest () =
  (* 0-1 heavy, 1-2 light: 0 and 1 must be adjacent. *)
  let order = Pettis_hansen.chain_order ~n:4 ~edges:[ (0, 1, 10.0); (1, 2, 1.0) ] in
  check_int "permutation" 4 (List.length (List.sort_uniq compare order));
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  check_int "0 and 1 adjacent" 1 (abs (pos 0 - pos 1));
  check_bool "2 adjacent to 1 too" true (abs (pos 1 - pos 2) = 1)

let test_ph_chain_order_closest_is_best () =
  (* Chains [0;1] and [2;3] built first; then edge 1-2 must join them with
     1 and 2 adjacent, whatever the chain orientations. *)
  let order =
    Pettis_hansen.chain_order ~n:4
      ~edges:[ (0, 1, 10.0); (2, 3, 9.0); (1, 2, 5.0) ]
  in
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  check_int "edge endpoints adjacent after merge" 1 (abs (pos 1 - pos 2))

let test_ph_chain_order_permutation () =
  let order = Pettis_hansen.chain_order ~n:7 ~edges:[] in
  Alcotest.(check (list int)) "no edges: identity-ish permutation"
    [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare order)

let test_ph_routine_order () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let order = Pettis_hansen.routine_order g ctx.Context.avg_os_profile in
  check_int "permutation of routines" (Graph.routine_count g)
    (List.length (List.sort_uniq compare order))

let test_ph_intra_order () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let p = ctx.Context.avg_os_profile in
  Graph.iter_routines g (fun r ->
      let order = Pettis_hansen.intra_routine_order g p r in
      if List.length order <> Array.length r.Routine.blocks then
        Alcotest.failf "routine %s: order not a permutation" r.Routine.name;
      (* The entry block leads whenever the routine executed at all. *)
      if Profile.executed p r.Routine.entry then
        match order with
        | first :: _ when first = r.Routine.entry -> ()
        | _ -> Alcotest.failf "routine %s: entry not first" r.Routine.name)

let test_ph_layout_valid () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let map = Pettis_hansen.layout g ctx.Context.avg_os_profile in
  check_int "all blocks placed" (Graph.block_count g) (Address_map.placed_count map)

let test_ph_in_ch_league () =
  let ctx = small_ctx () in
  let rows = Exp_ph.compute ctx in
  Array.iter
    (fun (r : Exp_ph.row) ->
      let rate name = List.assoc name r.Exp_ph.rates in
      check_bool "P-H beats Base" true (rate "P-H" < rate "Base");
      check_bool "P-H within 2x of C-H" true (rate "P-H" <= 2.0 *. rate "C-H"))
    rows

(* ------------------------------------------------------------------ *)
(* Experiment smoke: compute functions of the new experiments          *)
(* ------------------------------------------------------------------ *)

let test_ablation_compute () =
  let ctx = small_ctx () in
  let base, variants = Exp_ablation.compute ctx in
  check_bool "base has misses" true (base > 0);
  check_int "five variants" 5 (List.length variants);
  List.iter
    (fun (v : Exp_ablation.variant) ->
      check_bool "every variant beats Base" true (v.Exp_ablation.vs_base < 1.0))
    variants

let test_policy_compute () =
  let ctx = small_ctx () in
  let rows = Exp_policy.compute ctx in
  check_int "four workloads" 4 (Array.length rows);
  Array.iter
    (fun (r : Exp_policy.row) ->
      check_int "three policies" 3 (Array.length r.Exp_policy.rates);
      Array.iter
        (fun (_, base, opt) ->
          check_bool "OptS at or below Base under every policy" true
            (opt <= base +. 1e-9))
        r.Exp_policy.rates)
    rows

let test_robust_budgets () =
  let budgets = Exp_robust.budgets_of 2_000_000 in
  check_bool "budgets ascend" true
    (Array.for_all2 ( < )
       (Array.sub budgets 0 (Array.length budgets - 1))
       (Array.sub budgets 1 (Array.length budgets - 1)));
  check_int "committed budget is the context budget" 2_000_000 budgets.(2)

let test_victim_compute () =
  let ctx = small_ctx () in
  let rows = Exp_victim.compute ctx in
  Array.iter
    (fun (r : Exp_victim.row) ->
      let rate n = List.assoc n r.Exp_victim.rates in
      check_bool "victim buffer helps Base" true (rate "Base+V8" <= rate "Base");
      check_bool "bigger buffers help more" true (rate "Base+V16" <= rate "Base+V4");
      check_bool "OptS+victim composes" true (rate "OptS+V8" <= rate "OptS" +. 1e-9))
    rows

let test_crossval_compute () =
  let ctx = small_ctx () in
  let r = Exp_crossval.compute ctx in
  let n = Array.length r.Exp_crossval.names in
  for i = 0 to n - 1 do
    check_close 1e-9 "diagonal is 1" 1.0 r.Exp_crossval.matrix.(i).(i)
  done;
  (* On the mini-kernel per-workload miss counts are small, so individual
     ratios are noisy; the average-profile layout must still be in the
     right league overall. *)
  Array.iter
    (fun v -> check_bool "ratios finite and positive" true (v > 0.0 && v < 20.0))
    r.Exp_crossval.average_row;
  check_bool "competitive on most workloads" true
    (Array.fold_left (fun acc v -> if v < 2.0 then acc + 1 else acc) 0
       r.Exp_crossval.average_row
    >= Array.length r.Exp_crossval.average_row / 2)

let test_fallthrough_layouts_raise_rate () =
  let ctx = small_ctx () in
  let rows = Exp_fallthrough.compute ctx in
  Array.iter
    (fun (r : Exp_fallthrough.row) ->
      let rate n = List.assoc n r.Exp_fallthrough.rates in
      check_bool "rates in range" true (rate "Base" >= 0.0 && rate "OptS" <= 1.0);
      check_bool "OptS raises the fall-through rate" true
        (rate "OptS" > rate "Base"))
    rows

let test_fallthrough_golden () =
  (* Two blocks placed adjacently fall through; placed apart they do not. *)
  let lc = loop_call () in
  let trace = Trace.create () in
  List.iter
    (fun b -> Trace.append trace (Trace.Exec { image = 0; block = b }))
    [ lc.c0; lc.c1 ];
  let n = Graph.block_count lc.g in
  let adjacent =
    { Replay.addr = [| Array.init n (fun b -> b * 16) |]; bytes = [| Array.make n 16 |] }
  in
  check_close 1e-9 "adjacent placement falls through" 1.0
    (Exp_fallthrough.rate ~trace ~map:adjacent);
  let apart =
    { Replay.addr = [| Array.init n (fun b -> b * 64) |]; bytes = [| Array.make n 16 |] }
  in
  check_close 1e-9 "gapped placement does not" 0.0
    (Exp_fallthrough.rate ~trace ~map:apart)

let test_mp_compute () =
  let ctx = small_ctx () in
  let rows = Exp_mp.compute ctx in
  check_int "four workloads" 4 (Array.length rows);
  Array.iter
    (fun (r : Exp_mp.row) ->
      check_int "four cpus" Exp_mp.cpus (Array.length r.Exp_mp.base_rates);
      check_bool "OptS wins on average" true
        (Stats.mean r.Exp_mp.opt_rates < Stats.mean r.Exp_mp.base_rates))
    rows

let () =
  Alcotest.run "extensions"
    [
      ( "schedule-ablation",
        [
          case "flat" test_schedule_flat;
          case "restrict" test_schedule_restrict;
          case "no call-following" test_sequence_no_follow_calls;
        ] );
      ( "inline",
        [
          case "finds sites" test_inline_finds_sites;
          case "graph shape" test_inline_graph_shape;
          case "model consistency" test_inline_no_remaining_hot_leaf_calls;
          case "arc probabilities" test_inline_arc_probabilities;
          case "traces" test_inline_model_traces;
        ] );
      ( "multiproc",
        [
          case "word budget" test_mp_word_budget;
          case "invalid cpus" test_mp_invalid_cpus;
          case "xcalls served" test_mp_xcalls_served;
          case "no xcalls" test_mp_no_xcalls;
          case "determinism" test_mp_determinism;
          case "balanced invocations" test_mp_traces_are_balanced_invocations;
          case "replayable" test_mp_replayable;
        ] );
      ( "pettis-hansen",
        [
          case "heaviest edge adjacency" test_ph_chain_order_merges_heaviest;
          case "closest is best" test_ph_chain_order_closest_is_best;
          case "permutation" test_ph_chain_order_permutation;
          case "routine order" test_ph_routine_order;
          case "intra order" test_ph_intra_order;
          case "layout valid" test_ph_layout_valid;
          case "C-H league" test_ph_in_ch_league;
        ] );
      ( "experiments",
        [
          case "ablation compute" test_ablation_compute;
          case "policy compute" test_policy_compute;
          case "victim compute" test_victim_compute;
          case "crossval compute" test_crossval_compute;
          case "fallthrough rates" test_fallthrough_layouts_raise_rate;
          case "fallthrough golden" test_fallthrough_golden;
          case "robust budgets" test_robust_budgets;
          case "mp compute" test_mp_compute;
        ] );
    ]
