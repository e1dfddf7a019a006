open Helpers

let small_ctx () = Lazy.force small_context

(* A profile over the loop_call fixture: the caller is invoked 10 times,
   the loop runs 3 iterations per invocation, the callee is entered once
   per iteration. *)
let loop_profile (lc : loop_call) =
  let inv = 10.0 and iters = 3.0 in
  let body = inv *. iters in
  let arcs b = Array.to_list (Graph.out_arcs lc.g b) in
  let arc_between src dst =
    List.find (fun a -> (Graph.arc lc.g a).Arc.dst = dst) (arcs src)
  in
  profile_of lc.g
    [
      (lc.c0, inv); (lc.c1, body); (lc.c2, body); (lc.c3, body); (lc.c4, inv);
      (lc.l0, body); (lc.l1, body);
    ]
    [
      (arc_between lc.c0 lc.c1, inv);
      (arc_between lc.c1 lc.c2, body);
      (arc_between lc.c2 lc.c3, body);
      (lc.back_edge, inv *. (iters -. 1.0));
      (arc_between lc.c3 lc.c4, inv);
      (arc_between lc.l0 lc.l1, body);
    ]

(* ------------------------------------------------------------------ *)
(* Profile                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_fractions () =
  let lc = loop_call () in
  let p = loop_profile lc in
  check_bool "executed" true (Profile.executed p lc.c0);
  check_close 1e-9 "block fraction" (10.0 /. p.Profile.total_blocks)
    (Profile.block_fraction p lc.c0);
  let total =
    List.fold_left
      (fun acc b -> acc +. Profile.block_fraction p b)
      0.0
      [ lc.c0; lc.c1; lc.c2; lc.c3; lc.c4; lc.l0; lc.l1 ]
  in
  check_close 1e-9 "fractions sum to 1" 1.0 total

let test_profile_arc_probability () =
  let lc = loop_call () in
  let p = loop_profile lc in
  check_close 1e-9 "back edge 2/3" (2.0 /. 3.0)
    (Profile.arc_probability p lc.g lc.back_edge)

let test_profile_routine_invocations () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let inv = Profile.routine_invocations p lc.g in
  check_close 1e-9 "caller invoked 10 times" 10.0 inv.(lc.caller);
  check_close 1e-9 "callee invoked 30 times" 30.0 inv.(lc.callee)

let test_profile_executed_counts () =
  let lc = loop_call () in
  let p = loop_profile lc in
  check_int "blocks" 7 (Profile.executed_block_count p);
  check_int "bytes" (7 * 16) (Profile.executed_bytes p lc.g)

let test_profile_scale_average () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let s = Profile.scale_to p 1000.0 in
  check_close 1e-9 "scaled total" 1000.0 s.Profile.total_blocks;
  check_close 1e-9 "fractions preserved"
    (Profile.block_fraction p lc.c1)
    (Profile.block_fraction s lc.c1);
  let q = Profile.scale_to p 500.0 in
  let avg = Profile.average [ s; q ] in
  check_close 1e-9 "average keeps relative shape"
    (Profile.block_fraction p lc.c1)
    (Profile.block_fraction avg lc.c1)

let test_profile_average_invalid () =
  check_raises_invalid "empty average" (fun () -> ignore (Profile.average []))

(* [of_counts] wraps the arrays it is given, computes the total from the
   block counts, and keys the result by content. *)
let test_profile_of_counts () =
  let lc = loop_call () in
  let block = Array.make (Graph.block_count lc.g) 0.0 in
  block.(lc.c0) <- 10.0;
  block.(lc.c1) <- 30.0;
  let arc = Array.make (Graph.arc_count lc.g) 0.0 in
  arc.(0) <- 10.0;
  let p = Profile.of_counts ~block ~arc ~invocations:5.0 in
  check_bool "the block array is wrapped" true (p.Profile.block == block);
  check_bool "the arc array is wrapped" true (p.Profile.arc == arc);
  check_float "total is the block sum" 40.0 p.Profile.total_blocks;
  check_float "invocations kept" 5.0 p.Profile.invocations;
  check_string "digest is the content's" (profile_content_digest p) (Profile.digest p);
  check_bool "digest stored, not recomputed" true (Profile.digest p == Profile.digest p);
  check_string "a copy has the same digest" (Profile.digest p)
    (Profile.digest
       (Profile.of_counts ~block:(Array.copy block) ~arc:(Array.copy arc) ~invocations:5.0))

(* Equal content gives an equal digest and unequal content an unequal
   one, across every way a profile is made.  Content is compared
   bit for bit, as the digest sees it. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_content (p : Profile.t) (q : Profile.t) =
  bits_equal p.Profile.block q.Profile.block
  && bits_equal p.Profile.arc q.Profile.arc
  && bits_equal [| p.Profile.total_blocks; p.Profile.invocations |]
       [| q.Profile.total_blocks; q.Profile.invocations |]

let prop_digest_is_content =
  let lc = loop_call () in
  let blocks = Graph.block_count lc.g and arcs = Graph.arc_count lc.g in
  let weights n = QCheck.(array_of_size (Gen.return n) (int_bound 3)) in
  QCheck.Test.make ~count:100 ~name:"frozen profiles: equal digest <=> equal content"
    QCheck.(quad (weights blocks) (weights arcs) (weights blocks) (int_bound 2))
    (fun (bw, aw, bw', inv) ->
      let make bw =
        profile_of ~invocations:(float_of_int inv) lc.g
          (List.init blocks (fun i -> (i, float_of_int bw.(i))))
          (List.init arcs (fun i -> (i, float_of_int aw.(i))))
      in
      let p = make bw and q = make bw' in
      let round_trip p =
        Profile_file.of_string ~graph:lc.g (Profile_file.to_string ~graph:lc.g p)
      in
      let variants =
        [
          p; q; make bw; round_trip p; round_trip q;
          Profile.scale_to p p.Profile.total_blocks; Profile.scale_to p 1000.0;
          Profile.scale_to q 1000.0; Profile.average [ p ]; Profile.average [ p; p ];
          Profile.average [ p; q ]; Profile.average [ q; p ];
        ]
      in
      List.for_all
        (fun a ->
          String.equal (Profile.digest a) (profile_content_digest a)
          && List.for_all
               (fun b -> same_content a b = String.equal (Profile.digest a) (Profile.digest b))
               variants)
        variants)

let test_profile_collect_consistency () =
  let ctx = small_ctx () in
  let p = ctx.Context.os_profiles.(0) in
  let g = Context.os_graph ctx in
  let sum = Array.fold_left ( +. ) 0.0 p.Profile.block in
  check_close 1e-6 "total_blocks matches sum" sum p.Profile.total_blocks;
  check_bool "invocations recorded" true (p.Profile.invocations > 0.0);
  Graph.iter_arcs g (fun a ->
      if p.Profile.arc.(a.Arc.id) > 0.0 then begin
        if not (Profile.executed p a.Arc.src) then
          Alcotest.failf "arc %d weighted but source unexecuted" a.Arc.id;
        if Profile.arc_probability p g a.Arc.id > 1.0 +. 1e-9 then
          Alcotest.failf "arc %d probability > 1" a.Arc.id
      end)

(* ------------------------------------------------------------------ *)
(* Arcstat (Figure 3)                                                 *)
(* ------------------------------------------------------------------ *)

let test_arcstat_bins () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let bins = Arcstat.distribution p lc.g in
  let total = Array.fold_left (fun acc (b : Arcstat.bin) -> acc + b.count) 0 bins in
  check_bool "some arcs counted" true (total > 0);
  Array.iter
    (fun (b : Arcstat.bin) -> check_bool "bins ordered" true (b.Arcstat.lo <= b.hi))
    bins

let test_arcstat_fractions () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let bins = Arcstat.distribution p lc.g in
  let hi = Arcstat.fraction_at_least bins 0.99 in
  let lo = Arcstat.fraction_at_most bins 0.01 in
  check_bool "fractions in range" true
    (hi >= 0.0 && hi <= 1.0 && lo >= 0.0 && lo <= 1.0);
  (* The deterministic arcs (probability 1) dominate this fixture. *)
  check_bool "deterministic arcs detected" true (hi > 0.4)

let test_arcstat_bimodal_kernel () =
  (* The paper's Figure 3: most arcs have probability >= 0.99 or <= 0.01.
     Our synthetic kernel must reproduce the bimodality. *)
  let ctx = small_ctx () in
  let p = ctx.Context.avg_os_profile in
  let bins = Arcstat.distribution p (Context.os_graph ctx) in
  let hi = Arcstat.fraction_at_least bins 0.99 in
  check_bool "most arcs near-deterministic" true (hi > 0.5)

(* ------------------------------------------------------------------ *)
(* Popularity (Figures 6 and 8)                                       *)
(* ------------------------------------------------------------------ *)

let test_popularity_series () =
  let ctx = small_ctx () in
  let p = ctx.Context.avg_os_profile in
  let series = Popularity.routine_series p (Context.os_graph ctx) in
  check_close 1e-6 "sums to 100" 100.0 (Stats.sum series);
  let sorted = Array.copy series in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check (array (float 1e-12))) "descending" sorted series

let test_popularity_top_routines () =
  let ctx = small_ctx () in
  let p = ctx.Context.avg_os_profile in
  let g = Context.os_graph ctx in
  let top = Popularity.top_routines p g ~n:10 in
  check_int "ten routines" 10 (List.length top);
  let counts = List.map snd top in
  check_bool "descending" true
    (List.for_all2 ( >= ) counts (List.tl counts @ [ 0.0 ]))

let test_popularity_deloop () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let loops = Loops.find lc.g in
  let f = Popularity.deloop_factors lc.g p loops in
  check_close 1e-9 "loop body discounted by 3" 3.0 f.(lc.c1);
  check_close 1e-9 "loop body discounted by 3 (c2)" 3.0 f.(lc.c2);
  check_close 1e-9 "non-loop block factor 1" 1.0 f.(lc.c0);
  check_close 1e-9 "callee factor 1 (not part of the natural loop)" 1.0 f.(lc.l0)

let test_popularity_count_above () =
  check_int "count above" 2 (Popularity.count_above [| 5.0; 3.0; 1.0 |] ~threshold:2.0);
  check_int "none above" 0 (Popularity.count_above [||] ~threshold:1.0)

(* ------------------------------------------------------------------ *)
(* Loopstat (Table 3, Figures 4-5)                                    *)
(* ------------------------------------------------------------------ *)

let test_loopstat_iterations () =
  let lc = loop_call () in
  let p = loop_profile lc in
  match Loopstat.analyze lc.g p (Loops.find lc.g) with
  | [ info ] ->
      check_close 1e-9 "10 invocations" 10.0 info.Loopstat.invocations;
      check_close 1e-9 "3 iterations per invocation" 3.0
        info.Loopstat.iterations_per_invocation;
      check_int "executed body bytes" 48 info.Loopstat.executed_body_bytes;
      check_int "with callees adds the callee" (48 + 32)
        info.Loopstat.executed_bytes_with_callees;
      check_close 1e-9 "dynamic words" (30.0 *. 3.0 *. 4.0) info.Loopstat.dynamic_words
  | l -> Alcotest.failf "expected one loop info, got %d" (List.length l)

let test_loopstat_split () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let infos = Loopstat.analyze lc.g p (Loops.find lc.g) in
  let without, with_calls = Loopstat.split_by_calls infos in
  check_int "no call-free loops" 0 (List.length without);
  check_int "one loop with calls" 1 (List.length with_calls)

let test_loopstat_shares () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let loops = Loops.find lc.g in
  (* The only loop calls a procedure, so the without-calls shares are 0. *)
  check_close 1e-9 "dynamic share" 0.0
    (Loopstat.dynamic_share_without_calls lc.g p loops);
  check_close 1e-9 "static executed share" 0.0
    (Loopstat.static_executed_share_without_calls lc.g p loops);
  check_close 1e-9 "static share" 0.0
    (Loopstat.static_share_without_calls ~profile:p lc.g loops)

let test_loopstat_shares_kernel () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let p = ctx.Context.avg_os_profile in
  let loops = Context.os_loops ctx in
  let dyn = Loopstat.dynamic_share_without_calls g p loops in
  check_bool "dynamic share in (0,1)" true (dyn > 0.0 && dyn < 1.0);
  let st = Loopstat.static_share_without_calls ~profile:p g loops in
  check_bool "executed static share small" true (st > 0.0 && st < 0.05)

let test_loopstat_reachable () =
  let lc = loop_call () in
  let p = loop_profile lc in
  let reach = Loopstat.reachable_routines lc.g p lc.caller in
  check_bool "includes itself" true (Hashtbl.mem reach lc.caller);
  check_bool "includes callee" true (Hashtbl.mem reach lc.callee);
  let reach_leaf = Loopstat.reachable_routines lc.g p lc.callee in
  check_bool "callee reaches only itself" false (Hashtbl.mem reach_leaf lc.caller)

(* ------------------------------------------------------------------ *)
(* Reuse (Figure 7)                                                   *)
(* ------------------------------------------------------------------ *)

let test_reuse_distances () =
  let lc = loop_call () in
  (* One invocation in which the callee is entered twice, separated by a
     known number of words, then never again. *)
  let t = Trace.create () in
  Trace.append t (Trace.Invocation_start Service.Interrupt);
  List.iter
    (fun b -> Trace.append t (Trace.Exec { image = 0; block = b }))
    [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ];
  Trace.append t Trace.Invocation_end;
  let r = Reuse.measure ~trace:t ~graph:lc.g ~routines:[ lc.callee ] in
  check_int "two calls" 2 r.Reuse.calls;
  check_int "one last-invocation call" 1 r.Reuse.last_invocation;
  (* Distance between the two l0 executions: l0,l1,c3,c1,c2 = 5 blocks of
     16 bytes = 20 words; it lands in the [10,32) bucket (index 1). *)
  check_int "distance bucketed" 1 (snd (List.nth (Histogram.to_list r.Reuse.histogram) 1));
  check_int "single distance sample" 1 (Histogram.total r.Reuse.histogram)

let test_reuse_resets_across_invocations () =
  let lc = loop_call () in
  let t = Trace.create () in
  let one_invocation () =
    Trace.append t (Trace.Invocation_start Service.Syscall);
    List.iter
      (fun b -> Trace.append t (Trace.Exec { image = 0; block = b }))
      [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ];
    Trace.append t Trace.Invocation_end
  in
  one_invocation ();
  one_invocation ();
  let r = Reuse.measure ~trace:t ~graph:lc.g ~routines:[ lc.callee ] in
  check_int "two calls" 2 r.Reuse.calls;
  check_int "no cross-invocation distance" 0 (Histogram.total r.Reuse.histogram);
  check_int "both calls are last in their invocation" 2 r.Reuse.last_invocation

let () =
  Alcotest.run "profile"
    [
      ( "profile",
        [
          case "fractions" test_profile_fractions;
          case "arc probability" test_profile_arc_probability;
          case "routine invocations" test_profile_routine_invocations;
          case "executed counts" test_profile_executed_counts;
          case "scale/average" test_profile_scale_average;
          case "average invalid" test_profile_average_invalid;
          case "collect consistency" test_profile_collect_consistency;
          case "of_counts sums the blocks" test_profile_of_counts;
          qcheck prop_digest_is_content;
        ] );
      ( "arcstat",
        [
          case "bins" test_arcstat_bins;
          case "fractions" test_arcstat_fractions;
          case "kernel bimodality" test_arcstat_bimodal_kernel;
        ] );
      ( "popularity",
        [
          case "series" test_popularity_series;
          case "top routines" test_popularity_top_routines;
          case "deloop factors" test_popularity_deloop;
          case "count_above" test_popularity_count_above;
        ] );
      ( "loopstat",
        [
          case "iterations" test_loopstat_iterations;
          case "split by calls" test_loopstat_split;
          case "shares (fixture)" test_loopstat_shares;
          case "shares (kernel)" test_loopstat_shares_kernel;
          case "reachable routines" test_loopstat_reachable;
        ] );
      ( "reuse",
        [
          case "distances" test_reuse_distances;
          case "resets across invocations" test_reuse_resets_across_invocations;
        ] );
    ]
