open Helpers

(* The staged, memoized, parallel layout pipeline must be observationally
   identical to a cold sequential construction: for any level,
   geometry and job count, the per-workload `Program_layout.digest`s (the
   exact placement the simulator consumes) must match a sequential build
   from cleared caches — warm caches and cross-parameter cache-hit paths
   included.  test/ref_layout.ml is the independent reference for the
   placement itself. *)

let digests layouts = Array.map Program_layout.digest layouts

let check_digests name a b =
  Alcotest.(check (array string)) name (digests a) (digests b)

(* The workloads' builds fan out over [jobs] domains, one by default. *)
let build_uncached ?(jobs = 1) ctx ~params level =
  with_jobs jobs (fun () -> Levels.build_uncached ctx ~params level)

(* Reference: a strictly sequential build from cleared stage caches. *)
let monolithic ctx ~params level =
  Layout_cache.clear ();
  build_uncached ctx ~params level

let stage name = List.assoc name (Layout_cache.stage_stats ())

(* --- staged == monolithic over a randomized grid ------------------- *)

let level_gen =
  QCheck.oneofl [ Levels.Base; Levels.CH; Levels.OptS; Levels.OptL; Levels.OptA ]

let total_misses () =
  List.fold_left (fun n (_, s) -> n + s.Layout_cache.misses) 0 (Layout_cache.stage_stats ())

let prop_staged_equals_monolithic =
  QCheck.Test.make ~count:12 ~name:"staged+cached == monolithic digests"
    QCheck.(
      quad level_gen
        (oneofl [ 2048; 4096; 8192; 16384 ])
        (oneofl [ None; Some 0.25; Some 0.5; Some 1.0 ])
        (oneofl [ 1; 4 ]))
    (fun (level, cache_size, scf_cutoff, jobs) ->
      let ctx = Lazy.force small_context in
      let params = Opt.params ~cache_size ~scf_cutoff () in
      let reference = monolithic ctx ~params level in
      (* Cold staged build (fresh caches), then a warm rebuild that must be
         served entirely from the placement stage. *)
      Layout_cache.clear ();
      let before = total_misses () in
      let cold = build_uncached ctx ~jobs ~params level in
      let cold_misses = total_misses () in
      let warm = build_uncached ctx ~jobs ~params level in
      digests reference = digests cold
      && digests cold = digests warm
      (* Every level builds at least its OS placement into the cold caches
         (the counts are process totals, so compare with [before]). *)
      && cold_misses > before)

(* --- cross-parameter sharing: the sweep paths ---------------------- *)

(* A cache-size sweep changes only placement inputs: the sequence and SCF
   stages must be served from cache, and the resulting layouts must still
   equal their monolithic references. *)
let test_geometry_sweep_shares_sequences () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (build_uncached ctx ~params:(Opt.params ()) Levels.OptS);
  let seq0 = stage "sequences" in
  let scf0 = stage "scf" in
  let params = Opt.params ~cache_size:4096 () in
  let swept = build_uncached ctx ~params Levels.OptS in
  let seq1 = stage "sequences" in
  let scf1 = stage "scf" in
  check_int "cache-size sweep builds no new sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  check_bool "cache-size sweep hits the sequence cache" true
    (seq1.Layout_cache.hits > seq0.Layout_cache.hits);
  check_int "cache-size sweep reruns no SCF selection" scf0.Layout_cache.misses
    scf1.Layout_cache.misses;
  check_digests "swept geometry == monolithic" swept (monolithic ctx ~params Levels.OptS)

(* A SelfConfFree-cutoff sweep reruns selection but not sequences. *)
let test_cutoff_sweep_shares_sequences () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (build_uncached ctx ~params:(Opt.params ()) Levels.OptS);
  let seq0 = stage "sequences" in
  let scf0 = stage "scf" in
  let params = Opt.params ~scf_cutoff:(Some 0.25) () in
  let swept = build_uncached ctx ~params Levels.OptS in
  let seq1 = stage "sequences" in
  let scf1 = stage "scf" in
  check_int "cutoff sweep builds no new sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  check_bool "cutoff sweep reruns SCF selection" true
    (scf1.Layout_cache.misses > scf0.Layout_cache.misses);
  check_digests "swept cutoff == monolithic" swept (monolithic ctx ~params Levels.OptS)

(* OptS and OptL share sequences (loop extraction only affects marking and
   placement); OptA's OS placement is OptS's, physically. *)
let test_cross_level_sharing () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  let opt_s = build_uncached ctx ~params:(Opt.params ()) Levels.OptS in
  let seq0 = stage "sequences" in
  let opt_l = build_uncached ctx ~params:(Opt.params ()) Levels.OptL in
  let seq1 = stage "sequences" in
  check_int "OptL reuses OptS's sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  let opt_a = build_uncached ctx ~params:(Opt.params ()) Levels.OptA in
  check_bool "OptA's OS placement is physically OptS's" true
    (opt_a.(0).Program_layout.os_map == opt_s.(0).Program_layout.os_map);
  check_digests "OptL == its monolithic reference" opt_l
    (monolithic ctx ~params:(Opt.params ()) Levels.OptL)

(* Base application images are physically shared across workloads and
   levels: the same app appears in several programs, and rebuilding it
   per (workload, level) was pure waste. *)
let test_base_app_maps_shared () =
  let ctx = Lazy.force small_context in
  let base = build_uncached ctx ~params:(Opt.params ()) Levels.Base in
  let ch = build_uncached ctx ~params:(Opt.params ()) Levels.CH in
  (* Workloads 0 (trfd_4) and 1 (trfd_make) both run the trfd image. *)
  check_bool "same app image shares one map across workloads" true
    (base.(0).Program_layout.app_maps.(0) == base.(1).Program_layout.app_maps.(0));
  check_bool "same app image shares one map across levels" true
    (base.(0).Program_layout.app_maps.(0) == ch.(0).Program_layout.app_maps.(0))

(* --- profile identity -------------------------------------------- *)

(* A frozen profile's digest is stored on first use and read ever after,
   so it is only sound if no consumer writes the counts.  Run every
   algorithm that reads a profile, from cleared caches, on one whose
   digest is already stored, then recompute the digest from its content. *)
let test_profile_digest_survives_consumers () =
  let ctx = Lazy.force small_context in
  let model = ctx.Context.model in
  let g = model.Model.graph and loops = Context.os_loops ctx in
  let p = Profile.scale_to ctx.Context.avg_os_profile 123_456.0 in
  let stored = Profile.digest p in
  let seed_entry s = (Model.seed_for model s).Model.entry in
  ignore (Sequence.build ~graph:g ~profile:p ~seed_entry ~schedule:Schedule.paper ());
  ignore (Scf.select ~graph:g ~profile:p ~loops ~cutoff:0.5);
  ignore (Loopstat.analyze g p loops);
  ignore (Chang_hwu.layout g p);
  ignore (Pettis_hansen.layout g p);
  Layout_cache.clear ();
  List.iter
    (fun extract_loops ->
      ignore
        (Opt.layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule:Schedule.paper
           { (Opt.params ()) with Opt.extract_loops }))
    [ false; true ];
  check_string "content still hashes to the stored digest" stored (profile_content_digest p);
  check_bool "the stored digest is served" true (Profile.digest p == stored)

(* --- one reset for all layout caching ------------------------------ *)

(* No cache above the stages keeps whole layouts, so after
   [Layout_cache.clear] a level the context already built is placed
   again: exactly one new OS placement, shared by every workload. *)
let test_clear_makes_levels_build_cold () =
  let ctx = Lazy.force small_context in
  let warm = Levels.build ctx Levels.OptS in
  let place () = (stage "place").Layout_cache.misses in
  Layout_cache.clear ();
  let before = place () in
  let cold = Levels.build ctx Levels.OptS in
  check_int "one new OptS placement after clear" (before + 1) (place ());
  check_digests "rebuilt after clear == before" warm cold

(* Loop detection is timed as a stage of its memo's name: a cold OptS
   build detects the OS loops once, and a warm rebuild not at all. *)
let test_loops_timed () =
  let ctx = Lazy.force small_context in
  let calls () =
    List.fold_left
      (fun n (name, c, _) -> if name = "layout_cache.loops" then c else n)
      0 (Trace_log.stage_totals ())
  in
  Layout_cache.clear ();
  let before = calls () in
  ignore (Levels.build ctx Levels.OptS);
  check_int "one detection in a cold build" (before + 1) (calls ());
  ignore (Levels.build ctx Levels.OptS);
  check_int "none in a warm rebuild" (before + 1) (calls ())

(* --- loop detection under parallelism ------------------------------ *)

(* The old Program_layout.loops_cache was an unsynchronized global ref;
   Layout_cache.loops must hand every domain the same list. *)
let test_loops_race_free () =
  let model = Lazy.force small_model in
  Layout_cache.clear ();
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Program_layout.os_loops model))
  in
  let results = List.map Domain.join domains in
  let canonical = Program_layout.os_loops model in
  List.iteri
    (fun i l ->
      check_bool (Printf.sprintf "domain %d sees the canonical loop list" i) true
        (l == canonical))
    results

(* --- counter invariants (what `icache-opt validate` enforces) ------ *)

let test_counter_invariants () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (build_uncached ctx ~jobs:4 ~params:(Opt.params ()) Levels.OptA);
  ignore (build_uncached ctx ~params:(Opt.params ()) Levels.OptA);
  List.iter
    (fun (name, (s : Layout_cache.stats)) ->
      check_bool (name ^ ": hits >= 0") true (s.Layout_cache.hits >= 0);
      check_bool (name ^ ": misses >= 0") true (s.Layout_cache.misses >= 0);
      (* Every miss is one build, timed as the stage of the memo's name. *)
      let calls, seconds =
        List.fold_left
          (fun acc (n, c, sec) -> if n = "layout_cache." ^ name then (c, sec) else acc)
          (0, 0.0) (Trace_log.stage_totals ())
      in
      check_int (name ^ ": one timed build per miss") s.Layout_cache.misses calls;
      check_bool (name ^ ": build seconds >= 0") true (seconds >= 0.0);
      check_bool (name ^ ": lookups counted in the registry") true
        (Metrics_registry.find_counter ("layout_cache." ^ name ^ ".lookups")
        = Some (s.Layout_cache.hits + s.Layout_cache.misses)))
    (Layout_cache.stage_stats ())

let () =
  Alcotest.run "layout_cache"
    [
      ( "equivalence",
        [
          qcheck prop_staged_equals_monolithic;
          case "cache-size sweep shares sequences" test_geometry_sweep_shares_sequences;
          case "cutoff sweep shares sequences" test_cutoff_sweep_shares_sequences;
          case "cross-level sharing (OptS/OptL/OptA)" test_cross_level_sharing;
          case "base app maps shared across workloads/levels"
            test_base_app_maps_shared;
          case "profile digest survives every consumer"
            test_profile_digest_survives_consumers;
        ] );
      ("reset", [ case "clear makes the next Levels.build cold" test_clear_makes_levels_build_cold ]);
      ("timing", [ case "loop detection is a timed stage" test_loops_timed ]);
      ( "concurrency",
        [
          case "loop detection race-free" test_loops_race_free;
          case "counter invariants" test_counter_invariants;
        ] );
    ]
