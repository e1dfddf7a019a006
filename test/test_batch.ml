open Helpers

(* Fused multi-configuration replay: [Runner.batch] must be bit-identical
   to simulating every member alone, whatever mixture of layouts,
   organizations, geometries, policies, duplicates and cache temperatures the
   caller throws at it.  This is the safety net under the experiment
   conversions: if fan-out through a shared Replay pass ever diverges
   from the solo path, these properties fail before any golden does. *)

(* A pool of (layout level, cache system) combinations spanning the
   dispatch kernels: direct-mapped (the specialized fast path), LRU / FIFO
   with real associativity, the seeded Random policy, and the split,
   reserved and victim organizations. *)
let combos =
  let dm kb = Config.make ~size_kb:kb () in
  [|
    (Levels.Base, System.Unified (dm 4));
    (Levels.Base, System.Unified (Config.make ~size_kb:8 ~assoc:2 ()));
    (Levels.Base, System.Unified (Config.make ~size_kb:8 ~assoc:4 ~policy:Config.Fifo ()));
    (Levels.CH, System.Unified (dm 8));
    (Levels.CH, System.Unified (Config.make ~size_kb:4 ~assoc:4 ~policy:(Config.Random 1234) ()));
    (Levels.OptS, System.Unified (dm 8));
    (Levels.OptS, System.Unified (Config.make ~size_kb:16 ~assoc:2 ~policy:Config.Fifo ()));
    (Levels.OptS, System.Unified (Config.make ~size_kb:4 ~line:16 ()));
    (Levels.OptS, System.Split { os = dm 4; app = dm 4 });
    (Levels.Base, System.Reserved { hot = dm 1; rest = dm 8; hot_limit = 1024 });
    (Levels.OptS, System.Victim { main = dm 8; entries = 8 });
    (Levels.Base, System.Victim { main = dm 4; entries = 2 });
  |]

let members_of ctx picks =
  Array.of_list
    (List.map
       (fun i ->
         let level, spec = combos.(i mod Array.length combos) in
         (Levels.build ctx level, spec))
       picks)

let same_runs (a : Runner.run array) (b : Runner.run array) =
  Array.for_all2
    (fun (x : Runner.run) (y : Runner.run) ->
      x.Runner.counters = y.Runner.counters
      && x.Runner.os_block_misses = y.Runner.os_block_misses)
    a b

(* The unmemoized solo path: one fresh system per workload. *)
let solo ctx ?attribute_os (layouts, spec) =
  Runner.simulate ctx ~layouts ~system:(fun () -> System.create spec) ?attribute_os ()

(* Cold cache: the batch replays everything through fused passes, the
   reference replays each member alone and never touches the memo. *)
let prop_batch_equals_sequential =
  QCheck.Test.make
    ~name:"simulate_batch == per-member simulate (cold cache)" ~count:6
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_bound 100)) bool)
    (fun (picks, attribute_os) ->
      let ctx = Lazy.force small_context in
      let members = members_of ctx picks in
      Sim_cache.clear ();
      let batch = Runner.batch ctx ~members ~attribute_os () in
      let seq = Array.map (solo ctx ~attribute_os) members in
      Array.for_all2 same_runs batch seq)

(* Warm cache: every member was already simulated in a batch of its own,
   so the batch must serve pure Sim_cache hits (no new misses) and return
   identical runs. *)
let prop_batch_serves_warm_entries =
  QCheck.Test.make ~name:"simulate_batch serves warm Sim_cache entries" ~count:4
    QCheck.(list_of_size Gen.(1 -- 5) (int_bound 100))
    (fun picks ->
      let ctx = Lazy.force small_context in
      let members = members_of ctx picks in
      Sim_cache.clear ();
      let seq =
        Array.map
          (fun member -> (Runner.batch ctx ~members:[| member |] ()).(0))
          members
      in
      let m0 = Sim_cache.misses () in
      let batch = Runner.batch ctx ~members () in
      Sim_cache.misses () = m0 && Array.for_all2 same_runs batch seq)

(* The direct-mapped fast path must agree with the generic kernel.  A
   Random policy at associativity 1 stays on the generic path but has no
   actual choice to make (the only way is always the victim), so its
   counters must coincide with the specialized LRU/assoc=1 dispatch. *)
let prop_direct_fast_path_matches_generic =
  QCheck.Test.make ~name:"direct-mapped fast path == generic assoc=1 kernel"
    ~count:6
    QCheck.(pair (oneofl [ 4; 8; 16 ]) (oneofl [ 16; 32 ]))
    (fun (size_kb, line) ->
      let ctx = Lazy.force small_context in
      let layouts = Levels.build ctx Levels.Base in
      let direct = solo ctx (layouts, System.Unified (Config.make ~size_kb ~line ())) in
      let generic =
        solo ctx
          (layouts, System.Unified (Config.make ~size_kb ~line ~policy:(Config.Random 7) ()))
      in
      Array.for_all2
        (fun (x : Runner.run) (y : Runner.run) ->
          x.Runner.counters = y.Runner.counters)
        direct generic)

(* Duplicate members must come back as independent deep copies: mutating
   one result cannot leak into its twin. *)
let test_duplicates_are_copies () =
  let ctx = Lazy.force small_context in
  let member = (Levels.build ctx Levels.Base, Config.make ~size_kb:8 ()) in
  Sim_cache.clear ();
  let batch = Runner.simulate_batch ctx ~members:[| member; member |] () in
  check_bool "duplicate members agree" true (same_runs batch.(0) batch.(1));
  batch.(0).(0).Runner.counters.Counters.os_self <- min_int;
  check_bool "results are independent copies" true
    (batch.(1).(0).Runner.counters.Counters.os_self <> min_int)

let () =
  Alcotest.run "batch"
    [
      ( "equivalence",
        [
          qcheck prop_batch_equals_sequential;
          qcheck prop_batch_serves_warm_entries;
          qcheck prop_direct_fast_path_matches_generic;
          case "duplicate members are deep copies" test_duplicates_are_copies;
        ] );
    ]
