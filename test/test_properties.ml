open Helpers

(* Whole-pipeline property tests: random kernel specifications and random
   profiles must never break the generator's structural invariants or any
   layout algorithm's placement invariants. *)

(* Random scaled-down specs (kept small so each case is fast). *)
let spec_gen =
  QCheck.Gen.(
    let* seed = 0 -- 10_000 in
    let* leaf = 12 -- 16 in
    let* sub = 6 -- 20 in
    let* mid = 8 -- 30 in
    let* h0 = 2 -- 5 and* h1 = 1 -- 4 and* h2 = 2 -- 8 and* h3 = 1 -- 3 in
    let* cold = 10 -- 80 in
    return
      {
        Spec.small with
        Spec.seed;
        leaf_count = leaf;
        sub_mid_count = sub;
        mid_count = mid;
        handler_counts = [| h0; h1; h2; h3 |];
        cold_count = cold;
      })

let spec_arb = QCheck.make ~print:(fun s -> Printf.sprintf "spec seed=%d" s.Spec.seed) spec_gen

let prop_generator_invariants =
  QCheck.Test.make ~name:"random specs generate well-formed kernels" ~count:30
    spec_arb (fun spec ->
      let m = Generator.generate spec in
      let g = m.Model.graph in
      (* Every routine non-empty with its entry in range. *)
      Graph.iter_routines g (fun r ->
          assert (Routine.block_count r > 0);
          assert (Graph.routine_of_block g r.Routine.entry = r.Routine.id));
      (* Arc probabilities well-formed. *)
      Graph.iter_blocks g (fun b ->
          let arcs = Graph.out_arcs g b.Block.id in
          let sum = Array.fold_left (fun acc a -> acc +. m.Model.arc_prob.(a)) 0.0 arcs in
          assert (Array.length arcs = 0 || sum <= 1.0 +. 1e-6));
      (* Base order is a permutation. *)
      let sorted = Array.copy m.Model.base_order in
      Array.sort compare sorted;
      sorted = Array.init (Graph.routine_count g) Fun.id)

let prop_pipeline_layouts_valid =
  QCheck.Test.make ~name:"random kernels: every layout places every block once"
    ~count:10 spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(0) in
      let profiles, sink = Profile.sinks ~program in
      let _ = Engine.run ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed ~sink in
      let p = profiles.(0) in
      let g = m.Model.graph in
      let loops = Loops.find g in
      let check map =
        Address_map.validate map;
        Address_map.placed_count map = Graph.block_count g
      in
      check (Base.layout g ~order:m.Model.base_order)
      && check (Chang_hwu.layout g p)
      && check (Pettis_hansen.layout g p)
      && check (Opt.os_layout ~model:m ~profile:p ~loops (Opt.params ())).Opt.map
      && check
           (Opt.os_layout ~model:m ~profile:p ~loops
              (Opt.params ~extract_loops:true ()))
             .Opt.map
      && check (fst (Call_opt.layout ~model:m ~profile:p ())).Opt.map)

let prop_sequences_cover_executed =
  QCheck.Test.make ~name:"random kernels: sequences cover all executed blocks"
    ~count:10 spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(1) in
      let profiles, sink = Profile.sinks ~program in
      let _ = Engine.run ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed ~sink in
      let p = profiles.(0) in
      let g = m.Model.graph in
      let seqs =
        Sequence.build ~graph:g ~profile:p
          ~seed_entry:(fun c -> (Model.seed_for m c).Model.entry)
          ~schedule:Schedule.paper ()
      in
      let covered = Sequence.covered g seqs in
      let ok = ref true in
      Graph.iter_blocks g (fun b ->
          if Profile.executed p b.Block.id && not covered.(b.Block.id) then ok := false);
      !ok)

let prop_inline_engine_runs =
  QCheck.Test.make ~name:"random kernels: inlined models still trace" ~count:8
    spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(0) in
      let profiles, sink = Profile.sinks ~program in
      let _ = Engine.run ~program ~workload:w ~words:30_000 ~seed:1 ~sink in
      let inlined, _ = Inline.transform ~model:m ~profile:profiles.(0) () in
      let pairs' = Workload.standard_programs inlined in
      let w', program' = pairs'.(0) in
      let _, stats = Engine.capture ~program:program' ~workload:w' ~words:20_000 ~seed:2 in
      stats.Engine.total_words >= 20_000)

let prop_layout_file_roundtrip_random =
  QCheck.Test.make ~name:"random kernels: layout files round-trip" ~count:8
    spec_arb (fun spec ->
      let m = Generator.generate spec in
      let g = m.Model.graph in
      let map = Base.layout g ~order:m.Model.base_order in
      let map' = Layout_file.of_string ~graph:g (Layout_file.to_string ~graph:g map) in
      let ok = ref true in
      Graph.iter_blocks g (fun b ->
          if Address_map.addr map b.Block.id <> Address_map.addr map' b.Block.id then
            ok := false);
      !ok)

(* --- Sim_cache memo-key properties -------------------------------- *)

(* The digest must separate placements exactly: equal iff the placement
   the simulator consumes (absolute addresses and block sizes) is equal.
   Distinct layouts of random kernels must therefore never conflate. *)
let prop_digest_separates_layouts =
  QCheck.Test.make ~name:"random kernels: layout digest equal iff placement equal"
    ~count:10 spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(0) in
      let profiles, sink = Profile.sinks ~program in
      let _ = Engine.run ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed ~sink in
      let p = profiles.(0) in
      let layouts =
        [
          Program_layout.base ~model:m ~program;
          Program_layout.chang_hwu ~model:m ~program ~os_profile:p;
          Program_layout.opt_s ~model:m ~program ~os_profile:p ();
          Program_layout.opt_l ~model:m ~program ~os_profile:p ();
        ]
      in
      let placement l =
        let map = Program_layout.code_map l in
        (map.Replay.addr, map.Replay.bytes)
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              String.equal (Program_layout.digest a) (Program_layout.digest b)
              = (placement a = placement b))
            layouts)
        layouts)

(* Re-looking up a key already simulated must always hit and return the
   identical runs, for any cache geometry and layout level. *)
let prop_relookup_always_hits =
  QCheck.Test.make ~name:"sim-cache: identical lookups always hit" ~count:8
    QCheck.(
      quad (oneofl [ 4; 8; 16 ]) (oneofl [ 1; 2 ]) (oneofl [ 16; 32 ])
        (oneofl [ Levels.Base; Levels.CH; Levels.OptS ]))
    (fun (size_kb, assoc, line, level) ->
      let ctx = Lazy.force small_context in
      let layouts = Levels.build ctx level in
      let config = Config.make ~size_kb ~assoc ~line () in
      let r1 = (Runner.simulate_batch ctx ~members:[| (layouts, config) |] ()).(0) in
      let h0 = Sim_cache.hits () and m0 = Sim_cache.misses () in
      let r2 = (Runner.simulate_batch ctx ~members:[| (layouts, config) |] ()).(0) in
      Sim_cache.hits () = h0 + 1
      && Sim_cache.misses () = m0
      && Array.for_all2
           (fun (a : Runner.run) (b : Runner.run) ->
             a.Runner.counters = b.Runner.counters
             && a.Runner.os_block_misses = b.Runner.os_block_misses)
           r1 r2)

(* Distinct geometries must key separately even when layouts coincide:
   a geometry change can never return another geometry's runs. *)
let prop_distinct_configs_distinct_keys =
  QCheck.Test.make ~name:"sim-cache: distinct geometries never conflate" ~count:8
    QCheck.(pair (oneofl [ 4; 8; 16; 32 ]) (oneofl [ 1; 2; 4 ]))
    (fun (size_kb, assoc) ->
      let ctx = Lazy.force small_context in
      let layouts = Levels.build ctx Levels.Base in
      let digests = Array.map Program_layout.digest layouts in
      let key config =
        Sim_cache.key ~context:(Context.key ctx) ~layouts:digests ~config
          ~warmup_fraction:0.2 ~attribute_os:false
      in
      let k = key (Config.make ~size_kb ~assoc ()) in
      let k' = key (Config.make ~size_kb:(2 * size_kb) ~assoc ()) in
      let k'' = key (Config.make ~size_kb ~assoc ~policy:Config.Fifo ()) in
      k <> k' && k <> k'' && k' <> k'')

let () =
  Alcotest.run "properties"
    [
      ( "pipeline",
        [
          qcheck prop_generator_invariants;
          qcheck prop_pipeline_layouts_valid;
          qcheck prop_sequences_cover_executed;
          qcheck prop_inline_engine_runs;
          qcheck prop_layout_file_roundtrip_random;
        ] );
      ( "sim-cache",
        [
          qcheck prop_digest_separates_layouts;
          qcheck prop_relookup_always_hits;
          qcheck prop_distinct_configs_distinct_keys;
        ] );
    ]
