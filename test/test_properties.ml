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
          assert (Array.length r.Routine.blocks > 0);
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
      let _, _, profiles = Profile.capture ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed in
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
              { (Opt.params ()) with Opt.extract_loops = true })
             .Opt.map
      && check (fst (Call_opt.layout ~model:m ~profile:p)).Opt.map)

let prop_sequences_cover_executed =
  QCheck.Test.make ~name:"random kernels: sequences cover all executed blocks"
    ~count:10 spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(1) in
      let _, _, profiles = Profile.capture ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed in
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
      let _, _, profiles = Profile.capture ~program ~workload:w ~words:30_000 ~seed:1 in
      let inlined, _ = Inline.transform ~model:m ~profile:profiles.(0) in
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

(* --- Placement oracle --------------------------------------------- *)

(* Opt and Address_map against the list- and sort-based code they
   replaced (test/ref_layout.ml): random kernels, random parameters, a
   random exclusion, and a perturbed profile whose cold blocks tie and
   mix zero, -0.0 and negative counts, and whose extra hot blocks make
   the sequences cross several logical caches. *)
type layout_case = {
  spec : Spec.t;
  params : Opt.params;
  one_seed : bool;  (* interrupt seed only: executed blocks stay cold *)
  exclude : (int * int) option;  (* exclude b when b mod k = r *)
  perturb : bool;
  stagger : int;
  skew : int;
}

let layout_case_gen =
  QCheck.Gen.(
    let* spec = spec_gen in
    (* A random kernel executes about 5 KB of code, so only caches up to
       4 KB make the sequences cross a logical cache and leave holes; at 1
       and 2 KB there are dozens of them, and the cold filler leaves many
       partly filled. *)
    let* cache_kb = frequencyl [ (2, 1); (2, 2); (4, 4); (1, 8); (1, 16); (1, 32) ] in
    let* scf_cutoff = oneofl [ None; Some 2.0; Some 0.5; Some 0.125 ] in
    let* extract_loops = bool and* scf_holes = frequencyl [ (3, true); (1, false) ] in
    let* start_offset = oneofl [ 0; 0; 36 ] in
    let* one_seed = frequencyl [ (1, true); (3, false) ] and* perturb = bool in
    let* exclude = opt (pair (3 -- 17) (0 -- 2)) in
    let* stagger = 0 -- 3 and* skew = 0 -- 9000 in
    let params =
      {
        (Opt.params ~cache_size:(cache_kb * 1024) ~scf_cutoff ~scf_holes ()) with
        Opt.extract_loops;
        start_offset;
      }
    in
    return { spec; params; one_seed; exclude; perturb; stagger; skew })

let print_layout_case c =
      let p = c.params in
      Printf.sprintf
        "spec seed=%d cache=%d scf=%s loops=%b holes=%b start=%d one_seed=%b exclude=%s \
         perturb=%b stagger=%d skew=%d"
        c.spec.Spec.seed p.Opt.cache_size
        (match p.Opt.scf_cutoff with None -> "none" | Some f -> string_of_float f)
        p.Opt.extract_loops p.Opt.scf_holes p.Opt.start_offset c.one_seed
        (match c.exclude with None -> "none" | Some (k, r) -> Printf.sprintf "%d/%d" k r)
        c.perturb c.stagger c.skew

let layout_case_arb = QCheck.make ~print:print_layout_case layout_case_gen

let same_result g (a : Opt.result) (b : Opt.result) =
  let regions m = Array.init (Graph.block_count g) (Address_map.region m) in
  Address_map.addr_array a.Opt.map = Address_map.addr_array b.Opt.map
  && regions a.Opt.map = regions b.Opt.map
  && a.Opt.scf_blocks = b.Opt.scf_blocks
  && a.Opt.scf_bytes = b.Opt.scf_bytes
  && a.Opt.loop_blocks = b.Opt.loop_blocks

(* A case's OS graph, its Opt and reference OS layouts as functions of
   the parameters (over the case's profile, perturbed if asked), and the
   program and per-image profiles for its apps. *)
let case_builds c =
  let m = Generator.generate c.spec in
  let g = m.Model.graph in
  let w, program = (Workload.standard_programs m).(0) in
  let _, _, profiles = Profile.capture ~program ~workload:w ~words:40_000 ~seed:c.spec.Spec.seed in
  let p = profiles.(0) in
  let p =
    if not c.perturb then p
    else
      let block =
        Array.mapi
          (fun b x ->
            if b mod 5 = 0 then -.float_of_int (b mod 7)
            else if b mod 5 = 1 && x = 0.0 then float_of_int (b mod 4)
            else x)
          p.Profile.block
      in
      Profile.of_counts ~block ~arc:p.Profile.arc ~invocations:p.Profile.invocations
  in
  let loops = Layout_cache.loops g in
  let seed_entry s = (Model.seed_for m s).Model.entry in
  let schedule =
    if c.one_seed then Schedule.restrict [ Service.Interrupt ] Schedule.paper
    else Schedule.paper
  in
  let exclude = Option.map (fun (k, r) b -> b mod k = r) c.exclude in
  ( g,
    Opt.layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule ?exclude,
    Ref_layout.layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule ?exclude,
    program,
    profiles )

let prop_placement_matches_reference =
  QCheck.Test.make ~name:"random kernels x params: placement == reference" ~count:40
    layout_case_arb (fun c ->
      let g, opt, reference, program, profiles = case_builds c in
      let os = same_result g (opt c.params) (reference c.params) in
      let apps =
        Array.mapi
          (fun k (app : App_model.t) ->
            let profile = profiles.(k + 1) in
            same_result app.App_model.graph
              (Opt.app_layout ~app ~profile ~stagger:c.stagger ~addr_skew:c.skew c.params)
              (Ref_layout.app_layout ~app ~profile ~stagger:c.stagger ~addr_skew:c.skew
                 c.params))
          program.Program.apps
      in
      os && Array.for_all Fun.id apps)

(* --- Totality -------------------------------------------------------- *)

(* A block past the first logical cache that has no room beside the
   SelfConfFree hole ([hole + size > cache_size]) drops the holes
   (opt.mli), so such a build equals the one with [scf_holes = false]. *)

(* The case QCHECK_SEED=303146471 drew: its 4332-byte SelfConfFree area
   is larger than the 4096-byte cache. *)
let test_scf_area_above_cache () =
  let c =
    {
      spec =
        {
          Spec.small with
          Spec.seed = 49;
          leaf_count = 14;
          sub_mid_count = 6;
          mid_count = 11;
          handler_counts = [| 5; 1; 6; 3 |];
          cold_count = 75;
        };
      params = { (Opt.params ~cache_size:4096 ~scf_cutoff:(Some 0.125) ()) with Opt.start_offset = 36 };
      one_seed = false;
      exclude = Some (14, 0);
      perturb = true;
      stagger = 1;
      skew = 3432;
    }
  in
  let g, opt, reference, _, _ = case_builds c in
  check_int "SelfConfFree area" 4332 (opt c.params).Opt.scf_bytes;
  check_bool "built without holes" true
    (same_result g (opt c.params) (opt { c.params with Opt.scf_holes = false }));
  check_bool "reference agrees" true (same_result g (opt c.params) (reference c.params))

(* Two OptS builds that never finished on the small context, and the
   default cut-off, which keeps its holes. *)
let test_levels_small_cutoffs () =
  let ctx = Lazy.force small_context in
  let os_map ~cache_size ~cutoff scf_holes =
    let params = Opt.params ~cache_size ~scf_cutoff:(Some cutoff) ~scf_holes () in
    Address_map.addr_array (Levels.build ctx ~params Levels.OptS).(0).Program_layout.os_map
  in
  let holes_dropped ~cache_size ~cutoff =
    os_map ~cache_size ~cutoff true = os_map ~cache_size ~cutoff false
  in
  check_bool "8 KB, cut-off 0.01: no holes" true (holes_dropped ~cache_size:8192 ~cutoff:0.01);
  check_bool "4 KB, cut-off 0.001: no holes" true (holes_dropped ~cache_size:4096 ~cutoff:0.001);
  check_bool "8 KB, cut-off 0.5: holes kept" false (holes_dropped ~cache_size:8192 ~cutoff:0.5)

(* Cut-offs near 0 and caches down to 1 KB: every build ends, agrees with
   the reference, and spans at most one logical cache per block past the
   first two (the cursor enters a logical cache only to place a block in
   it). *)
let prop_placement_total =
  QCheck.Test.make ~name:"cut-offs near 0, caches down to 1 KB: placement ends" ~count:20
    (QCheck.make ~print:print_layout_case
       QCheck.Gen.(
         let* c = layout_case_gen in
         let* cache_kb = oneofl [ 1; 2; 4 ] and* cutoff = oneofl [ 0.0; 1e-4; 1e-3; 1e-2 ] in
         return
           {
             c with
             params =
               {
                 c.params with
                 Opt.cache_size = cache_kb * 1024;
                 scf_cutoff = Some cutoff;
                 scf_holes = true;
               };
           }))
    (fun c ->
      let g, opt, reference, _, _ = case_builds c in
      let r = opt c.params in
      Address_map.extent r.Opt.map <= (Graph.block_count g + 2) * c.params.Opt.cache_size
      && same_result g r (reference c.params))

(* Hand-built maps: blocks laid out in a random order with gaps that
   overlap, touch, tie or leave space, some left unplaced, from a base
   that may need three or more radix digits and may straddle a digit
   boundary or the address bound. *)
let map_case_gen =
  QCheck.Gen.(
    let* sizes = list_size (1 -- 40) (1 -- 48) in
    let n = List.length sizes in
    let* order = shuffle_l (List.init n Fun.id) in
    let* gaps = list_repeat n (oneofl [ `Tie; `Overlap; `Touch; `Touch; `Touch; `Apart ]) in
    let* skip = list_repeat n (frequencyl [ (12, false); (1, true) ]) in
    let* base = oneofl [ 0; 100; (1 lsl 22) - 256; (1 lsl 24) + 12; (1 lsl 33) - 256; Address_map.addr_limit - 256 ] in
    return (sizes, order, gaps, skip, base))

let map_case_arb = QCheck.make map_case_gen

let prop_validate_matches_reference =
  QCheck.Test.make ~name:"hand-built maps: validate and blocks_by_addr == reference"
    ~count:500 map_case_arb (fun (sizes, order, gaps, skip, base) ->
      let bld = Graph.builder () in
      let r = Graph.declare_routine bld "r" in
      List.iter (fun size -> ignore (Graph.add_block bld ~routine:r ~size ())) sizes;
      let g = Graph.freeze bld in
      let map = Address_map.create g in
      let size b = (Graph.block g b).Block.size in
      (* A block at or past the bound is refused and stays unplaced. *)
      let refused = ref true in
      let _ =
        List.fold_left2
          (fun (at, prev) (b, gap) skip ->
            let a =
              match (gap, prev) with
              | `Tie, Some (pa, _) -> pa
              | `Overlap, Some (pa, ps) -> pa + max 0 (ps - 1)
              | `Apart, _ -> at + 8
              | _ -> at
            in
            if skip then (at, prev)
            else if a >= Address_map.addr_limit then begin
              (match Address_map.place map b ~addr:a ~region:Address_map.Cold with
              | exception Invalid_argument _ -> ()
              | () -> refused := false);
              (at, prev)
            end
            else begin
              Address_map.place map b ~addr:a ~region:Address_map.Cold;
              (max at (a + size b), Some (a, size b))
            end)
          (base, None) (List.combine order gaps) skip
      in
      let addr = Address_map.addr map in
      let expect = Ref_layout.blocks_by_addr map in
      let got = Address_map.blocks_by_addr map in
      (* The reference's comparison sort leaves ties in no set order; the
         radix sort puts them in id order. *)
      let expect_ordered = Array.copy expect in
      Array.stable_sort (fun a b -> compare (addr a, a) (addr b, b)) expect_ordered;
      let ok f = match f map with () -> true | exception Failure _ -> false in
      let ref_ok = ok Ref_layout.validate in
      !refused
      && Array.map addr expect = Array.map addr got
      && got = expect_ordered
      && ref_ok = ok Address_map.validate)

(* --- Sim_cache memo-key properties -------------------------------- *)

(* The digest must separate placements exactly: equal iff the placement
   the simulator consumes (absolute addresses and block sizes) is equal.
   Distinct layouts of random kernels must therefore never conflate, and
   two layouts assembled from equal maps must key alike.  The layouts of
   every program share its Base application maps. *)
let prop_digest_separates_layouts =
  QCheck.Test.make ~name:"random kernels: layout digest equal iff placement equal"
    ~count:10 spec_arb (fun spec ->
      let m = Generator.generate spec in
      let pairs = Workload.standard_programs m in
      let w, program = pairs.(0) in
      let _, _, profiles = Profile.capture ~program ~workload:w ~words:40_000 ~seed:spec.Spec.seed in
      let p = profiles.(0) in
      let app_profiles = Array.sub profiles 1 (Array.length profiles - 1) in
      let opt_os params =
        (Opt.os_layout ~model:m ~profile:p ~loops:(Program_layout.os_loops m) params).Opt.map
      in
      let base_os = Program_layout.base_os m
      and ch_os = Program_layout.chang_hwu_os ~model:m ~os_profile:p
      and opt_s_os = opt_os (Opt.params ()) in
      let built =
        Array.to_list pairs
        |> List.concat_map (fun (_, program) ->
               List.map
                 (fun os_map ->
                   Program_layout.make ~os_map ~app_maps:(Program_layout.base_apps program))
                 [ base_os; ch_os; opt_s_os ])
      in
      let opt_apps =
        Program_layout.opt_apps ~program ~app_profiles ~params:(Opt.params ())
      in
      let with_opt_apps os_map = Program_layout.make ~os_map ~app_maps:opt_apps in
      let layouts =
        built
        @ [
            Program_layout.make
              ~os_map:(opt_os { (Opt.params ()) with Opt.extract_loops = true })
              ~app_maps:(Program_layout.base_apps program);
            with_opt_apps opt_s_os;
            with_opt_apps ch_os;
            with_opt_apps base_os;
            Program_layout.make ~os_map:opt_s_os ~app_maps:(Program_layout.base_apps program);
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
        Sim_cache.key ~context:(Context.key ctx) ~layouts:digests ~spec:(System.Unified config)
          ~warmup_fraction:0.2 ~attribute_os:false
      in
      let k = key (Config.make ~size_kb ~assoc ()) in
      let k' = key (Config.make ~size_kb:(2 * size_kb) ~assoc ()) in
      let k'' = key (Config.make ~size_kb ~assoc ~policy:Config.Fifo ()) in
      k <> k' && k <> k'' && k' <> k'')

(* Every field of a spec separates keys, beyond the unified geometry. *)
let test_spec_fields_separate_keys () =
  let ctx = Lazy.force small_context in
  let layouts = Array.map Program_layout.digest (Levels.build ctx Levels.Base) in
  let key spec =
    Sim_cache.key ~context:(Context.key ctx) ~layouts ~spec ~warmup_fraction:0.2
      ~attribute_os:false
  in
  let c4 = Config.make ~size_kb:4 () and c8 = Config.make ~size_kb:8 () in
  let differ what a b = check_bool what true (key a <> key b) in
  differ "split os/app swapped" (System.Split { os = c4; app = c8 })
    (System.Split { os = c8; app = c4 });
  differ "hot_limit" (System.Reserved { hot = c4; rest = c8; hot_limit = 1024 })
    (System.Reserved { hot = c4; rest = c8; hot_limit = 2048 });
  differ "entries" (System.Victim { main = c8; entries = 4 })
    (System.Victim { main = c8; entries = 8 });
  differ "organization" (System.Unified c8) (System.Victim { main = c8; entries = 4 })

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
      ( "placement",
        [ qcheck prop_placement_matches_reference; qcheck prop_validate_matches_reference ] );
      ( "totality",
        [
          case "SelfConfFree area above the cache" test_scf_area_above_cache;
          case "OptS at small cut-offs" test_levels_small_cutoffs;
          qcheck prop_placement_total;
        ] );
      ( "sim-cache",
        [
          qcheck prop_digest_separates_layouts;
          qcheck prop_relookup_always_hits;
          qcheck prop_distinct_configs_distinct_keys;
          case "sim-cache: every spec field separates keys" test_spec_fields_separate_keys;
        ] );
    ]
