open Helpers

let small_ctx () = Lazy.force small_context

(* ------------------------------------------------------------------ *)
(* Address_map                                                        *)
(* ------------------------------------------------------------------ *)

let test_address_map_place () =
  let d = diamond () in
  let m = Address_map.create d.g in
  check_bool "not placed" false (Address_map.is_placed m d.entry);
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Main_seq;
  check_bool "placed" true (Address_map.is_placed m d.entry);
  check_int "addr" 0 (Address_map.addr m d.entry);
  check_bool "region" true (Address_map.region m d.entry = Address_map.Main_seq);
  check_int "extent is end of block" 16 (Address_map.extent m);
  check_int "placed count" 1 (Address_map.placed_count m)

let test_address_map_errors () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  check_raises_invalid "double placement" (fun () ->
      Address_map.place m d.entry ~addr:64 ~region:Address_map.Cold);
  check_raises_invalid "negative address" (fun () ->
      Address_map.place m d.a ~addr:(-4) ~region:Address_map.Cold);
  check_raises_invalid "unplaced addr query" (fun () -> Address_map.addr m d.a)

(* Addresses stop below Address_map.addr_limit: a block at the last
   address is accepted and sorts last, the bound itself is refused. *)
let test_address_map_bound () =
  let d = diamond () in
  let m = Address_map.create d.g in
  let place b addr = Address_map.place m b ~addr ~region:Address_map.Cold in
  check_raises_invalid "address at the bound" (fun () -> place d.entry Address_map.addr_limit);
  check_raises_invalid "address far above" (fun () -> place d.entry max_int);
  check_int "refused blocks stay unplaced" 0 (Address_map.placed_count m);
  place d.entry (Address_map.addr_limit - 1);
  place d.a 0;
  Alcotest.(check (array int)) "highest address last" [| d.a; d.entry |]
    (Address_map.blocks_by_addr m)

let test_address_map_validate_missing () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  match Address_map.validate m with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "validate must reject incomplete maps"

let test_address_map_validate_overlap () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  (* entry is 16 bytes; placing the next block at 8 overlaps. *)
  Address_map.place m d.a ~addr:8 ~region:Address_map.Cold;
  Address_map.place m d.b ~addr:100 ~region:Address_map.Cold;
  Address_map.place m d.exit_ ~addr:200 ~region:Address_map.Cold;
  match Address_map.validate m with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "validate must reject overlaps"

let test_address_map_blocks_by_addr () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.exit_ ~addr:0 ~region:Address_map.Cold;
  Address_map.place m d.entry ~addr:50 ~region:Address_map.Cold;
  Alcotest.(check (array int)) "sorted by address" [| d.exit_; d.entry |]
    (Address_map.blocks_by_addr m)

let test_address_map_arrays () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:32 ~region:Address_map.Cold;
  let addr = Address_map.addr_array m in
  check_int "addr exported" 32 addr.(d.entry);
  check_int "unplaced exported as -1" (-1) addr.(d.a);
  let bytes = Address_map.bytes_array m in
  check_int "sizes exported" 16 bytes.(d.entry)

(* The first successful validate seals the map and records its digest;
   a failed one leaves it open. *)
let test_address_map_seal () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  check_raises_invalid "digest before validate" (fun () -> Address_map.digest m);
  (match Address_map.validate m with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "incomplete map validated");
  check_raises_invalid "digest after a failed validate" (fun () -> Address_map.digest m);
  List.iteri
    (fun i b -> Address_map.place m b ~addr:(16 + (32 * i)) ~region:Address_map.Cold)
    [ d.a; d.b; d.exit_ ];
  Address_map.validate m;
  check_raises_invalid "place after validate" (fun () ->
      Address_map.place m d.b ~addr:512 ~region:Address_map.Cold);
  check_string "digest covers addresses and sizes" (map_content_digest m)
    (Address_map.digest m);
  Address_map.validate m;
  check_bool "revalidating keeps the recorded digest" true
    (Address_map.digest m == Address_map.digest m)

(* ------------------------------------------------------------------ *)
(* Base layout                                                        *)
(* ------------------------------------------------------------------ *)

let test_base_layout () =
  let lc = loop_call () in
  let m = Base.layout lc.g ~order:[| lc.callee; lc.caller |] in
  Address_map.validate m;
  check_int "l0 first" 0 (Address_map.addr m lc.l0);
  check_int "l1 second" 16 (Address_map.addr m lc.l1);
  check_int "caller after callee" 32 (Address_map.addr m lc.c0);
  check_int "text order inside routine" 48 (Address_map.addr m lc.c1);
  check_int "extent" (7 * 16) (Address_map.extent m)

let test_base_layout_order_matters () =
  let lc = loop_call () in
  let m = Base.layout lc.g ~order:[| lc.caller; lc.callee |] in
  check_int "caller first now" 0 (Address_map.addr m lc.c0);
  check_int "callee last" (5 * 16) (Address_map.addr m lc.l0)

let test_base_layout_invalid_order () =
  let lc = loop_call () in
  check_raises_invalid "not a permutation" (fun () ->
      Base.layout lc.g ~order:[| lc.caller; lc.caller |]);
  check_raises_invalid "wrong length" (fun () ->
      Base.layout lc.g ~order:[| lc.caller |])

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_paper () =
  let passes = Schedule.paper in
  check_bool "non-empty" true (List.length passes > 10);
  (match passes with
  | first :: _ ->
      check_bool "first seed is interrupt" true
        (first.Schedule.service = Service.Interrupt);
      check_close 1e-9 "ExecThresh 1.4%" 0.014 first.Schedule.exec_thresh;
      check_close 1e-9 "BranchThresh 40%" 0.4 first.Schedule.branch_thresh
  | [] -> Alcotest.fail "empty schedule");
  Array.iter
    (fun s ->
      let mine = List.filter (fun p -> p.Schedule.service = s) passes in
      check_bool "every seed appears" true (mine <> []);
      let last = List.nth mine (List.length mine - 1) in
      check_close 1e-9 "final ExecThresh 0" 0.0 last.Schedule.exec_thresh;
      check_close 1e-9 "final BranchThresh 0" 0.0 last.Schedule.branch_thresh;
      ignore
        (List.fold_left
           (fun prev p ->
             check_bool "ExecThresh decreasing" true
               (p.Schedule.exec_thresh <= prev +. 1e-12);
             p.Schedule.exec_thresh)
           1.0 mine))
    Service.all

let test_schedule_uniform () =
  (* Application schedules have a single seed: one pass per level. *)
  let passes = Schedule.uniform ~levels:[ (0.01, 0.1); (0.0, 0.0) ] in
  check_int "one pass per level" 2 (List.length passes)

(* ------------------------------------------------------------------ *)
(* Sequence construction: the paper's Figure 9 worked example          *)
(* ------------------------------------------------------------------ *)

(* The paper's placement, in its own order: the report's [pass1] and
   [pass2] values list the block labels each pass placed. *)
let figure9_pass1 =
  [
    "push0"; "push1"; "push4"; "push8"; "read0"; "read1"; "read2"; "read3";
    "push9"; "push10"; "push11"; "push12"; "chk0"; "chk1"; "chk2"; "chk5";
    "push13"; "upd0"; "push14"; "push15"; "push17"; "push18"; "push19";
    "push16";
  ]

let test_sequence_figure9_golden () =
  let r = Exp_fig9.report (small_ctx ()) in
  Alcotest.(check (list string))
    "pass (0.01, 0.1) places blocks exactly as the paper"
    [ String.concat " " figure9_pass1 ] (texts r "pass1");
  Alcotest.(check (list string))
    "pass (0, 0) places the cold leftovers" [ "push5 push7" ] (texts r "pass2")

let test_sequence_no_duplicates_kernel () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let seqs =
    Sequence.build ~graph:g ~profile:ctx.Context.avg_os_profile
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:Schedule.paper ()
  in
  let seen = Array.make (Graph.block_count g) false in
  List.iter
    (fun (s : Sequence.t) ->
      Array.iter
        (fun b ->
          if seen.(b) then Alcotest.failf "block %d appears in two sequences" b;
          seen.(b) <- true)
        s.Sequence.blocks)
    seqs;
  List.iter
    (fun (s : Sequence.t) ->
      let sum =
        Array.fold_left
          (fun acc b -> acc + (Graph.block g b).Block.size)
          0 s.Sequence.blocks
      in
      check_int "sequence byte count" sum s.Sequence.bytes)
    seqs;
  let covered = Sequence.covered g seqs in
  Array.iteri
    (fun b s -> check_bool "covered agrees with membership" s covered.(b))
    seen

let test_sequence_threshold_excludes_cold () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let p = ctx.Context.avg_os_profile in
  let seqs =
    Sequence.build ~graph:g ~profile:p
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:
        (List.map
           (fun s ->
             { Schedule.service = s; exec_thresh = 0.001; branch_thresh = 0.1 })
           (Array.to_list Service.all))
      ()
  in
  let seed_entries =
    Array.to_list
      (Array.map (fun s -> (Model.seed_for model s).Model.entry) Service.all)
  in
  List.iter
    (fun (s : Sequence.t) ->
      Array.iter
        (fun b ->
          (* Seeds themselves are emitted unconditionally. *)
          if Profile.block_fraction p b < 0.001 && not (List.mem b seed_entries)
          then Alcotest.failf "cold block %d admitted above ExecThresh" b)
        s.Sequence.blocks)
    seqs

let test_sequence_seed_first () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let entry = (Model.seed_for model Service.Interrupt).Model.entry in
  let seqs =
    Sequence.build ~graph:g ~profile:ctx.Context.avg_os_profile
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:Schedule.paper ()
  in
  match seqs with
  | first :: _ ->
      check_int "the first sequence starts at the interrupt seed" entry
        first.Sequence.blocks.(0)
  | [] -> Alcotest.fail "no sequences built"

(* ------------------------------------------------------------------ *)
(* SelfConfFree selection                                             *)
(* ------------------------------------------------------------------ *)

(* The loop_call profile again: 10 invocations, 3 iterations each. *)
let scf_profile ?invocations (lc : loop_call) =
  let arcs b = Array.to_list (Graph.out_arcs lc.g b) in
  let arc_between src dst =
    List.find (fun a -> (Graph.arc lc.g a).Arc.dst = dst) (arcs src)
  in
  profile_of ?invocations lc.g
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

let test_scf_loop_discount () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let loops = Loops.find lc.g in
  (* No invocation data: the cutoff is a fraction of the adjusted total
     (110); the callee blocks (30/110 each) dominate because loop bodies
     are discounted to 10. *)
  let hot = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.25 in
  check_bool "only the callee blocks qualify" true
    (List.sort compare hot = List.sort compare [ lc.l0; lc.l1 ]);
  let all = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.05 in
  check_int "everything qualifies at 5%" 7 (List.length all);
  (match all with
  | first :: _ ->
      check_bool "most popular first" true (first = lc.l0 || first = lc.l1)
  | [] -> Alcotest.fail "empty");
  check_int "bytes" 32 (Scf.bytes lc.g hot)

let test_scf_invocation_relative () =
  let lc = loop_call () in
  let p = scf_profile ~invocations:10.0 lc in
  let loops = Loops.find lc.g in
  (* Per-invocation rates: c0/c4 = 1, loop body adjusted = 1, callee = 3. *)
  let hot = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:2.0 in
  check_bool "only callee reaches 2 per invocation" true
    (List.sort compare hot = List.sort compare [ lc.l0; lc.l1 ]);
  let every = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.9 in
  check_int "all blocks execute about once per invocation" 7 (List.length every)

let test_scf_kernel_area_size () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let hot =
    Scf.select ~graph:g ~profile:ctx.Context.avg_os_profile
      ~loops:(Context.os_loops ctx) ~cutoff:0.5
  in
  let bytes = Scf.bytes g hot in
  check_bool "default cutoff yields a usable area" true
    (bytes > 100 && bytes < 4096)

(* ------------------------------------------------------------------ *)
(* Opt layouts                                                        *)
(* ------------------------------------------------------------------ *)

let os_opt ?(params = Opt.params ()) ?(extract_loops = false) ctx =
  let model = ctx.Context.model in
  Opt.os_layout ~model ~profile:ctx.Context.avg_os_profile
    ~loops:(Context.os_loops ctx)
    { params with Opt.extract_loops }

let test_opt_s_valid_and_regions () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  Address_map.validate r.Opt.map;
  check_int "every block placed" (Graph.block_count g)
    (Address_map.placed_count r.Opt.map);
  check_bool "scf area non-empty" true (r.Opt.scf_bytes > 0);
  List.iter
    (fun b ->
      check_bool "scf block below scf_bytes" true
        (Address_map.addr r.Opt.map b < r.Opt.scf_bytes);
      check_bool "scf region" true
        (Address_map.region r.Opt.map b = Address_map.Self_conf_free))
    r.Opt.scf_blocks;
  check_int "scf bytes consistent" (Scf.bytes g r.Opt.scf_blocks) r.Opt.scf_bytes

let test_opt_s_holes_cold_only () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  let cache = (Opt.params ()).Opt.cache_size in
  let hole = r.Opt.scf_bytes in
  Graph.iter_blocks g (fun blk ->
      let b = blk.Block.id in
      let addr = Address_map.addr r.Opt.map b in
      let chunk = addr / cache in
      let off = addr mod cache in
      if chunk >= 1 && off < hole then
        match Address_map.region r.Opt.map b with
        | Address_map.Cold -> ()
        | region ->
            Alcotest.failf "hot block %d (%s) placed inside a hole" b
              (Address_map.region_to_string region))

let test_opt_s_hot_sequences_early () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  let sum_main = ref 0.0
  and n_main = ref 0
  and sum_other = ref 0.0
  and n_other = ref 0 in
  Graph.iter_blocks g (fun blk ->
      let b = blk.Block.id in
      match Address_map.region r.Opt.map b with
      | Address_map.Main_seq ->
          sum_main := !sum_main +. float_of_int (Address_map.addr r.Opt.map b);
          incr n_main
      | Address_map.Other_seq ->
          sum_other := !sum_other +. float_of_int (Address_map.addr r.Opt.map b);
          incr n_other
      | Address_map.Self_conf_free | Address_map.Loop_area | Address_map.Cold -> ());
  check_bool "main sequences exist" true (!n_main > 0);
  check_bool "other sequences exist" true (!n_other > 0);
  check_bool "main sequences placed lower" true
    (!sum_main /. float_of_int !n_main < !sum_other /. float_of_int !n_other)

let test_opt_l_extracts_loops () =
  let ctx = small_ctx () in
  let r = os_opt ~extract_loops:true ctx in
  Address_map.validate r.Opt.map;
  check_bool "loop blocks extracted" true (r.Opt.loop_blocks <> []);
  List.iter
    (fun b ->
      check_bool "loop region" true
        (Address_map.region r.Opt.map b = Address_map.Loop_area))
    r.Opt.loop_blocks

let test_opt_no_scf () =
  let ctx = small_ctx () in
  let r = os_opt ~params:(Opt.params ~scf_cutoff:None ()) ctx in
  Address_map.validate r.Opt.map;
  check_int "no scf blocks" 0 (List.length r.Opt.scf_blocks);
  check_int "no scf bytes" 0 r.Opt.scf_bytes

(* Cold blocks fill the SelfConfFree holes first fit: a later small
   block goes back to the first hole with room, not on from the hole
   used last.  64-byte logical caches; the 16-byte hot block h is the
   SelfConfFree area, so every logical cache past the first reserves
   its lowest 16 bytes.  Four 48-byte sequence blocks fill the rest of
   caches 0-3 and leave holes at 64, 128 and 192.  The unexecuted
   blocks, in id order: c1 (12 bytes) and c2 (8) open holes 64 and 128;
   c3 (4) fits the 4 bytes left at 76; c4 (20) fits no hole and goes
   past the end, skipping the hole at 256; c5 and c6 (4 each) fill hole
   128; c7 (8) takes hole 192. *)
let test_opt_cold_first_fit () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let blk size = Graph.add_block bld ~routine:r ~size () in
  let h = blk 16 in
  let seq = List.init 4 (fun _ -> blk 48) in
  let cold = List.map blk [ 12; 8; 4; 20; 4; 4; 8 ] in
  let arcs =
    List.map2 (fun src dst -> Graph.add_arc bld ~src ~dst Arc.Fallthrough)
      (h :: List.filteri (fun i _ -> i < 3) seq) seq
  in
  let g = Graph.freeze bld in
  let p =
    profile_of g ((h, 100.0) :: List.map (fun b -> (b, 10.0)) seq)
      (List.map (fun a -> (a, 10.0)) arcs)
  in
  let params = Opt.params ~cache_size:64 ~scf_cutoff:(Some 0.5) () in
  let seed_entry _ = h and schedule = Schedule.uniform ~levels:[ (0.0, 0.0) ] in
  let m = (Opt.layout ~graph:g ~profile:p ~loops:[] ~seed_entry ~schedule params).Opt.map in
  let addrs bs = List.map (Address_map.addr m) bs in
  Alcotest.(check (list int)) "SelfConfFree and sequences" [ 0; 16; 80; 144; 208 ]
    (addrs (h :: seq));
  Alcotest.(check (list int)) "cold blocks" [ 64; 128; 76; 272; 136; 140; 192 ] (addrs cold);
  let reference = Ref_layout.layout ~graph:g ~profile:p ~loops:[] ~seed_entry ~schedule params in
  check_bool "reference agrees" true
    (Address_map.addr_array reference.Opt.map = Address_map.addr_array m)

(* A cold place build, its sequences and SelfConfFree selection warm,
   allocates under two words per block, validate and digest included:
   the address array, a byte of region and a byte of mark per block, and
   assembly's working state (1.62 words per block on this kernel; 4.9
   while the seal sorted in fresh key arrays and digested a marshalled
   copy, 8.6 before marks, byte regions and packed keys).  The seal's
   sort keys and digest bytes live in per-domain scratch, which the
   first build here grows, so re-validating the sealed map allocates
   nothing per block. *)
let test_opt_place_allocation () =
  let ctx = small_ctx () in
  let n = Graph.block_count (Context.os_graph ctx) in
  let place_misses () = (List.assoc "place" (Layout_cache.stage_stats ())).Layout_cache.misses in
  Layout_cache.clear ();
  ignore (os_opt ctx);
  (* A minor collection first, so the count starts from settled totals. *)
  let allocated () = Gc.minor (); Gc.allocated_bytes () in
  let per_block since = (allocated () -. since) /. float_of_int (Sys.word_size / 8 * n) in
  let misses = place_misses () and before = allocated () in
  let map = (os_opt ~params:(Opt.params ~cache_size:4096 ()) ctx).Opt.map in
  let words = per_block before in
  check_int "one cold place build" (misses + 1) (place_misses ());
  if words > 1.8 then
    Alcotest.failf "%.2f words per block for %d blocks (at most 1.8)" words n;
  let before = allocated () in
  Address_map.validate map;
  let words = per_block before in
  if words >= 0.1 then
    Alcotest.failf "re-validating: %.3f words per block for %d blocks (want < 0.1)" words n

let test_opt_app_layout () =
  let ctx = small_ctx () in
  let app = (snd ctx.Context.pairs.(0)).Program.apps.(0) in
  let profile = ctx.Context.avg_app_profile app in
  let r = Opt.app_layout ~app ~profile ~stagger:0 ~addr_skew:0 (Opt.params ()) in
  Address_map.validate r.Opt.map;
  check_int "no scf area for applications" 0 r.Opt.scf_bytes;
  let entry = Graph.entry_of app.App_model.graph app.App_model.main in
  check_bool "main entry at the half-cache offset" true
    (Address_map.addr r.Opt.map entry >= 4096)

let test_opt_app_stagger () =
  let ctx = small_ctx () in
  let app = (snd ctx.Context.pairs.(0)).Program.apps.(0) in
  let profile = ctx.Context.avg_app_profile app in
  let a = Opt.app_layout ~app ~profile ~stagger:0 ~addr_skew:0 (Opt.params ()) in
  let b = Opt.app_layout ~app ~profile ~stagger:1 ~addr_skew:0 (Opt.params ()) in
  let entry = Graph.entry_of app.App_model.graph app.App_model.main in
  check_bool "staggered images differ" true
    (Address_map.addr a.Opt.map entry <> Address_map.addr b.Opt.map entry)

(* ------------------------------------------------------------------ *)
(* Chang-Hwu                                                          *)
(* ------------------------------------------------------------------ *)

let test_chang_hwu_intra_order () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let order = Chang_hwu.intra_routine_order lc.g p (Graph.routine lc.g lc.caller) in
  check_int "all blocks present" 5 (List.length order);
  (match order with
  | first :: _ -> check_int "entry first" lc.c0 first
  | [] -> Alcotest.fail "empty order");
  check_int "no duplicates" 5 (List.length (List.sort_uniq compare order))

let test_chang_hwu_callee_follows_caller () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let order = Chang_hwu.routine_order lc.g p in
  check_bool "caller then callee" true (order = [ lc.caller; lc.callee ])

let test_chang_hwu_layout_valid () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let m = Chang_hwu.layout g ctx.Context.avg_os_profile in
  Address_map.validate m;
  check_int "all blocks placed" (Graph.block_count g) (Address_map.placed_count m)

let test_chang_hwu_separates_cold () =
  let d = diamond () in
  let p =
    profile_of d.g
      [ (d.entry, 10.0); (d.a, 10.0); (d.exit_, 10.0) ]
      [ (d.arc_ea, 10.0); (d.arc_ax, 10.0) ]
  in
  let order = Chang_hwu.intra_routine_order d.g p (Graph.routine d.g d.routine) in
  match List.rev order with
  | last :: _ -> check_int "unexecuted block last" d.b last
  | [] -> Alcotest.fail "empty order"

(* ------------------------------------------------------------------ *)
(* Call_opt (Section 4.4)                                             *)
(* ------------------------------------------------------------------ *)

let test_call_opt_valid () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let r, stats = Call_opt.layout ~model ~profile:ctx.Context.avg_os_profile in
  Address_map.validate r.Opt.map;
  check_bool "matrix routines bounded" true (stats.Call_opt.matrix_routines <= 50);
  if stats.Call_opt.extracted_blocks > 0 then begin
    let g = Context.os_graph ctx in
    let extracted = ref 0 in
    Graph.iter_blocks g (fun blk ->
        if Address_map.region r.Opt.map blk.Block.id = Address_map.Loop_area then
          incr extracted);
    check_bool "loop-area blocks exist" true (!extracted > 0)
  end

(* No loop of the small kernel qualifies, so Call's own placement runs on
   the calibrated one: the claimed blocks, and only they, form the loop
   area, which opens one SelfConfFree area into the first logical cache
   past everything else. *)
let test_call_opt_calibrated () =
  let ctx = Lazy.force full_context in
  let r, stats = Call_opt.layout ~model:ctx.Context.model ~profile:ctx.Context.avg_os_profile in
  check_bool "candidate loops" true (stats.Call_opt.candidate_loops > 0);
  check_bool "matrix routines" true (stats.Call_opt.matrix_routines > 0);
  check_bool "extracted blocks" true (stats.Call_opt.extracted_blocks > 0);
  let map = r.Opt.map in
  let claimed = ref 0 and lowest = ref max_int and others_end = ref 0 in
  Graph.iter_blocks (Context.os_graph ctx) (fun blk ->
      let a = Address_map.addr map blk.Block.id in
      if Address_map.region map blk.Block.id = Address_map.Loop_area then begin
        incr claimed;
        lowest := min !lowest a
      end
      else others_end := max !others_end (a + blk.Block.size));
  check_int "loop-area blocks == extracted blocks" stats.Call_opt.extracted_blocks !claimed;
  let cache = (Opt.params ()).Opt.cache_size in
  check_int "loop area starts scf_bytes into the next logical cache"
    ((((!others_end + cache - 1) / cache) * cache) + r.Opt.scf_bytes)
    !lowest;
  check_bool "differs from OptS" true
    (Address_map.digest map <> Address_map.digest (os_opt ctx).Opt.map)

(* ------------------------------------------------------------------ *)
(* Program_layout                                                     *)
(* ------------------------------------------------------------------ *)

let test_program_layout_levels () =
  let ctx = small_ctx () in
  Array.iter
    (fun level ->
      let layouts = Levels.build ctx level in
      check_int "one layout per workload" (Context.workload_count ctx)
        (Array.length layouts);
      Array.iter
        (fun (l : Program_layout.t) ->
          Address_map.validate l.Program_layout.os_map;
          Array.iter Address_map.validate l.Program_layout.app_maps)
        layouts)
    Levels.all

let test_program_layout_code_map () =
  let ctx = small_ctx () in
  let layouts = Levels.build ctx Levels.Base in
  let with_apps =
    Array.to_list layouts
    |> List.find (fun (l : Program_layout.t) ->
           Array.length l.Program_layout.app_maps > 0)
  in
  let cm = Program_layout.code_map with_apps in
  check_int "one address table per image"
    (1 + Array.length with_apps.Program_layout.app_maps)
    (Array.length cm.Chunk.addr);
  let os_min = Array.fold_left min max_int cm.Chunk.addr.(0) in
  check_int "OS at address 0" 0 os_min;
  let app_min = Array.fold_left min max_int cm.Chunk.addr.(1) in
  check_bool "apps in their own region" true
    (app_min >= Program_layout.app_region_base)

(* The code map the old per-pass way: copy each map's addresses, shift the
   application images to their bases (the skew mirrors Program_layout's),
   and rebuild every size array block by block. *)
let reference_code_map (l : Program_layout.t) =
  let images = Array.append [| l.Program_layout.os_map |] l.Program_layout.app_maps in
  {
    Chunk.addr =
      Array.mapi
        (fun i m ->
          let a = Address_map.addr_array m in
          if i = 0 then a
          else
            let k = i - 1 in
            let b =
              Program_layout.app_region_base + (k * Program_layout.app_region_stride)
              + ((k + 1) * 1184)
            in
            Array.map (fun x -> x + b) a)
        images;
    bytes = Array.map (fun m -> sizes_of (Address_map.graph m)) images;
  }

(* Every layout builds its code map once: the same value on every call,
   equal to the old per-pass construction, with the OS row the sealed
   map's own array (no copy).  The rows are shared and read-only, so a
   replay pass and a stack-distance run must leave every image's content
   hashing to its sealed digest. *)
let test_program_layout_code_map_shared () =
  let ctx = small_ctx () in
  (* Base, C-H, OptS, OptL and OptA, one layout per workload each. *)
  let per_level = Array.map (fun level -> Levels.build ctx level) Levels.all in
  let base = per_level.(0) and ch = per_level.(1) and opt_s = per_level.(2) in
  let opt_a = per_level.(4) in
  let variants =
    [|
      ( "Base+OptS",
        Program_layout.make ~os_map:opt_s.(0).Program_layout.os_map
          ~app_maps:base.(0).Program_layout.app_maps );
      ( "OptA+C-H",
        Program_layout.make ~os_map:ch.(0).Program_layout.os_map
          ~app_maps:opt_a.(0).Program_layout.app_maps );
    |]
  in
  (* (name, layout, the workload whose trace it replays) *)
  let replays =
    Array.append
      (Array.concat
         (Array.to_list
            (Array.mapi
               (fun i ls -> Array.mapi (fun w l -> (Levels.to_string Levels.all.(i), l, w)) ls)
               per_level)))
      (Array.map (fun (name, l) -> (name, l, 0)) variants)
  in
  let layouts = Array.map (fun (name, l, _) -> (name, l)) replays in
  let check_layout (name, l) =
    let cm = Program_layout.code_map l in
    let ref_cm = reference_code_map l in
    check_bool (name ^ ": one map per layout") true (cm == Program_layout.code_map l);
    Alcotest.(check (array (array int))) (name ^ ": addresses") ref_cm.Chunk.addr cm.Chunk.addr;
    Alcotest.(check (array (array int))) (name ^ ": sizes") ref_cm.Chunk.bytes cm.Chunk.bytes;
    check_bool (name ^ ": OS row is the sealed map's own") true
      (cm.Chunk.addr.(0) == Address_map.sealed_addr l.Program_layout.os_map);
    Array.iteri
      (fun i row ->
        check_bool (name ^ ": sizes row is the graph's") true
          (row
          == Graph.block_sizes
               (Address_map.graph
                  (if i = 0 then l.Program_layout.os_map else l.Program_layout.app_maps.(i - 1)))))
      cm.Chunk.bytes
  in
  Array.iter check_layout layouts;
  Array.iter
    (fun (_, l, w) ->
      let trace = ctx.Context.traces.(w) and map = Program_layout.code_map l in
      Replay.run_range ~trace ~map ~warmup:0
        ~systems:[| System.unified (Config.make ~size_kb:8 ()) |];
      ignore (Stack_dist.from_trace ~trace ~map ()))
    replays;
  Array.iter
    (fun (name, (l : Program_layout.t)) ->
      Array.iter
        (fun m ->
          check_string (name ^ ": content still hashes to the sealed digest")
            (Address_map.digest m) (map_content_digest m))
        (Array.append [| l.Program_layout.os_map |] l.Program_layout.app_maps);
      check_layout (name, l))
    layouts

(* The digest is computed when the layout is built, from its maps'
   sealed digests, so a layout made from another layout's application
   maps gets the digest of what it holds, never the one its source had. *)
let test_program_layout_digest_memo () =
  let ctx = small_ctx () in
  let model = ctx.Context.model and _, program = ctx.Context.pairs.(0) in
  let app_maps = Program_layout.base_apps program in
  let base () = Program_layout.make ~os_map:(Program_layout.base_os model) ~app_maps in
  let l = Program_layout.make ~os_map:(os_opt ctx).Opt.map ~app_maps in
  let d = Program_layout.digest l in
  let derive (src : Program_layout.t) os_map =
    Program_layout.make ~os_map ~app_maps:src.Program_layout.app_maps
  in
  let same = derive l l.Program_layout.os_map in
  check_string "same OS map, same digest" d (Program_layout.digest same);
  let m = (base ()).Program_layout.os_map in
  let derived = derive l m in
  check_string "derived == built fresh" (Program_layout.digest (derive (base ()) m))
    (Program_layout.digest derived);
  check_bool "another OS map, another digest" false
    (String.equal d (Program_layout.digest derived));
  let cold = derive l m in
  let from_domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Program_layout.digest cold))
    |> List.map Domain.join
  in
  List.iter (check_string "cross-domain" (Program_layout.digest derived)) from_domains;
  check_string "repeated" (Program_layout.digest derived) (Program_layout.digest cold);
  check_bool "repeated calls read the kept string" true
    (Program_layout.digest cold == Program_layout.digest cold)

let test_program_layout_os_loops_memoized () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let a = Program_layout.os_loops model in
  let b = Program_layout.os_loops model in
  check_bool "same physical list" true (a == b)

let () =
  Alcotest.run "layout"
    [
      ( "address_map",
        [
          case "place" test_address_map_place;
          case "errors" test_address_map_errors;
          case "address bound" test_address_map_bound;
          case "validate missing" test_address_map_validate_missing;
          case "validate overlap" test_address_map_validate_overlap;
          case "blocks_by_addr" test_address_map_blocks_by_addr;
          case "arrays" test_address_map_arrays;
          case "seal" test_address_map_seal;
        ] );
      ( "base",
        [
          case "layout" test_base_layout;
          case "order matters" test_base_layout_order_matters;
          case "invalid order" test_base_layout_invalid_order;
        ] );
      ( "schedule",
        [ case "paper" test_schedule_paper; case "uniform" test_schedule_uniform ] );
      ( "sequence",
        [
          case "figure 9 golden" test_sequence_figure9_golden;
          case "no duplicates (kernel)" test_sequence_no_duplicates_kernel;
          case "threshold excludes cold" test_sequence_threshold_excludes_cold;
          case "seed first" test_sequence_seed_first;
        ] );
      ( "scf",
        [
          case "loop discount" test_scf_loop_discount;
          case "invocation-relative" test_scf_invocation_relative;
          case "kernel area size" test_scf_kernel_area_size;
        ] );
      ( "opt",
        [
          case "OptS valid, regions" test_opt_s_valid_and_regions;
          case "holes hold only cold code" test_opt_s_holes_cold_only;
          case "hot sequences early" test_opt_s_hot_sequences_early;
          case "OptL extracts loops" test_opt_l_extracts_loops;
          case "no SCF" test_opt_no_scf;
          case "cold blocks first fit" test_opt_cold_first_fit;
          case "place build allocation" test_opt_place_allocation;
          case "app layout" test_opt_app_layout;
          case "app stagger" test_opt_app_stagger;
        ] );
      ( "chang_hwu",
        [
          case "intra-routine order" test_chang_hwu_intra_order;
          case "callee follows caller" test_chang_hwu_callee_follows_caller;
          case "layout valid" test_chang_hwu_layout_valid;
          case "cold code last" test_chang_hwu_separates_cold;
        ] );
      ( "call_opt",
        [
          case "valid" test_call_opt_valid;
          case "calibrated kernel" test_call_opt_calibrated;
        ] );
      ( "program_layout",
        [
          case "levels" test_program_layout_levels;
          case "code map" test_program_layout_code_map;
          case "code map built once, shared" test_program_layout_code_map_shared;
          case "loop memoization" test_program_layout_os_loops_memoized;
          case "digest kept per value" test_program_layout_digest_memo;
        ] );
    ]
