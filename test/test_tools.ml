open Helpers

(* Layout serialization, Graphviz export, and the cache-theory properties
   DESIGN.md promises (LRU inclusion, miss-classification partition). *)

let small_ctx () = Lazy.force small_context

(* ------------------------------------------------------------------ *)
(* Layout_file                                                        *)
(* ------------------------------------------------------------------ *)

let opt_map ctx =
  (Opt.os_layout ~model:ctx.Context.model ~profile:ctx.Context.avg_os_profile
     ~loops:(Context.os_loops ctx) (Opt.params ()))
    .Opt.map

let test_layout_file_roundtrip () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let map = opt_map ctx in
  let s = Layout_file.to_string ~graph:g map in
  let map' = Layout_file.of_string ~graph:g s in
  check_int "same placed count" (Address_map.placed_count map)
    (Address_map.placed_count map');
  check_int "same extent" (Address_map.extent map) (Address_map.extent map');
  Graph.iter_blocks g (fun b ->
      if Address_map.addr map b.Block.id <> Address_map.addr map' b.Block.id then
        Alcotest.failf "block %d address changed across round-trip" b.Block.id;
      if Address_map.region map b.Block.id <> Address_map.region map' b.Block.id then
        Alcotest.failf "block %d region changed across round-trip" b.Block.id)

let test_layout_file_file_io () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let map = opt_map ctx in
  let path = Filename.temp_file "icache_layout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Layout_file.save path ~graph:g map;
      let map' = Layout_file.load path ~graph:g in
      check_int "file round-trip preserves extent" (Address_map.extent map)
        (Address_map.extent map'))

(* One formatter serves both: the file [save] writes is [to_string]
   byte for byte, and loading it back gives the same sealed digest. *)
let test_layout_file_save_is_to_string () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let map = opt_map ctx in
  let path = Filename.temp_file "icache_layout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Layout_file.save path ~graph:g map;
      check_string "file bytes" (Layout_file.to_string ~graph:g map)
        (In_channel.with_open_bin path In_channel.input_all);
      check_string "loaded digest" (Address_map.digest map)
        (Address_map.digest (Layout_file.load path ~graph:g)))

let test_layout_file_rejects_garbage () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  check_raises_invalid "malformed line" (fun () ->
      Layout_file.of_string ~graph:g "0x0 not-a-layout");
  check_raises_invalid "bad region" (fun () ->
      Layout_file.of_string ~graph:g "0x0 16 0 Nonsense foo");
  check_raises_invalid "block out of range" (fun () ->
      Layout_file.of_string ~graph:g "0x0 16 99999999 Cold foo");
  check_raises_invalid "address past the bound" (fun () ->
      Layout_file.of_string ~graph:g
        (Printf.sprintf "0x%x %d 0 Cold foo" Address_map.addr_limit (Graph.block g 0).Block.size))

let test_layout_file_rejects_size_mismatch () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let size = (Graph.block g 0).Block.size in
  let line = Printf.sprintf "0x0 %d 0 Cold foo" (size + 4) in
  check_raises_invalid "size mismatch" (fun () ->
      Layout_file.of_string ~graph:g line)

let test_layout_file_incomplete_rejected () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let size = (Graph.block g 0).Block.size in
  let s = Printf.sprintf "0x0 %d 0 Cold foo" size in
  (* Only one block placed: validation must fail. *)
  match Layout_file.of_string ~graph:g s with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "incomplete layout accepted"

(* ------------------------------------------------------------------ *)
(* Profile_file                                                       *)
(* ------------------------------------------------------------------ *)

let test_profile_file_roundtrip () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let p = ctx.Context.avg_os_profile in
  let p' = Profile_file.of_string ~graph:g (Profile_file.to_string ~graph:g p) in
  check_close 1e-6 "total preserved" p.Profile.total_blocks p'.Profile.total_blocks;
  check_close 1e-6 "invocations preserved" p.Profile.invocations
    p'.Profile.invocations;
  Graph.iter_blocks g (fun b ->
      if abs_float (p.Profile.block.(b.Block.id) -. p'.Profile.block.(b.Block.id))
         > 1e-9 *. (1.0 +. p.Profile.block.(b.Block.id))
      then Alcotest.failf "block %d count changed" b.Block.id);
  Graph.iter_arcs g (fun a ->
      if abs_float (p.Profile.arc.(a.Arc.id) -. p'.Profile.arc.(a.Arc.id)) > 1e-6
      then Alcotest.failf "arc %d count changed" a.Arc.id)

let test_profile_file_same_layout () =
  (* The round-tripped profile must produce the identical OptS layout. *)
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let model = ctx.Context.model in
  let p = ctx.Context.avg_os_profile in
  let p' = Profile_file.of_string ~graph:g (Profile_file.to_string ~graph:g p) in
  let map_of profile =
    (Opt.os_layout ~model ~profile ~loops:(Context.os_loops ctx) (Opt.params ()))
      .Opt.map
  in
  let a = map_of p and b = map_of p' in
  Graph.iter_blocks g (fun blk ->
      if Address_map.addr a blk.Block.id <> Address_map.addr b blk.Block.id then
        Alcotest.failf "layouts diverge at block %d" blk.Block.id)

let test_profile_file_file_io () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let p = ctx.Context.os_profiles.(0) in
  let path = Filename.temp_file "icache_profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_file.save path ~graph:g p;
      let p' = Profile_file.load path ~graph:g in
      check_close 1e-6 "file round-trip" p.Profile.total_blocks
        p'.Profile.total_blocks)

let test_profile_file_rejects () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  check_raises_invalid "shape mismatch" (fun () ->
      Profile_file.of_string ~graph:g "shape 1 1");
  check_raises_invalid "bad index" (fun () ->
      Profile_file.of_string ~graph:g "b 99999999 5");
  check_raises_invalid "negative count" (fun () ->
      Profile_file.of_string ~graph:g "b 0 -3");
  check_raises_invalid "malformed" (fun () ->
      Profile_file.of_string ~graph:g "what is this")

(* ------------------------------------------------------------------ *)
(* Dot                                                                *)
(* ------------------------------------------------------------------ *)

let test_dot_structure () =
  let lc = loop_call () in
  let r = Graph.routine lc.g lc.caller in
  let weights = Array.make (Graph.block_count lc.g) 0.0 in
  let s = Dot.routine_to_string lc.g ~weights ~loops:(Loops.find lc.g) r in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "digraph header" true (contains "digraph");
  check_bool "call stub present" true (contains "callee");
  check_bool "back edge highlighted" true (contains "color=red");
  check_bool "dashed call edge" true (contains "style=dashed")

let test_dot_weights_shading () =
  let lc = loop_call () in
  let weights = Array.make (Graph.block_count lc.g) 0.0 in
  weights.(lc.c1) <- 42.0;
  let r = Graph.routine lc.g lc.caller in
  let s = Dot.routine_to_string lc.g ~weights ~loops:[] r in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "weight annotation" true (contains "42x");
  check_bool "executed shading" true (contains "lightyellow")

(* ------------------------------------------------------------------ *)
(* Stack distances                                                    *)
(* ------------------------------------------------------------------ *)

let stack ?bytes lines =
  let trace, map = line_trace ~line:32 ?bytes lines in
  Stack_dist.from_trace ~trace ~map ~line:32 ()

let test_stack_cyclic () =
  (* Cycling over 4 lines: after the cold pass every access has stack
     distance 3, so any capacity >= 4 lines only takes the cold misses and
     any capacity <= 2 (power-of-two resolution) misses everything. *)
  let t = stack (List.concat (List.init 10 (fun _ -> [ 0; 1; 2; 3 ]))) in
  check_int "refs" 40 (Stack_dist.refs t);
  check_int "cold" 4 (Stack_dist.cold t);
  check_int "large cache: cold only" 4 (Stack_dist.misses_at t ~lines:4);
  check_int "huge cache same" 4 (Stack_dist.misses_at t ~lines:1024);
  check_int "tiny cache: everything misses" 40 (Stack_dist.misses_at t ~lines:2);
  check_raises_invalid "lines < 1" (fun () ->
      ignore (Stack_dist.misses_at t ~lines:0))

let test_stack_curve_monotone () =
  let g = Prng.of_int 7 in
  let t = stack (List.init 3000 (fun _ -> Prng.int g 600)) in
  let curve = List.init 11 (fun k -> Stack_dist.misses_at t ~lines:(1 lsl k)) in
  ignore
    (List.fold_left
       (fun prev m ->
         check_bool "monotone non-increasing" true (m <= prev);
         m)
       max_int curve);
  check_int "converges to cold misses" (Stack_dist.cold t) (List.nth curve 10)

let test_stack_spanning_blocks () =
  (* One 64-byte block touches two lines. *)
  let t = stack ~bytes:64 [ 0 ] in
  check_int "two line refs" 2 (Stack_dist.refs t);
  check_int "both cold" 2 (Stack_dist.cold t)

let test_stack_matches_fa_simulation () =
  (* The stack-distance count at a power-of-two capacity must equal a
     fully-associative LRU simulation of the same stream. *)
  let g = Prng.of_int 21 in
  let trace, map = line_trace ~line:32 (List.init 4000 (fun _ -> Prng.int g 700)) in
  let t = Stack_dist.from_trace ~trace ~map ~line:32 () in
  let lines = 64 in
  let sys = System.unified (Config.v ~size:(lines * 32) ~assoc:lines ~line:32) in
  Replay.run_range ~trace ~map ~systems:[| sys |] ~warmup:0;
  check_int "stack distances = fully-associative LRU"
    (Counters.misses (System.counters sys))
    (Stack_dist.misses_at t ~lines)

let test_stack_from_trace () =
  let ctx = small_ctx () in
  let layout = (Levels.build ctx Levels.Base).(0) in
  let t =
    Stack_dist.from_trace ~trace:ctx.Context.traces.(0)
      ~map:(Program_layout.code_map layout) ()
  in
  check_bool "saw references" true (Stack_dist.refs t > 0);
  check_bool "cold bounded by refs" true (Stack_dist.cold t < Stack_dist.refs t);
  let os_only =
    Stack_dist.from_trace ~trace:ctx.Context.traces.(0)
      ~map:(Program_layout.code_map layout) ~os_only:true ()
  in
  check_bool "os_only sees fewer refs" true
    (Stack_dist.refs os_only <= Stack_dist.refs t)

(* ------------------------------------------------------------------ *)
(* Trace_file                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_file_roundtrip () =
  let ctx = small_ctx () in
  let t0 = ctx.Context.traces.(0) in
  let path = Filename.temp_file "icache_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save path t0;
      let t1 = Trace_file.load path in
      check_int "length preserved" (Trace.length t0) (Trace.length t1);
      let same = ref true in
      for i = 0 to Trace.length t0 - 1 do
        if Trace.raw t0 i <> Trace.raw t1 i then same := false
      done;
      check_bool "events identical" true !same)

let test_trace_file_replay_equivalent () =
  let ctx = small_ctx () in
  let t0 = ctx.Context.traces.(1) in
  let layout = (Levels.build ctx Levels.Base).(1) in
  let map = Program_layout.code_map layout in
  let misses trace =
    let system = System.unified (Config.make ~size_kb:8 ()) in
    Replay.run_range ~warmup:0 ~trace ~map ~systems:[| system |];
    Counters.misses (System.counters system)
  in
  let path = Filename.temp_file "icache_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save path t0;
      check_int "round-tripped trace simulates identically" (misses t0)
        (misses (Trace_file.load path)))

let test_trace_file_bad_magic () =
  let path = Filename.temp_file "icache_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTATRAC";
      close_out oc;
      check_raises_invalid "bad magic rejected" (fun () ->
          ignore (Trace_file.load path)))

(* A file whose header is [magic] + [count] followed by [body]. *)
let with_trace_file ~count body f =
  let path = Filename.temp_file "icache_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc Trace_file.magic;
      let b8 = Bytes.create 8 in
      Bytes.set_int64_le b8 0 count;
      output_bytes oc b8;
      output_string oc body;
      close_out oc;
      f path)

let test_trace_file_huge_count () =
  with_trace_file ~count:(Int64.shift_left 1L 40) (String.make 8 '\000') (fun path ->
      check_raises_invalid "2^40-event header rejected before allocating" (fun () ->
          ignore (Trace_file.load path)))

let test_trace_file_truncated_body () =
  (* Two events promised, one and a half present. *)
  with_trace_file ~count:2L (String.make 6 '\000') (fun path ->
      check_raises_invalid "body cut mid-event rejected" (fun () ->
          ignore (Trace_file.load path)))

let test_trace_raw_roundtrip () =
  let t = Trace.create () in
  Trace.append t (Trace.Exec { image = 2; block = 99 });
  let v = Trace.raw t 0 in
  let t2 = Trace.create () in
  Trace.append_raw t2 v;
  check_int "raw round-trips" (Trace.raw t 0) (Trace.raw t2 0);
  check_raises_invalid "raw bounds" (fun () -> ignore (Trace.raw t 5))

(* ------------------------------------------------------------------ *)
(* Profile noise (Exp_noise)                                          *)
(* ------------------------------------------------------------------ *)

let test_noise_perturb () =
  let ctx = small_ctx () in
  let p = ctx.Context.avg_os_profile in
  let q = Exp_noise.perturb ~seed:5 ~spread:0.5 p in
  check_bool "zero counts stay zero" true
    (Array.for_all2
       (fun a b -> a > 0.0 || b = 0.0)
       p.Profile.block q.Profile.block);
  check_bool "positive counts stay positive" true
    (Array.for_all2 (fun a b -> a = 0.0 || b > 0.0) p.Profile.block q.Profile.block);
  let id = Exp_noise.perturb ~seed:5 ~spread:0.0 p in
  check_close 1e-6 "zero spread is the identity" p.Profile.total_blocks
    id.Profile.total_blocks

(* ------------------------------------------------------------------ *)
(* Cache-theory properties                                            *)
(* ------------------------------------------------------------------ *)

(* LRU inclusion: with the same number of sets and the same line size, a
   cache with more ways never misses more on the same access stream. *)
let prop_lru_inclusion =
  QCheck.Test.make ~name:"LRU inclusion in associativity" ~count:100
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 8191))
    (fun addrs ->
      let misses assoc =
        (* 8 sets of 32-byte lines. *)
        let s = Sim.create (Config.v ~size:(8 * 32 * assoc) ~assoc ~line:32) in
        List.iter
          (fun addr -> sim_access s ~image:0 ~block:0 ~addr ~bytes:4)
          addrs;
        Counters.misses (Sim.counters s)
      in
      let m1 = misses 1 and m2 = misses 2 and m4 = misses 4 in
      m2 <= m1 && m4 <= m2)

(* The miss classification partitions the misses. *)
let prop_classification_partitions =
  QCheck.Test.make ~name:"miss classes partition total misses" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (pair (int_bound 4095) bool))
    (fun accesses ->
      let s = Sim.create (Config.v ~size:512 ~assoc:2 ~line:16) in
      List.iter
        (fun (addr, os) ->
          sim_access s ~image:(if os then 0 else 1) ~block:0 ~addr ~bytes:4)
        accesses;
      let c = Sim.counters s in
      Counters.misses c
      = c.Counters.os_cold + c.Counters.os_self + c.Counters.os_cross
        + c.Counters.app_cold + c.Counters.app_self + c.Counters.app_cross)

(* Replaying the same trace twice without reset: the second pass has no
   cold misses (all lines were classified on the first pass). *)
let prop_second_pass_not_cold =
  QCheck.Test.make ~name:"second replay pass has no cold misses" ~count:50
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 2047))
    (fun addrs ->
      let s = Sim.create (Config.v ~size:256 ~assoc:1 ~line:32) in
      let replay () =
        List.iter
          (fun addr -> sim_access s ~image:0 ~block:0 ~addr ~bytes:4)
          addrs
      in
      replay ();
      let cold_first = (Sim.counters s).Counters.os_cold in
      Sim.reset_counters s;
      replay ();
      let cold_second = (Sim.counters s).Counters.os_cold in
      cold_second = 0 || cold_second < cold_first)

(* Profile conservation under averaging: the average of identical copies
   is the same distribution. *)
let prop_average_identity =
  QCheck.Test.make ~name:"averaging identical profiles is the identity" ~count:50
    QCheck.(list_of_size Gen.(1 -- 4) (int_range 1 1000))
    (fun scales ->
      let lc = loop_call () in
      let base =
        profile_of lc.g
          [ (lc.c0, 3.0); (lc.c1, 9.0); (lc.l0, 9.0) ]
          []
      in
      let copies =
        List.map (fun k -> Profile.scale_to base (float_of_int k)) scales
      in
      let avg = Profile.average copies in
      abs_float (Profile.block_fraction avg lc.c1 -. Profile.block_fraction base lc.c1)
      < 1e-9)

let () =
  Alcotest.run "tools"
    [
      ( "layout_file",
        [
          case "round-trip" test_layout_file_roundtrip;
          case "file io" test_layout_file_file_io;
          case "save writes to_string" test_layout_file_save_is_to_string;
          case "rejects garbage" test_layout_file_rejects_garbage;
          case "rejects size mismatch" test_layout_file_rejects_size_mismatch;
          case "rejects incomplete" test_layout_file_incomplete_rejected;
        ] );
      ( "profile_file",
        [
          case "round-trip" test_profile_file_roundtrip;
          case "same layout" test_profile_file_same_layout;
          case "file io" test_profile_file_file_io;
          case "rejects" test_profile_file_rejects;
        ] );
      ( "dot",
        [
          case "structure" test_dot_structure;
          case "weights shading" test_dot_weights_shading;
        ] );
      ( "stack_dist",
        [
          case "cyclic pattern" test_stack_cyclic;
          case "curve monotone" test_stack_curve_monotone;
          case "block spans lines" test_stack_spanning_blocks;
          case "matches FA simulation" test_stack_matches_fa_simulation;
          case "from trace" test_stack_from_trace;
        ] );
      ( "trace_file",
        [
          case "round-trip" test_trace_file_roundtrip;
          case "replay equivalent" test_trace_file_replay_equivalent;
          case "bad magic" test_trace_file_bad_magic;
          case "huge event count" test_trace_file_huge_count;
          case "truncated body" test_trace_file_truncated_body;
          case "raw round-trip" test_trace_raw_roundtrip;
        ] );
      ("noise", [ case "perturb" test_noise_perturb ]);
      ( "cache-theory",
        [
          qcheck prop_lru_inclusion;
          qcheck prop_classification_partitions;
          qcheck prop_second_pass_not_cold;
          qcheck prop_average_identity;
        ] );
    ]
