(* Quickstart: generate a synthetic kernel, trace an OS-intensive
   workload, build the Base and OptS code layouts, and compare their
   instruction-cache miss rates on the paper's 8 KB direct-mapped cache.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A synthetic kernel.  [Spec.default] is calibrated against the
     Concentrix 3.0 statistics the paper reports; [Spec.small] is a fast
     scaled-down variant, fine for a demo. *)
  let model = Generator.generate Spec.small in
  Printf.printf "kernel: %d routines, %d basic blocks, %d KB of code\n"
    (Graph.routine_count model.Model.graph)
    (Graph.block_count model.Model.graph)
    (Graph.code_bytes model.Model.graph / 1024);

  (* 2. One of the paper's four workloads: TRFD_4, four parallel copies of
     a scientific code driving scheduler and cross-processor interrupt
     activity. *)
  let workload, program =
    (Workload.standard_programs model).(0)
  in
  Printf.printf "workload: %s (target OS share of fetches: %.0f%%)\n"
    workload.Workload.name
    (100.0 *. workload.Workload.os_fraction);

  (* 3. Trace one million instruction words and profile them. *)
  let trace, stats, profiles =
    Profile.capture ~program ~workload ~words:1_000_000 ~seed:1
  in
  Printf.printf "traced %d instruction words (%d OS invocations)\n"
    stats.Engine.total_words
    (Array.fold_left ( + ) 0 stats.Engine.invocations);
  let os_profile = profiles.(0) in

  (* 4. Two layouts, each an OS placement plus the applications in link
     order: the original link order (Base) and the paper's OptS
     (sequences grown from the four seeds + a SelfConfFree area). *)
  let app_maps = Program_layout.base_apps program in
  let base = Program_layout.make ~os_map:(Program_layout.base_os model) ~app_maps in
  let opt_s_os =
    Opt.os_layout ~model ~profile:os_profile ~loops:(Program_layout.os_loops model)
      (Opt.params ())
  in
  let opt_s = Program_layout.make ~os_map:opt_s_os.Opt.map ~app_maps in

  (* 5. Replay the same trace against both layouts through an 8 KB
     direct-mapped cache with 32-byte lines, counting after the first 20%
     of executions has warmed the cache. *)
  let miss_rate layout =
    let system = System.unified (Config.make ~size_kb:8 ()) in
    Runner.replay ~trace ~map:(Program_layout.code_map layout) [| system |];
    Counters.miss_rate (System.counters system)
  in
  let base_rate = miss_rate base in
  let opt_rate = miss_rate opt_s in
  Printf.printf "\n8KB direct-mapped, 32B lines:\n";
  Printf.printf "  Base miss rate: %.3f%%\n" (100.0 *. base_rate);
  Printf.printf "  OptS miss rate: %.3f%%  (%.0f%% fewer misses)\n"
    (100.0 *. opt_rate)
    (100.0 *. (1.0 -. (opt_rate /. base_rate)));
  Printf.printf "  estimated speed increase at a 30-cycle miss penalty: %.1f%%\n"
    (Speedup.speed_increase ~base_miss_rate:base_rate ~opt_miss_rate:opt_rate
       ~penalty:30)
