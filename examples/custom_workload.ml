(* Custom workload: a database-like load.

   The paper notes that Shell resembles database loads in its heavy
   system-call activity.  This example goes one step further and defines
   a new workload from scratch - an OLTP-flavoured mix of system calls
   (reads/writes), page faults on the buffer pool, and I/O interrupts -
   then checks whether a layout optimized on the paper's four standard
   workloads still helps it.  This is the paper's deployment question:
   the kernel is laid out once, from an average profile, and must serve
   loads that were never profiled.

   Run with:  dune exec examples/custom_workload.exe *)

let () =
  let model = Generator.generate Spec.small in
  let g = Prng.of_int 4242 in

  (* An unseen workload: syscall-heavy with bursty faults, running one
     compiler-like application image (the closest stand-in for a database
     engine among the bundled models: large, branchy code). *)
  let oltp =
    {
      Workload.name = "OLTP-like";
      mix = [| 0.25; 0.20; 0.53; 0.02 |];
      handler_weights =
        Array.map
          (fun handlers ->
            Workload.focused_weights g ~n:(Array.length handlers)
              ~used:(max 1 (Array.length handlers / 2))
              ~common_weight:0.4)
          model.Model.handlers;
      app_instances = [| 1; 1 |];
      os_fraction = 0.7;
      switch_period = 4;
      repeat_prob = 0.5;
    }
  in
  let program = Program.make ~os:model ~apps:[| App_model.cc1 () |] in

  (* Layouts are built from the *standard* profiles - the new workload is
     deliberately absent, exactly as a shipped pre-linked kernel would
     be. *)
  let ctx = Context.create ~spec:Spec.small ~words:300_000 ~seed:11 () in
  let os_profile = ctx.Context.avg_os_profile in
  let base = Program_layout.base ~model ~program in
  let ch = Program_layout.chang_hwu ~model ~program ~os_profile in
  let opt_s = Program_layout.opt_s ~model ~program ~os_profile () in

  (* Trace the new workload and replay it against all three layouts. *)
  let trace, stats = Engine.capture ~program ~workload:oltp ~words:800_000 ~seed:9 in
  Printf.printf "traced %s: %d words, OS share %.0f%%\n" oltp.Workload.name
    stats.Engine.total_words
    (100.0 *. float_of_int stats.Engine.os_words /. float_of_int stats.Engine.total_words);

  let t =
    Table.create ~title:"Unseen OLTP-like workload, 8KB direct-mapped cache"
      [
        ("layout", Table.Left); ("miss rate", Table.Right); ("OS misses", Table.Right);
        ("norm", Table.Right);
      ]
  in
  let base_misses = ref 0 in
  List.iter
    (fun (name, layout) ->
      let system = System.unified (Config.make ~size_kb:8 ()) in
      Runner.replay ~trace ~map:(Program_layout.code_map layout) [| system |];
      let c = System.counters system in
      if name = "Base" then base_misses := Counters.misses c;
      Table.add_row t
        [
          name;
          Table.cell_pct ~decimals:3 (100.0 *. Counters.miss_rate c);
          Table.cell_i (Counters.os_misses c);
          Table.cell_f (Stats.ratio (Counters.misses c) !base_misses);
        ])
    [ ("Base", base); ("C-H", ch); ("OptS", opt_s) ];
  Table.print t;
  print_endline
    "\nThe popular OS paths (interrupt entry, fault handling, syscall entry)\n\
     are shared across workloads (paper, Figure 2), so the pre-built OptS\n\
     layout transfers to a load it was never profiled on."
