(* Multiprocessor scenario: the machine the paper measured.

   The Alliant FX/8 ran four processors, each with its own instruction
   cache, time-sharing one kernel image; parallel applications hammer the
   cross-processor interrupt path.  This example traces the TRFD_4
   workload on a 4-CPU machine model, replays each CPU's trace through
   its own 8 KB cache under the Base and OptS layouts, and shows both the
   per-CPU numbers and the coupling (how much of each CPU's OS activity
   is cross-processor interrupts forced by its peers).

   Run with:  dune exec examples/multiprocessor.exe *)

let () =
  let ctx = Context.create ~spec:Spec.small ~words:400_000 ~seed:11 () in
  let workload, program = ctx.Context.pairs.(0) in
  Printf.printf "workload: %s on 4 CPUs, one 8KB I-cache each\n"
    workload.Workload.name;

  let r =
    Multiproc.run ~program ~workload ~cpus:4 ~words_per_cpu:200_000 ~seed:3
      ~xcall_prob:0.5 ()
  in
  Printf.printf "cross-processor broadcasts sent: %d\n\n" r.Multiproc.xcalls_sent;

  let base = (Levels.build ctx Levels.Base).(0) in
  let opt_s = (Levels.build ctx Levels.OptS).(0) in
  let t =
    Table.create
      [
        ("CPU", Table.Left); ("OS words", Table.Right); ("xcalls", Table.Right);
        ("Base %", Table.Right); ("OptS %", Table.Right); ("saved", Table.Right);
      ]
  in
  Array.iteri
    (fun i (cpu : Multiproc.cpu) ->
      let rate layout =
        let system = System.unified (Config.make ~size_kb:8 ()) in
        Runner.replay ~trace:cpu.Multiproc.trace ~map:(Program_layout.code_map layout)
          [| system |];
        Counters.miss_rate (System.counters system)
      in
      let b = rate base and o = rate opt_s in
      Table.add_row t
        [
          Printf.sprintf "cpu%d" i;
          Table.cell_i cpu.Multiproc.os_words;
          Table.cell_i cpu.Multiproc.forced;
          Table.cell_f ~decimals:3 (100.0 *. b);
          Table.cell_f ~decimals:3 (100.0 *. o);
          Table.cell_pct ~decimals:0 (100.0 *. (1.0 -. (o /. b)));
        ])
    r.Multiproc.cpus;
  Table.print t;
  print_endline
    "\nEvery CPU sees the same hot kernel paths (clock ticks, cross-processor\n\
     interrupts, locks), so one shared OptS layout serves all four caches -\n\
     the same observation that lets the paper average its four probes."
