let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let seqs = (Levels.opt_result ctx Levels.OptS).Opt.sequences in
  let core = Seqstat.of_sequences g seqs ~budget_bytes:8192 in
  let regular = Seqstat.of_sequences g seqs ~budget_bytes:16384 in
  (* Misses measured under the Base layout, 8 KB DM, 32 B lines. *)
  let layouts = Levels.build ctx Levels.Base in
  let runs =
    (Runner.simulate_batch ctx
       ~members:[| (layouts, Config.make ~size_kb:8 ()) |]
       ~attribute_os:true ())
      .(0)
  in
  (* One row per workload: predictability and weight of the core, then
     the regular, sequences. *)
  let rows =
    Parallel.map_array
      (fun i ((w : Workload.t), _) ->
        let trace = ctx.Context.traces.(i) in
        let p = ctx.Context.os_profiles.(i) in
        let misses = runs.(i).Runner.os_block_misses in
        let cells set =
          let pred = Seqstat.predictability set ~trace in
          let weight = Seqstat.weight set ~graph:g ~profile:p ~os_block_misses:misses in
          [
            Table.cell_f pred.Seqstat.to_any;
            Table.cell_f pred.Seqstat.to_next;
            Table.cell_f ~decimals:1 weight.Seqstat.static_pct;
            Table.cell_f ~decimals:1 weight.Seqstat.refs_pct;
            Table.cell_f ~decimals:1 weight.Seqstat.misses_pct;
          ]
        in
        (w.Workload.name :: cells core) @ cells regular)
      ctx.Context.pairs
  in
  let t =
    Table.create
      [
        ("Workload", Table.Left);
        ("core P(any)", Table.Right); ("core P(next)", Table.Right);
        ("core BB%", Table.Right); ("core ref%", Table.Right); ("core miss%", Table.Right);
        ("reg P(any)", Table.Right); ("reg P(next)", Table.Right);
        ("reg BB%", Table.Right); ("reg ref%", Table.Right); ("reg miss%", Table.Right);
      ]
  in
  Array.iter (Table.add_row t) rows;
  Result.report ~id:"table2" ~section:"Table 2: sequence predictability and weight"
    [
      Result.note "core sequences: %d BBs spanning %d routines, %d bytes (budget 8KB)"
        core.Seqstat.block_count core.Seqstat.routine_count core.Seqstat.bytes;
      Result.note "regular sequences: %d BBs spanning %d routines, %d bytes (budget 16KB)"
        regular.Seqstat.block_count regular.Seqstat.routine_count regular.Seqstat.bytes;
      Result.of_table t;
      Result.paper
        "core: P(any) 0.95-0.99, P(next) 0.71-0.77, 7-28% BBs, 23-67% refs, 35-75% misses;";
      Result.paper
        "regular: P(any) 0.96-0.98, P(next) 0.77-0.79, 13-38% BBs, 38-74% refs, 57-88% misses";
    ]
