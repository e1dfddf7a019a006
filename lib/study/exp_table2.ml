type row = {
  workload : string;
  core_pred : Seqstat.predictability;
  core_weight : Seqstat.weight;
  regular_pred : Seqstat.predictability;
  regular_weight : Seqstat.weight;
}

type result = { core : Seqstat.set; regular : Seqstat.set; rows : row array }

let compute (ctx : Context.t) =
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
  let rows =
    Parallel.map_array
      (fun i (w, _) ->
        let trace = ctx.Context.traces.(i) in
        let p = ctx.Context.os_profiles.(i) in
        let misses = runs.(i).Runner.os_block_misses in
        {
          workload = w.Workload.name;
          core_pred = Seqstat.predictability core ~trace;
          core_weight = Seqstat.weight core ~graph:g ~profile:p ~os_block_misses:misses;
          regular_pred = Seqstat.predictability regular ~trace;
          regular_weight =
            Seqstat.weight regular ~graph:g ~profile:p ~os_block_misses:misses;
        })
      ctx.Context.pairs
  in
  { core; regular; rows }

let report ctx =
  let r = compute ctx in
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
  Array.iter
    (fun row ->
      Table.add_row t
        [
          row.workload;
          Table.cell_f row.core_pred.Seqstat.to_any;
          Table.cell_f row.core_pred.Seqstat.to_next;
          Table.cell_f ~decimals:1 row.core_weight.Seqstat.static_pct;
          Table.cell_f ~decimals:1 row.core_weight.Seqstat.refs_pct;
          Table.cell_f ~decimals:1 row.core_weight.Seqstat.misses_pct;
          Table.cell_f row.regular_pred.Seqstat.to_any;
          Table.cell_f row.regular_pred.Seqstat.to_next;
          Table.cell_f ~decimals:1 row.regular_weight.Seqstat.static_pct;
          Table.cell_f ~decimals:1 row.regular_weight.Seqstat.refs_pct;
          Table.cell_f ~decimals:1 row.regular_weight.Seqstat.misses_pct;
        ])
    r.rows;
  Result.report ~id:"table2" ~section:"Table 2: sequence predictability and weight"
    [
      Result.note "core sequences: %d BBs spanning %d routines, %d bytes (budget 8KB)"
        r.core.Seqstat.block_count r.core.Seqstat.routine_count r.core.Seqstat.bytes;
      Result.note "regular sequences: %d BBs spanning %d routines, %d bytes (budget 16KB)"
        r.regular.Seqstat.block_count r.regular.Seqstat.routine_count
        r.regular.Seqstat.bytes;
      Result.of_table t;
      Result.paper
        "core: P(any) 0.95-0.99, P(next) 0.71-0.77, 7-28% BBs, 23-67% refs, 35-75% misses;";
      Result.paper
        "regular: P(any) 0.96-0.98, P(next) 0.77-0.79, 13-38% BBs, 38-74% refs, 57-88% misses";
    ]
