let report (ctx : Context.t) =
  let config = Config.make ~size_kb:8 () in
  (* The five levels build concurrently, then the whole level sweep is
     one batch: every uncached member replays in the same fused pass over
     each workload trace. *)
  let batch =
    Runner.simulate_batch ctx
      ~members:
        (Parallel.map_array (fun _ level -> (Levels.build ctx level, config)) Levels.all)
      ()
  in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("OS refs", Table.Right); ("Level", Table.Left);
        ("OS self", Table.Right); ("OS x-app", Table.Right);
        ("App x-OS", Table.Right); ("App self", Table.Right);
        ("Total", Table.Right); ("Norm", Table.Right);
      ]
  in
  Array.iteri
    (fun i name ->
      let c0 = batch.(0).(i).Runner.counters in
      let base_total = Counters.misses c0 in
      Array.iteri
        (fun k level ->
          let c = batch.(k).(i).Runner.counters in
          Table.add_row t
            [
              Table.Text (if k = 0 then name else "");
              (if k = 0 then Table.Pct (1, Stats.pct c0.Counters.refs_os (Counters.refs c0))
               else Table.Text "");
              Table.Text (Levels.to_string level);
              Table.Int (c.Counters.os_self + c.Counters.os_cold);
              Table.Int c.Counters.os_cross;
              Table.Int c.Counters.app_cross;
              Table.Int (c.Counters.app_self + c.Counters.app_cold);
              Table.Int (Counters.misses c);
              Table.Float (2, Stats.ratio (Counters.misses c) base_total);
            ])
        Levels.all;
      Table.add_separator t)
    (Context.workload_names ctx);
  Result.report ~id:"fig12" ~section:"Figure 12: misses by layout level (8KB DM, 32B lines)"
    [
      Result.of_table t;
      Result.paper
        "OS is 40-60% of refs (Shell ~100%); C-H drops misses to 0.43-0.62 of Base,";
      Result.paper
        "OptS to 0.24-0.53 (25% below C-H); OptL ~ OptS; OptA another 4-19% lower";
    ]
