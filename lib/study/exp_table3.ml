let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let loops = Context.os_loops ctx in
  let rows =
    Parallel.map_array
      (fun i ((w : Workload.t), _) ->
        let p = ctx.Context.os_profiles.(i) in
        Table.Text w.Workload.name
        :: List.map
             (fun share -> Table.Float (1, 100.0 *. share))
             [
               Loopstat.dynamic_share_without_calls g p loops;
               Loopstat.static_executed_share_without_calls g p loops;
               Loopstat.static_share_without_calls ~profile:p g loops;
             ])
      ctx.Context.pairs
  in
  let t =
    Table.create
      [
        ("Workload", Table.Left);
        ("Dyn Loops/Dyn OS (%)", Table.Right);
        ("Static Loops/Static Exec'd OS (%)", Table.Right);
        ("Static Loops/Static OS (%)", Table.Right);
      ]
  in
  Array.iter (Table.add_row t) rows;
  Result.report ~id:"table3"
    ~section:"Table 3: OS instructions in loops without procedure calls"
    [
      Result.of_table t;
      Result.paper "dynamic 28.9-39.4%; static-executed 2.7-3.9%; static 0.1-0.4%";
    ]
