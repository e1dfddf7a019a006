type row = {
  workload : string;
  dynamic_pct : float;
  static_executed_pct : float;
  static_pct : float;
}

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let loops = Context.os_loops ctx in
  Parallel.map_array
    (fun i (w, _) ->
      let p = ctx.Context.os_profiles.(i) in
      {
        workload = w.Workload.name;
        dynamic_pct = 100.0 *. Loopstat.dynamic_share_without_calls g p loops;
        static_executed_pct =
          100.0 *. Loopstat.static_executed_share_without_calls g p loops;
        static_pct = 100.0 *. Loopstat.static_share_without_calls ~profile:p g loops;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left);
        ("Dyn Loops/Dyn OS (%)", Table.Right);
        ("Static Loops/Static Exec'd OS (%)", Table.Right);
        ("Static Loops/Static OS (%)", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      Table.add_row t
        [
          r.workload;
          Table.cell_f ~decimals:1 r.dynamic_pct;
          Table.cell_f ~decimals:1 r.static_executed_pct;
          Table.cell_f ~decimals:1 r.static_pct;
        ])
    rows;
  Result.report ~id:"table3"
    ~section:"Table 3: OS instructions in loops without procedure calls"
    [
      Result.of_table t;
      Result.paper "dynamic 28.9-39.4%; static-executed 2.7-3.9%; static 0.1-0.4%";
    ]
