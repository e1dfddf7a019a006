let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let union = ctx.Context.avg_os_profile in
  let series = Popularity.block_series_deloop union g (Context.os_loops ctx) in
  let n = Array.length series in
  let peak_pct = if n = 0 then 0.0 else series.(0) in
  Result.report ~id:"fig8" ~section:"Figure 8: basic-block invocation skew (loops discounted)"
    [
      Result.note "executed basic blocks (union): %d" n;
      Result.scalar
        ~text:(Printf.sprintf "hottest block holds %.1f%% of invocations" peak_pct)
        [ ("peak_block_pct", Table.Pct (1, peak_pct)) ];
      Result.note "blocks above 3%%: %d; above 1%%: %d; below 0.01%%: %d"
        (Popularity.count_above series ~threshold:3.0)
        (Popularity.count_above series ~threshold:1.0)
        (Array.fold_left (fun acc v -> if v < 0.01 then acc + 1 else acc) 0 series);
      Result.paper
        "~8,500 executed BBs; 22 above 3%, 157 above 1%, ~6,000 below 0.01%; peak ~5%";
    ]
