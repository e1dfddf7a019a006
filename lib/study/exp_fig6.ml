type result = {
  workload : string;
  executed_routines : int;
  top5_pct : float;
  top20_pct : float;
  series_head : float array;
}

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  Array.mapi
    (fun i (w, _) ->
      let p = ctx.Context.os_profiles.(i) in
      let series = Popularity.routine_series p g in
      let prefix n =
        Array.fold_left ( +. ) 0.0 (Array.sub series 0 (min n (Array.length series)))
      in
      {
        workload = w.Workload.name;
        executed_routines = Array.length series;
        top5_pct = prefix 5;
        top20_pct = prefix 20;
        series_head = Array.sub series 0 (min 20 (Array.length series));
      })
    ctx.Context.pairs

let report ctx =
  let results = compute ctx in
  let union = Popularity.routine_series ctx.Context.avg_os_profile (Context.os_graph ctx) in
  let per_workload =
    Array.to_list results
    |> List.map (fun r ->
           Result.note "%-10s: %3d routines invoked; top-5 take %.1f%%, top-20 take %.1f%%"
             r.workload r.executed_routines r.top5_pct r.top20_pct)
  in
  Result.report ~id:"fig6" ~section:"Figure 6: routine invocation skew"
    (per_workload
    @ [
        Result.note "union of workloads: %d distinct routines executed" (Array.length union);
        Result.paper "about 600 routines executed; a few account for most invocations";
      ])
