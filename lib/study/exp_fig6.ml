let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let per_workload =
    Array.to_list
      (Array.mapi
         (fun i name ->
           let series = Popularity.routine_series ctx.Context.os_profiles.(i) g in
           let prefix n =
             Array.fold_left ( +. ) 0.0 (Array.sub series 0 (min n (Array.length series)))
           in
           Result.note "%-10s: %3d routines invoked; top-5 take %.1f%%, top-20 take %.1f%%"
             name (Array.length series) (prefix 5) (prefix 20))
         (Context.workload_names ctx))
  in
  let union = Popularity.routine_series ctx.Context.avg_os_profile g in
  Result.report ~id:"fig6" ~section:"Figure 6: routine invocation skew"
    (per_workload
    @ [
        Result.note "union of workloads: %d distinct routines executed" (Array.length union);
        Result.paper "about 600 routines executed; a few account for most invocations";
      ])
