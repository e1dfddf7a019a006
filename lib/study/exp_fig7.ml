let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let union = ctx.Context.avg_os_profile in
  let routines = List.map fst (Popularity.top_routines union g ~n:10) in
  let merged = Histogram.explicit Reuse.default_edges in
  let last_inv = ref 0 and calls = ref 0 in
  (* Measure every trace concurrently, then merge in workload order. *)
  Array.iter
    (fun (r : Reuse.t) ->
      Histogram.merge merged r.Reuse.histogram;
      last_inv := !last_inv + r.Reuse.last_invocation;
      calls := !calls + r.Reuse.calls)
    (Parallel.map_array
       (fun _ trace -> Reuse.measure ~trace ~graph:g ~routines)
       ctx.Context.traces);
  (* Shares of all calls; edge index 2 ends at 100 words, 5 at 1000. *)
  let within edge_idx =
    100.0
    *. Histogram.cumulative_fraction_below merged edge_idx
    *. float_of_int (Histogram.total merged)
    /. float_of_int !calls
  in
  let share label text pct =
    Result.scalar ~text:(Printf.sprintf text pct) [ (label, Table.Pct (0, pct)) ]
  in
  Result.report ~id:"fig7" ~section:"Figure 7: temporal reuse of the 10 hottest routines"
    [
      Result.note "top routines: %s"
        (String.concat ", " (List.map (Model.routine_name ctx.Context.model) routines));
      Result.series ~label:"  words between consecutive calls (same OS invocation)"
        (List.map (fun (l, c) -> (l, float_of_int c)) (Histogram.to_list merged));
      share "within_100_pct" "called again within 100 words: %.0f%% of calls" (within 2);
      share "within_1000_pct" "called again within 1000 words: %.0f%% of calls" (within 5);
      share "last_inv_pct" "not called again in same invocation: %.0f%%"
        (Stats.pct !last_inv !calls);
      Result.paper
        "~25% of calls recur within 100 words, ~70% within 1000; ~9% are last in invocation";
    ]
