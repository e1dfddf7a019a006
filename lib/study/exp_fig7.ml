type result = {
  bins : (string * int) list;
  within_100_pct : float;
  within_1000_pct : float;
  last_inv_pct : float;
  top_routines : string list;
}

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let union = ctx.Context.avg_os_profile in
  let top = Popularity.top_routines union g ~n:10 in
  let routines = List.map fst top in
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
  let events = !calls in
  let cum_le edge_idx = 100.0 *. Histogram.cumulative_fraction_below merged edge_idx in
  (* Edge indices: bucket 2 ends at 100 words, bucket 5 at 1000. *)
  {
    bins = Histogram.to_list merged;
    within_100_pct = cum_le 2 *. float_of_int (Histogram.total merged) /. float_of_int events;
    within_1000_pct = cum_le 5 *. float_of_int (Histogram.total merged) /. float_of_int events;
    last_inv_pct = Stats.pct !last_inv events;
    top_routines = List.map (Model.routine_name ctx.Context.model) routines;
  }

let report ctx =
  let r = compute ctx in
  Result.report ~id:"fig7" ~section:"Figure 7: temporal reuse of the 10 hottest routines"
    [
      Result.note "top routines: %s" (String.concat ", " r.top_routines);
      Result.series ~label:"  words between consecutive calls (same OS invocation)"
        (List.map (fun (l, c) -> (l, float_of_int c)) r.bins);
      Result.note "called again within 100 words: %.0f%% of calls" r.within_100_pct;
      Result.note "called again within 1000 words: %.0f%% of calls" r.within_1000_pct;
      Result.note "not called again in same invocation: %.0f%%" r.last_inv_pct;
      Result.paper
        "~25% of calls recur within 100 words, ~70% within 1000; ~9% are last in invocation";
    ]
