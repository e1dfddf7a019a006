let report (ctx : Context.t) =
  let infos =
    Loopstat.analyze (Context.os_graph ctx) ctx.Context.avg_os_profile (Context.os_loops ctx)
  in
  let plain = fst (Loopstat.split_by_calls infos) in
  let iters =
    Array.of_list (List.map (fun (i : Loopstat.info) -> i.iterations_per_invocation) plain)
  in
  let n = Array.length iters in
  let le k = Array.fold_left (fun acc v -> if v <= k then acc + 1 else acc) 0 iters in
  let iter_hist = Histogram.explicit [| 2; 4; 6; 10; 25; 50; 100; 300 |] in
  Array.iter (fun v -> Histogram.add iter_hist (int_of_float v)) iters;
  let size_hist = Histogram.explicit [| 50; 100; 150; 200; 300; 500 |] in
  List.iter
    (fun (i : Loopstat.info) -> Histogram.add size_hist i.executed_body_bytes)
    plain;
  let max_size =
    List.fold_left (fun acc (i : Loopstat.info) -> max acc i.executed_body_bytes) 0 plain
  in
  let series h = List.map (fun (l, c) -> (l, float_of_int c)) (Histogram.to_list h) in
  Result.report ~id:"fig4" ~section:"Figure 4: loops without procedure calls"
    [
      Result.note "executed loops without calls: %d" n;
      Result.series ~label:"  iterations per invocation" (series iter_hist);
      Result.series ~label:"  executed static size (bytes)" (series size_hist);
      Result.note "loops with <= 6 iterations/invocation: %.0f%%" (Stats.pct (le 6.0) n);
      Result.note "loops with <= 25 iterations/invocation: %.0f%%" (Stats.pct (le 25.0) n);
      Result.note "largest executed loop body: %d bytes" max_size;
      Result.paper "156 loops; 50% run <= 6 iterations, ~75% <= 25; largest spans 300 bytes";
    ]
