type result = {
  loop_count : int;
  iters_le_6_pct : float;
  iters_le_25_pct : float;
  max_size_bytes : int;
  iteration_bins : (string * int) list;
  size_bins : (string * int) list;
}

let compute (ctx : Context.t) =
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
  {
    loop_count = n;
    iters_le_6_pct = Stats.pct (le 6.0) n;
    iters_le_25_pct = Stats.pct (le 25.0) n;
    max_size_bytes = max_size;
    iteration_bins = Histogram.to_list iter_hist;
    size_bins = Histogram.to_list size_hist;
  }

let report ctx =
  let r = compute ctx in
  Result.report ~id:"fig4" ~section:"Figure 4: loops without procedure calls"
    [
      Result.note "executed loops without calls: %d" r.loop_count;
      Result.series ~label:"  iterations per invocation"
        (List.map (fun (l, c) -> (l, float_of_int c)) r.iteration_bins);
      Result.series ~label:"  executed static size (bytes)"
        (List.map (fun (l, c) -> (l, float_of_int c)) r.size_bins);
      Result.note "loops with <= 6 iterations/invocation: %.0f%%" r.iters_le_6_pct;
      Result.note "loops with <= 25 iterations/invocation: %.0f%%" r.iters_le_25_pct;
      Result.note "largest executed loop body: %d bytes" r.max_size_bytes;
      Result.paper "156 loops; 50% run <= 6 iterations, ~75% <= 25; largest spans 300 bytes";
    ]
