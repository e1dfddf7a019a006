let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let loops = Context.os_loops ctx in
  let union = ctx.Context.avg_os_profile in
  let infos = Loopstat.analyze g union loops in
  let with_calls = snd (Loopstat.split_by_calls infos) in
  let n = List.length with_calls in
  let iters =
    Array.of_list
      (List.map (fun (i : Loopstat.info) -> i.iterations_per_invocation) with_calls)
  in
  let le k = Array.fold_left (fun acc v -> if v <= k then acc + 1 else acc) 0 iters in
  let iter_hist = Histogram.explicit [| 2; 4; 6; 10; 25; 50 |] in
  Array.iter (fun v -> Histogram.add iter_hist (int_of_float v)) iters;
  let sizes =
    Array.of_list
      (List.map
         (fun (i : Loopstat.info) -> float_of_int i.executed_bytes_with_callees)
         with_calls)
  in
  let size_hist = Histogram.explicit [| 256; 512; 1024; 2048; 4096; 8192; 16384 |] in
  Array.iter (fun v -> Histogram.add size_hist (int_of_float v)) sizes;
  let max_size = int_of_float (if Array.length sizes = 0 then 0.0 else Stats.maximum sizes) in
  let series h = List.map (fun (l, c) -> (l, float_of_int c)) (Histogram.to_list h) in
  Result.report ~id:"fig5" ~section:"Figure 5: loops with procedure calls"
    [
      Result.note "executed loops with calls: %d" n;
      Result.series ~label:"  iterations per invocation" (series iter_hist);
      Result.series ~label:"  executed static size incl. callees (bytes)" (series size_hist);
      Result.note "loops with <= 10 iterations/invocation: %.0f%%" (Stats.pct (le 10.0) n);
      Result.note "median executed size incl. callees: %.0f bytes (max %d)"
        (Stats.median sizes) max_size;
      Result.paper "71 loops; usually <= 10 iterations; median size 2KB, a few above 16KB";
    ]
