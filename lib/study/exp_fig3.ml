type result = { bins : Arcstat.bin array; ge_99 : float; le_01 : float }

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let union = ctx.Context.avg_os_profile in
  let bins = Arcstat.distribution union g in
  {
    bins;
    ge_99 = Arcstat.fraction_at_least bins 0.95;
    le_01 = Arcstat.fraction_at_most bins 0.01;
  }

let report ctx =
  let r = compute ctx in
  let series =
    Array.to_list r.bins
    |> List.map (fun (b : Arcstat.bin) ->
           (Printf.sprintf "(%.2f,%.2f]" b.Arcstat.lo b.Arcstat.hi,
            float_of_int b.Arcstat.count))
  in
  Result.report ~id:"fig3"
    ~section:"Figure 3: outgoing-arc transition-probability distribution"
    [
      Result.series ~label:"  arcs per probability bin" series;
      Result.scalar ~label:"arcs_ge_95_pct" ~value:(100.0 *. r.ge_99)
        ~text:(Printf.sprintf "arcs with probability >= 0.95: %.1f%%" (100.0 *. r.ge_99));
      Result.scalar ~label:"arcs_le_01_pct" ~value:(100.0 *. r.le_01)
        ~text:(Printf.sprintf "arcs with probability <= 0.01: %.1f%%" (100.0 *. r.le_01));
      Result.paper "73.6% of arcs have probability >= 0.99; 6.9% have <= 0.01 (bimodal)";
    ]
