let report (ctx : Context.t) =
  let bins = Arcstat.distribution ctx.Context.avg_os_profile (Context.os_graph ctx) in
  let series =
    Array.to_list bins
    |> List.map (fun (b : Arcstat.bin) ->
           (Printf.sprintf "(%.2f,%.2f]" b.Arcstat.lo b.Arcstat.hi,
            float_of_int b.Arcstat.count))
  in
  let ge_95 = 100.0 *. Arcstat.fraction_at_least bins 0.95 in
  let le_01 = 100.0 *. Arcstat.fraction_at_most bins 0.01 in
  Result.report ~id:"fig3"
    ~section:"Figure 3: outgoing-arc transition-probability distribution"
    [
      Result.series ~label:"  arcs per probability bin" series;
      Result.scalar
        ~text:(Printf.sprintf "arcs with probability >= 0.95: %.1f%%" ge_95)
        [ ("arcs_ge_95_pct", Table.Pct (1, ge_95)) ];
      Result.scalar
        ~text:(Printf.sprintf "arcs with probability <= 0.01: %.1f%%" le_01)
        [ ("arcs_le_01_pct", Table.Pct (1, le_01)) ];
      Result.paper "73.6% of arcs have probability >= 0.99; 6.9% have <= 0.01 (bimodal)";
    ]
