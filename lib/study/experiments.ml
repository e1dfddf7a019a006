type t = { id : string; title : string; compute : Context.t -> Result.report }

let all =
  [
    { id = "table1"; title = "OS reference characteristics"; compute = Exp_table1.report };
    { id = "fig1"; title = "OS miss-address distribution"; compute = Exp_fig1.report };
    { id = "fig2"; title = "OS reference-address distribution"; compute = Exp_fig2.report };
    { id = "fig3"; title = "arc-probability distribution"; compute = Exp_fig3.report };
    { id = "table2"; title = "sequence predictability and weight"; compute = Exp_table2.report };
    { id = "table3"; title = "loops without calls"; compute = Exp_table3.report };
    { id = "fig4"; title = "loops without calls: distributions"; compute = Exp_fig4.report };
    { id = "fig5"; title = "loops with calls: distributions"; compute = Exp_fig5.report };
    { id = "fig6"; title = "routine invocation skew"; compute = Exp_fig6.report };
    { id = "fig7"; title = "temporal reuse of hot routines"; compute = Exp_fig7.report };
    { id = "fig8"; title = "basic-block invocation skew"; compute = Exp_fig8.report };
    { id = "fig9"; title = "worked placement example"; compute = Exp_fig9.report };
    { id = "table4"; title = "threshold schedule"; compute = Exp_table4.report };
    { id = "fig12"; title = "misses by layout level"; compute = Exp_fig12.report };
    { id = "fig13"; title = "refs/misses by region"; compute = Exp_fig13.report };
    { id = "fig14"; title = "miss distribution by layout"; compute = Exp_fig14.report };
    { id = "fig15"; title = "cache-size sweep and speedups"; compute = Exp_fig15.report };
    { id = "fig16"; title = "SelfConfFree-area sweep"; compute = Exp_fig16.report };
    { id = "fig17"; title = "line-size and associativity sweeps"; compute = Exp_fig17.report };
    { id = "fig18"; title = "Sep/Resv/Call setups"; compute = Exp_fig18.report };
    { id = "ablation"; title = "OptS ingredient ablation"; compute = Exp_ablation.report };
    { id = "inline"; title = "inlining vs sequences"; compute = Exp_inline.report };
    { id = "mp"; title = "4-CPU per-processor miss rates"; compute = Exp_mp.report };
    { id = "ph"; title = "Pettis-Hansen baseline comparison"; compute = Exp_ph.report };
    { id = "curve"; title = "conflict vs capacity decomposition"; compute = Exp_curve.report };
    { id = "policy"; title = "replacement-policy sensitivity"; compute = Exp_policy.report };
    { id = "robust"; title = "trace-length robustness"; compute = Exp_robust.report };
    { id = "victim"; title = "victim cache vs software layout"; compute = Exp_victim.report };
    { id = "crossval"; title = "profile cross-validation"; compute = Exp_crossval.report };
    { id = "fallthrough"; title = "fall-through rates by layout"; compute = Exp_fallthrough.report };
    { id = "noise"; title = "profile-noise sensitivity"; compute = Exp_noise.report };
  ]

let find id = List.find (fun e -> e.id = id) all

let compute e ctx = Trace_log.stage ("experiment." ^ e.id) (fun () -> e.compute ctx)

let compute_all exps ctx =
  Array.to_list (Parallel.map_array (fun _ e -> compute e ctx) (Array.of_list exps))

let run e ctx = Result.print (compute e ctx)
