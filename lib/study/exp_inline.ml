(* Function-inlining comparison (Section 4.1's rejected alternative).

   The kernel is rewritten with every hot small-leaf call site inlined,
   the four workloads are re-traced on the rewritten kernel, and an OptS
   layout is built for it from its own averaged profile.  The paper's
   argument (after Chen et al.) is that inlining expands the active code
   and increases conflicts, making it unstable next to sequence-based
   placement, which borrows only the callee blocks it needs. *)

let report (ctx : Context.t) =
  let model = ctx.Context.model in
  let inlined, stats =
    Trace_log.with_span "inline.transform" @@ fun () ->
    Inline.transform ~model ~profile:ctx.Context.avg_os_profile
  in
  let growth =
    Stats.pct stats.Inline.added_bytes (Graph.code_bytes model.Model.graph)
  in
  (* Re-trace the four workloads on the inlined kernel and build its OptS
     layout from its own averaged profile, exactly as for the original. *)
  let ictx = Context.derive ctx ~model:inlined ~seed:11 in
  let rate_under ctx =
    let layouts = Levels.build ctx Levels.OptS in
    (Runner.simulate_batch ctx ~members:[| (layouts, Config.make ~size_kb:8 ()) |] ()).(0)
    |> Array.map (fun (r : Runner.run) -> Counters.miss_rate r.Runner.counters)
  in
  let inline_rates = rate_under ictx in
  let reference = rate_under ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("OptS %", Table.Right);
        ("Inline+OptS %", Table.Right); ("ratio", Table.Right);
      ]
  in
  Array.iteri
    (fun i name ->
      let opt_s = reference.(i) and with_inline = inline_rates.(i) in
      Table.add_row t
        [
          Table.Text name;
          Table.Float (3, 100.0 *. opt_s);
          Table.Float (3, 100.0 *. with_inline);
          Table.Float (2, with_inline /. Float.max 1e-12 opt_s);
        ])
    (Context.workload_names ctx);
  Result.report ~id:"inline" ~section:"Inlining: OptS vs inline-then-OptS (8KB DM, 32B lines)"
    [
      Result.note
        "inlined %d call sites of %d leaf routines; +%d bytes (%.1f%% of the kernel)"
        stats.Inline.sites stats.Inline.callees stats.Inline.added_bytes growth;
      Result.of_table t;
      Result.paper
        "Chen et al. (cited in 4.1): inlining is not a stable and effective scheme;";
      Result.paper
        "code expansion increases conflicts, so the paper's sequences do not inline";
    ]
