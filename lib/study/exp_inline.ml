(* Function-inlining comparison (Section 4.1's rejected alternative).

   The kernel is rewritten with every hot small-leaf call site inlined,
   the four workloads are re-traced on the rewritten kernel, and an OptS
   layout is built for it from its own averaged profile.  The paper's
   argument (after Chen et al.) is that inlining expands the active code
   and increases conflicts, making it unstable next to sequence-based
   placement, which borrows only the callee blocks it needs. *)

type row = {
  workload : string;
  opt_s_rate : float;  (** OptS on the original kernel. *)
  inline_rate : float;  (** OptS on the inlined kernel. *)
}

type result = {
  stats : Inline.stats;
  code_growth_pct : float;
  rows : row array;
}

let compute (ctx : Context.t) =
  let model = ctx.Context.model in
  let inlined, stats =
    Trace_log.with_span "inline.transform" @@ fun () ->
    Inline.transform ~model ~profile:ctx.Context.avg_os_profile ()
  in
  let growth =
    Stats.pct stats.Inline.added_bytes (Graph.code_bytes model.Model.graph)
  in
  (* Re-trace the four workloads on the inlined kernel and build its OptS
     layout from its own averaged profile, exactly as for the original.
     The captures and the replays are independent per workload and fan
     out. *)
  let pairs = Workload.standard_programs inlined in
  let captures =
    Parallel.map_array
      (fun i ((w : Workload.t), program) ->
        Trace_log.with_span "inline.trace"
          ~args:[ ("workload", Json.String w.Workload.name); ("words", Json.Int ctx.Context.words) ]
        @@ fun () ->
        let trace, _, profiles =
          Profile.capture ~program ~workload:w ~words:ctx.Context.words ~seed:(11 + i)
        in
        (trace, profiles.(0)))
      pairs
  in
  let avg = Profile.average (Array.to_list (Array.map snd captures)) in
  let opt =
    Trace_log.with_span "opt.os_layout" @@ fun () ->
    let loops = Loops.find inlined.Model.graph in
    Opt.os_layout ~model:inlined ~profile:avg ~loops (Opt.params ())
  in
  let maps =
    Array.map
      (fun (_, program) ->
        Program_layout.code_map
          (Program_layout.with_os_map
             (Program_layout.base ~model:inlined ~program)
             ~name:"Inline+OptS" opt.Opt.map ~os_meta:(Some opt)))
      pairs
  in
  let inline_rates =
    Parallel.map_array
      (fun i (trace, _) ->
        let system = System.create (System.Unified (Config.make ~size_kb:8 ())) in
        Runner.replay ~trace ~map:maps.(i) [| system |];
        Counters.miss_rate (System.counters system))
      captures
  in
  (* Reference: plain OptS on the original kernel, original traces. *)
  let opt_layouts = Levels.build ctx Levels.OptS in
  let reference =
    (Runner.simulate_batch ctx ~members:[| (opt_layouts, Config.make ~size_kb:8 ()) |] ()).(0)
  in
  let rows =
    Array.mapi
      (fun i ((w : Workload.t), _) ->
        {
          workload = w.Workload.name;
          opt_s_rate = Counters.miss_rate reference.(i).Runner.counters;
          inline_rate = inline_rates.(i);
        })
      ctx.Context.pairs
  in
  { stats; code_growth_pct = growth; rows }

let report ctx =
  let r = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("OptS %", Table.Right);
        ("Inline+OptS %", Table.Right); ("ratio", Table.Right);
      ]
  in
  Array.iter
    (fun row ->
      Table.add_row t
        [
          row.workload;
          Table.cell_f ~decimals:3 (100.0 *. row.opt_s_rate);
          Table.cell_f ~decimals:3 (100.0 *. row.inline_rate);
          Table.cell_f (row.inline_rate /. Float.max 1e-12 row.opt_s_rate);
        ])
    r.rows;
  Result.report ~id:"inline" ~section:"Inlining: OptS vs inline-then-OptS (8KB DM, 32B lines)"
    [
      Result.note
        "inlined %d call sites of %d leaf routines; +%d bytes (%.1f%% of the kernel)"
        r.stats.Inline.sites r.stats.Inline.callees r.stats.Inline.added_bytes
        r.code_growth_pct;
      Result.of_table t;
      Result.paper
        "Chen et al. (cited in 4.1): inlining is not a stable and effective scheme;";
      Result.paper
        "code expansion increases conflicts, so the paper's sequences do not inline";
    ]
