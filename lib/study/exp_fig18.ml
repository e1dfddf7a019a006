let report (ctx : Context.t) =
  let model = ctx.Context.model in
  let os_profile = ctx.Context.avg_os_profile in
  let opt_a_layouts = Levels.build ctx Levels.OptA in
  (* Call: Section 4.4 loop-callee placement on the OS side. *)
  let call_os, _stats = Call_opt.layout ~model ~profile:os_profile in
  let call_layouts =
    Array.map (fun l -> Program_layout.with_os_map l call_os.Opt.map) opt_a_layouts
  in
  (* Sep: both halves 4 KB; layouts optimized for 4 KB logical caches. *)
  let sep_layouts = Levels.build ctx ~params:(Opt.params ~cache_size:4096 ()) Levels.OptA in
  (* Resv: hottest OS code at the bottom of memory feeds a 1 KB cache; the
     OS is laid out without SelfConfFree holes. *)
  let resv_os =
    Opt.os_layout ~model ~profile:os_profile ~loops:(Program_layout.os_loops model)
      (Opt.params ~cache_size:7168 ~scf_holes:false ())
  in
  let resv_layouts =
    Array.map (fun l -> Program_layout.with_os_map l resv_os.Opt.map) opt_a_layouts
  in
  let dm kb = Config.make ~size_kb:kb () in
  let setups =
    [|
      ("Base", (Levels.build ctx Levels.Base, System.Unified (dm 8)));
      ("OptA", (opt_a_layouts, System.Unified (dm 8)));
      ("Sep", (sep_layouts, System.Split { os = dm 4; app = dm 4 }));
      ( "Resv",
        ( resv_layouts,
          System.Reserved { hot = dm 1; rest = dm 8; hot_limit = max 1 resv_os.Opt.scf_bytes }
        ) );
      ("Call", (call_layouts, System.Unified (dm 8)));
    |]
  in
  let runs = Runner.batch ctx ~members:(Array.map snd setups) () in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Setup", Table.Left);
        ("OS misses", Table.Right); ("App misses", Table.Right);
        ("Total", Table.Right); ("Norm", Table.Right);
      ]
  in
  Array.iteri
    (fun i name ->
      let base_total = Counters.misses runs.(0).(i).Runner.counters in
      Array.iteri
        (fun j (setup, _) ->
          let c = runs.(j).(i).Runner.counters in
          Table.add_row t
            [
              (if j = 0 then name else "");
              setup;
              Table.cell_i (Counters.os_misses c);
              Table.cell_i (Counters.app_misses c);
              Table.cell_i (Counters.misses c);
              Table.cell_f (Stats.ratio (Counters.misses c) base_total);
            ])
        setups;
      Table.add_separator t)
    (Context.workload_names ctx);
  Result.report ~id:"fig18"
    ~section:"Figure 18: Sep / Resv / Call setups (8KB total, 32B lines)"
    [
      Result.of_table t;
      Result.paper
        "Sep increases misses over OptA everywhere; Resv is slightly worse than OptA";
      Result.paper
        "(same performance, higher cost); Call raises OS misses 20-100% over OptA";
    ]
