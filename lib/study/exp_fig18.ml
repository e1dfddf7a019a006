type bar = {
  setup : string;
  os_misses : int;
  app_misses : int;
  total : int;
  normalized : float;
}

type row = { workload : string; bars : bar array }

let compute (ctx : Context.t) =
  let model = ctx.Context.model in
  let os_profile = ctx.Context.avg_os_profile in
  let unified_config = Config.make ~size_kb:8 () in
  let opt_a_layouts = Levels.build ctx Levels.OptA in
  (* Call: Section 4.4 loop-callee placement on the OS side. *)
  let call_os, _stats = Call_opt.layout ~model ~profile:os_profile () in
  let call_layouts =
    Array.map
      (fun l ->
        Program_layout.with_os_map l ~name:"Call" call_os.Opt.map ~os_meta:(Some call_os))
      opt_a_layouts
  in
  (* The three unified-cache setups share one batch (Sep/Resv need split /
     reserved systems, which stay on the general [Runner.simulate] path). *)
  let batch =
    Runner.simulate_batch ctx
      ~members:
        [|
          (Levels.build ctx Levels.Base, unified_config);
          (opt_a_layouts, unified_config);
          (call_layouts, unified_config);
        |]
      ()
  in
  let base_runs = batch.(0) in
  let opt_a_runs = batch.(1) in
  let call_runs = batch.(2) in
  (* Sep: both halves 4 KB; layouts optimized for 4 KB logical caches. *)
  let sep_layouts = Levels.build ctx ~params:(Opt.params ~cache_size:4096 ()) Levels.OptA in
  let sep_runs =
    Runner.simulate ctx ~layouts:sep_layouts
      ~system:(fun () ->
        System.split
          ~os:(Config.v ~size:4096 ~assoc:1 ~line:32)
          ~app:(Config.v ~size:4096 ~assoc:1 ~line:32))
      ()
  in
  (* Resv: hottest OS code at the bottom of memory feeds a 1 KB cache; the
     OS is laid out without SelfConfFree holes. *)
  let resv_os =
    Opt.os_layout ~model ~profile:os_profile ~loops:(Program_layout.os_loops model)
      (Opt.params ~cache_size:7168 ~scf_holes:false ())
  in
  let hot_limit = max 1 resv_os.Opt.scf_bytes in
  let resv_layouts =
    Array.map
      (fun l ->
        Program_layout.with_os_map l ~name:"Resv" resv_os.Opt.map
          ~os_meta:(Some resv_os))
      opt_a_layouts
  in
  let resv_runs =
    Runner.simulate ctx ~layouts:resv_layouts
      ~system:(fun () ->
        System.reserved
          ~hot:(Config.v ~size:1024 ~assoc:1 ~line:32)
          ~rest:(Config.v ~size:8192 ~assoc:1 ~line:32)
          ~hot_limit)
      ()
  in
  Array.mapi
    (fun i (w, _) ->
      let base_total = Counters.misses base_runs.(i).Runner.counters in
      let bar setup (runs : Runner.run array) =
        let c = runs.(i).Runner.counters in
        {
          setup;
          os_misses = Counters.os_misses c;
          app_misses = Counters.app_misses c;
          total = Counters.misses c;
          normalized = Stats.ratio (Counters.misses c) base_total;
        }
      in
      {
        workload = w.Workload.name;
        bars =
          [|
            bar "Base" base_runs; bar "OptA" opt_a_runs; bar "Sep" sep_runs;
            bar "Resv" resv_runs; bar "Call" call_runs;
          |];
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Setup", Table.Left);
        ("OS misses", Table.Right); ("App misses", Table.Right);
        ("Total", Table.Right); ("Norm", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      Array.iteri
        (fun j b ->
          Table.add_row t
            [
              (if j = 0 then r.workload else "");
              b.setup;
              Table.cell_i b.os_misses;
              Table.cell_i b.app_misses;
              Table.cell_i b.total;
              Table.cell_f b.normalized;
            ])
        r.bars;
      Table.add_separator t)
    rows;
  Result.report ~id:"fig18"
    ~section:"Figure 18: Sep / Resv / Call setups (8KB total, 32B lines)"
    [
      Result.of_table t;
      Result.paper
        "Sep increases misses over OptA everywhere; Resv is slightly worse than OptA";
      Result.paper
        "(same performance, higher cost); Call raises OS misses 20-100% over OptA";
    ]
