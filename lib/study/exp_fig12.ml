type miss_bar = {
  level : Levels.level;
  os_self : int;
  os_cross : int;
  app_cross : int;
  app_self : int;
  total : int;
  normalized : float;
}

type row = { workload : string; os_ref_pct : float; bars : miss_bar array }

let compute (ctx : Context.t) =
  let config = Config.make ~size_kb:8 () in
  (* The five levels build concurrently, then the whole level sweep is
     one batch: every uncached member replays in the same fused pass over
     each workload trace. *)
  let batch =
    Runner.simulate_batch ctx
      ~members:
        (Parallel.map_array (fun _ level -> (Levels.build ctx level, config)) Levels.all)
      ()
  in
  let per_level = Array.mapi (fun k level -> (level, batch.(k))) Levels.all in
  Array.mapi
    (fun i (w, _) ->
      let base_total =
        let _, runs = per_level.(0) in
        Counters.misses runs.(i).Runner.counters
      in
      let bars =
        Array.map
          (fun (level, runs) ->
            let c = runs.(i).Runner.counters in
            {
              level;
              os_self = c.Counters.os_self + c.Counters.os_cold;
              os_cross = c.Counters.os_cross;
              app_cross = c.Counters.app_cross;
              app_self = c.Counters.app_self + c.Counters.app_cold;
              total = Counters.misses c;
              normalized = Stats.ratio (Counters.misses c) base_total;
            })
          per_level
      in
      let c0 = (snd per_level.(0)).(i).Runner.counters in
      {
        workload = w.Workload.name;
        os_ref_pct = Stats.pct c0.Counters.refs_os (Counters.refs c0);
        bars;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("OS refs", Table.Right); ("Level", Table.Left);
        ("OS self", Table.Right); ("OS x-app", Table.Right);
        ("App x-OS", Table.Right); ("App self", Table.Right);
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
              (if j = 0 then Table.cell_pct r.os_ref_pct else "");
              Levels.to_string b.level;
              Table.cell_i b.os_self;
              Table.cell_i b.os_cross;
              Table.cell_i b.app_cross;
              Table.cell_i b.app_self;
              Table.cell_i b.total;
              Table.cell_f b.normalized;
            ])
        r.bars;
      Table.add_separator t)
    rows;
  Result.report ~id:"fig12" ~section:"Figure 12: misses by layout level (8KB DM, 32B lines)"
    [
      Result.of_table t;
      Result.paper
        "OS is 40-60% of refs (Shell ~100%); C-H drops misses to 0.43-0.62 of Base,";
      Result.paper
        "OptS to 0.24-0.53 (25% below C-H); OptL ~ OptS; OptA another 4-19% lower";
    ]
