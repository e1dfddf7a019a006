(* TRFD+Make is workload index 1, as in the paper's Figure 1. *)
let report (ctx : Context.t) =
  let wl = 1 in
  let layouts = Levels.build ctx Levels.Base in
  let config = Config.make ~size_kb:16 () in
  let sys = System.create (System.Unified config) in
  System.enable_block_attribution sys ~blocks:(Graph.block_count (Context.os_graph ctx));
  Runner.replay ~trace:ctx.Context.traces.(wl) ~map:(Program_layout.code_map layouts.(wl))
    [| sys |];
  let c = System.counters sys in
  let base_map = layouts.(wl).Program_layout.os_map in
  let positions = Address_map.addr_array base_map in
  let sizes = Address_map.bytes_array base_map in
  let bins misses = Missmap.by_address ~positions ~sizes ~misses ~bin:1024 in
  let total_bins = bins (System.block_misses sys) in
  let self_bins = bins (System.block_misses_self sys) in
  let cross_bins = bins (System.block_misses_cross sys) in
  let self_pct = Stats.pct c.Counters.os_self (Counters.os_misses c) in
  let top2_peak_pct = 100.0 *. Missmap.peak_fraction total_bins ~n:2 in
  let peaks =
    List.filter_map
      (fun (bin, count) ->
        if count > 0 then
          Some
            (Result.note "  addr %5dK: total %6d  self %6d  app-interf %6d" bin count
               self_bins.(bin) cross_bins.(bin))
        else None)
      (Missmap.peaks total_bins ~n:8)
  in
  Result.report ~id:"fig1"
    ~section:"Figure 1: OS miss-address distribution (TRFD+Make, 16KB DM)"
    ((Result.note "largest miss peaks (1KB bins of the Base address space):" :: peaks)
    @ [
        Result.scalar ~label:"self_interference_pct" ~value:self_pct
          ~text:(Printf.sprintf "self-interference share of OS misses: %.1f%%" self_pct);
        Result.scalar ~label:"top2_peak_pct" ~value:top2_peak_pct
          ~text:
            (Printf.sprintf "two largest peaks hold %.1f%% of OS misses" top2_peak_pct);
        Result.paper
          "self-interference accounts for over 90% of OS misses in all workloads;";
        Result.paper "the two dominant peaks hold 12.6% + 8.6% of OS misses in TRFD+Make";
      ])
