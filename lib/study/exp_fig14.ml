let report (ctx : Context.t) =
  let config = Config.make ~size_kb:8 () in
  let g = Context.os_graph ctx in
  let base_map = (Levels.build ctx Levels.Base).(0).Program_layout.os_map in
  let positions = Address_map.addr_array base_map in
  let sizes = Address_map.bytes_array base_map in
  let levels = [| Levels.Base; Levels.CH; Levels.OptS |] in
  let batch =
    Runner.simulate_batch ctx
      ~members:(Array.map (fun level -> (Levels.build ctx level, config)) levels)
      ~attribute_os:true ()
  in
  let per_level =
    Array.to_list
      (Array.mapi
         (fun k level ->
           let misses = Array.make (Graph.block_count g) 0 in
           Array.iter
             (fun (r : Runner.run) ->
               Array.iteri (fun b m -> misses.(b) <- misses.(b) + m) r.Runner.os_block_misses)
             batch.(k);
           let bins = Missmap.by_address ~positions ~sizes ~misses ~bin:1024 in
           let total = Array.fold_left ( + ) 0 bins in
           let tallest = match Missmap.peaks bins ~n:1 with (_, c) :: _ -> c | [] -> 0 in
           let top5 = 100.0 *. Missmap.peak_fraction bins ~n:5 in
           let name = Levels.to_string level in
           Result.scalar
             ~text:
               (Printf.sprintf
                  "%-5s: total OS misses %8d; tallest 1KB peak %6d; top-5 peaks hold %.1f%%"
                  name total tallest top5)
             [
               ("level", Table.Text name);
               ("total_os_misses", Table.Int total);
               ("tallest_peak", Table.Int tallest);
               ("top5_pct", Table.Pct (1, top5));
             ])
         levels)
  in
  Result.report ~id:"fig14"
    ~section:"Figure 14: OS miss distribution by code position (sum of workloads, 8KB DM)"
    (per_level
    @ [
        Result.paper
          "C-H shrinks the Base peaks; OptS flattens them further, leaving only small peaks";
      ])
