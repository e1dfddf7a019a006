type result = {
  workload : string;
  bins : int array;
  touched_kb : int;
  top10_pct : float;
}

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let base = (Levels.build ctx Levels.Base).(0).Program_layout.os_map in
  let positions = Address_map.addr_array base in
  let sizes = Address_map.bytes_array base in
  Parallel.map_array
    (fun i (w, _) ->
      let p = ctx.Context.os_profiles.(i) in
      let words =
        Array.init (Graph.block_count g) (fun b ->
            int_of_float
              (p.Profile.block.(b)
              *. float_of_int (Block.instruction_words (Graph.block g b))))
      in
      let bins = Missmap.by_address ~positions ~sizes ~misses:words ~bin:1024 in
      let touched = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 bins in
      {
        workload = w.Workload.name;
        bins;
        touched_kb = touched;
        top10_pct = 100.0 *. Missmap.peak_fraction bins ~n:10;
      })
    ctx.Context.pairs

let top_bins r n = List.map fst (Missmap.peaks r.bins ~n)

let overlap_pct results =
  let n = Array.length results in
  if n < 2 then 100.0
  else begin
    let shares =
      Array.to_list results
      |> List.map (fun r ->
             let mine = top_bins r 20 in
             let everywhere =
               List.filter
                 (fun bin ->
                   Array.for_all
                     (fun (other : result) ->
                       bin < Array.length other.bins && other.bins.(bin) > 0)
                     results)
                 mine
             in
             Stats.pct (List.length everywhere) (List.length mine))
    in
    Stats.mean (Array.of_list shares)
  end

let report ctx =
  let results = compute ctx in
  let overlap = overlap_pct results in
  let per_workload =
    Array.to_list results
    |> List.map (fun r ->
           Result.note
             "%-10s: %d KB of address space touched; top-10 bins hold %.1f%% of refs"
             r.workload r.touched_kb r.top10_pct)
  in
  Result.report ~id:"fig2"
    ~section:"Figure 2: OS reference-address distribution per workload"
    (per_workload
    @ [
        Result.scalar ~label:"top20_overlap_pct" ~value:overlap
          ~text:
            (Printf.sprintf "top-20 peak bins referenced by every workload: %.0f%%"
               overlap);
        Result.paper
          "references are concentrated; peaks sit at similar addresses across workloads";
      ])
