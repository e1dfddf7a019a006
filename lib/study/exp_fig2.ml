(* Share of each workload's busiest 20 bins also busy in every other
   workload (averaged) - the paper's "peaks are in similar positions". *)
let overlap_pct (bins : int array array) =
  let n = Array.length bins in
  if n < 2 then 100.0
  else begin
    let shares =
      Array.to_list bins
      |> List.map (fun mine ->
             let top = List.map fst (Missmap.peaks mine ~n:20) in
             let everywhere =
               List.filter
                 (fun bin ->
                   Array.for_all
                     (fun other -> bin < Array.length other && other.(bin) > 0)
                     bins)
                 top
             in
             Stats.pct (List.length everywhere) (List.length top))
    in
    Stats.mean (Array.of_list shares)
  end

let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let base = (Levels.build ctx Levels.Base).(0).Program_layout.os_map in
  let positions = Address_map.addr_array base in
  let sizes = Address_map.bytes_array base in
  let bins =
    Parallel.map_array
      (fun i _ ->
        let p = ctx.Context.os_profiles.(i) in
        let words =
          Array.init (Graph.block_count g) (fun b ->
              int_of_float
                (p.Profile.block.(b)
                *. float_of_int (Block.instruction_words (Graph.block g b))))
        in
        Missmap.by_address ~positions ~sizes ~misses:words ~bin:1024)
      ctx.Context.pairs
  in
  let overlap = overlap_pct bins in
  let per_workload =
    Array.to_list
      (Array.map2
         (fun name bins ->
           let touched =
             Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 bins
           in
           Result.note
             "%-10s: %d KB of address space touched; top-10 bins hold %.1f%% of refs"
             name touched
             (100.0 *. Missmap.peak_fraction bins ~n:10))
         (Context.workload_names ctx) bins)
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
