type point = {
  size_kb : int;
  workload : string;
  base_pct : float;
  ch_pct : float;
  opt_s_pct : float;
  speedups : float array;
}

let levels = [| Levels.Base; Levels.CH; Levels.OptS |]

let compute (ctx : Context.t) =
  let sizes = [| 4; 8; 16; 32 |] in
  (* The whole (cache size x level) grid goes through one batch: the Base
     and C-H placements do not depend on the cache size, so their four
     geometries share a single replay pass per workload. *)
  let members =
    Array.concat
      (Array.to_list
         (Array.map
            (fun size_kb ->
              let config = Config.make ~size_kb () in
              let params = Opt.params ~cache_size:(size_kb * 1024) () in
              Array.map
                (fun level -> (Levels.build ctx ~params level, config))
                levels)
            sizes))
  in
  let batch = Runner.simulate_batch ctx ~members () in
  let points = ref [] in
  Array.iteri
    (fun si size_kb ->
      let rates k =
        Array.map
          (fun (r : Runner.run) -> Counters.miss_rate r.Runner.counters)
          batch.((si * Array.length levels) + k)
      in
      let base = rates 0 in
      let ch = rates 1 in
      let opt_s = rates 2 in
      Array.iteri
        (fun i (w, _) ->
          points :=
            {
              size_kb;
              workload = w.Workload.name;
              base_pct = 100.0 *. base.(i);
              ch_pct = 100.0 *. ch.(i);
              opt_s_pct = 100.0 *. opt_s.(i);
              speedups =
                Array.map
                  (fun penalty ->
                    Speedup.speed_increase ~base_miss_rate:base.(i)
                      ~opt_miss_rate:opt_s.(i) ~penalty)
                  Speedup.penalties;
            }
            :: !points)
        ctx.Context.pairs)
    sizes;
  Array.of_list (List.rev !points)

let report ctx =
  let points = compute ctx in
  let t =
    Table.create
      [
        ("Cache", Table.Right); ("Workload", Table.Left);
        ("Base%", Table.Right); ("C-H%", Table.Right); ("OptS%", Table.Right);
        ("spd@10", Table.Right); ("spd@30", Table.Right); ("spd@50", Table.Right);
      ]
  in
  Array.iter
    (fun p ->
      Table.add_row t
        [
          Printf.sprintf "%dKB" p.size_kb; p.workload;
          Table.cell_f ~decimals:3 p.base_pct;
          Table.cell_f ~decimals:3 p.ch_pct;
          Table.cell_f ~decimals:3 p.opt_s_pct;
          Table.cell_f ~decimals:1 p.speedups.(0);
          Table.cell_f ~decimals:1 p.speedups.(1);
          Table.cell_f ~decimals:1 p.speedups.(2);
        ])
    points;
  Result.report ~id:"fig15"
    ~section:"Figure 15: miss rates and speedups vs cache size (DM, 32B)"
    [
      Result.of_table t;
      Result.paper
        "Base 0.87-6.75%; C-H cuts 39-60%; OptS cuts a further 19-38% below C-H for";
      Result.paper
        "4-16KB, ~equal at 32KB; 30-cycle penalty yields ~10-25% speed increase";
    ]
