type point = {
  size_kb : int;
  workload : string;
  base_pct : float;
  ch_pct : float;
  opt_s_pct : float;
  speedups : float array;
}

let levels = [| Levels.Base; Levels.CH; Levels.OptS |]

let sweep (ctx : Context.t) configs =
  (* The whole (geometry x level) grid goes through one batch: the Base
     and C-H placements do not depend on the geometry, and OptS only on
     the cache size, so geometries share a level's single replay pass per
     workload wherever their placements agree. *)
  let members =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (config : Config.t) ->
              let params = Opt.params ~cache_size:config.Config.size () in
              Array.map (fun level -> (Levels.build ctx ~params level, config)) levels)
            configs))
  in
  let batch = Runner.simulate_batch ctx ~members () in
  Array.mapi
    (fun ci _ ->
      Array.init (Array.length levels) (fun k ->
          Array.map
            (fun (r : Runner.run) -> Counters.miss_rate r.Runner.counters)
            batch.((ci * Array.length levels) + k)))
    configs

let compute (ctx : Context.t) =
  let sizes = [| 4; 8; 16; 32 |] in
  let rates = sweep ctx (Array.map (fun size_kb -> Config.make ~size_kb ()) sizes) in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun si size_kb ->
            let base = rates.(si).(0) and ch = rates.(si).(1) and opt_s = rates.(si).(2) in
            Array.mapi
              (fun i workload ->
                {
                  size_kb;
                  workload;
                  base_pct = 100.0 *. base.(i);
                  ch_pct = 100.0 *. ch.(i);
                  opt_s_pct = 100.0 *. opt_s.(i);
                  speedups =
                    Array.map
                      (fun penalty ->
                        Speedup.speed_increase ~base_miss_rate:base.(i)
                          ~opt_miss_rate:opt_s.(i) ~penalty)
                      Speedup.penalties;
                })
              (Context.workload_names ctx))
          sizes))

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
