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

let report ctx =
  let sizes = [| 4; 8; 16; 32 |] in
  let rates = sweep ctx (Array.map (fun size_kb -> Config.make ~size_kb ()) sizes) in
  let t =
    Table.create
      ([
         ("Cache", Table.Right); ("Workload", Table.Left);
         ("Base%", Table.Right); ("C-H%", Table.Right); ("OptS%", Table.Right);
       ]
      @ Array.to_list
          (Array.map (fun p -> (Printf.sprintf "spd@%d" p, Table.Right)) Speedup.penalties))
  in
  Array.iteri
    (fun si size_kb ->
      let base = rates.(si).(0) and ch = rates.(si).(1) and opt_s = rates.(si).(2) in
      Array.iteri
        (fun i workload ->
          let pct r = Table.Float (3, 100.0 *. r.(i)) in
          Table.add_row t
            ([ Table.Text (Printf.sprintf "%dKB" size_kb); Table.Text workload;
               pct base; pct ch; pct opt_s ]
            @ Array.to_list
                (Array.map
                   (fun penalty ->
                     Table.Float
                       ( 1,
                         Speedup.speed_increase ~base_miss_rate:base.(i)
                           ~opt_miss_rate:opt_s.(i) ~penalty ))
                   Speedup.penalties)))
        (Context.workload_names ctx))
    sizes;
  Result.report ~id:"fig15"
    ~section:"Figure 15: miss rates and speedups vs cache size (DM, 32B)"
    [
      Result.of_table t;
      Result.paper
        "Base 0.87-6.75%; C-H cuts 39-60%; OptS cuts a further 19-38% below C-H for";
      Result.paper
        "4-16KB, ~equal at 32KB; 30-cycle penalty yields ~10-25% speed increase";
    ]
