type point = {
  label : string;
  workload : string;
  base_pct : float;
  ch_pct : float;
  opt_s_pct : float;
}

let levels = [| Levels.Base; Levels.CH; Levels.OptS |]

let sweep (ctx : Context.t) configs =
  let params = Opt.params ~cache_size:8192 () in
  (* One batch per sweep: all geometries of a level share that level's
     single replay pass per workload (the placement, and hence the fed
     event stream, is geometry-independent). *)
  let configs = Array.of_list configs in
  let members =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (_label, config) ->
              Array.map
                (fun level -> (Levels.build ctx ~params level, config))
                levels)
            configs))
  in
  let batch = Runner.simulate_batch ctx ~members () in
  let points = ref [] in
  Array.iteri
    (fun ci (label, _config) ->
      let rates k =
        Array.map
          (fun (r : Runner.run) -> 100.0 *. Counters.miss_rate r.Runner.counters)
          batch.((ci * Array.length levels) + k)
      in
      let base = rates 0 in
      let ch = rates 1 in
      let opt_s = rates 2 in
      Array.iteri
        (fun i (w, _) ->
          points :=
            {
              label;
              workload = w.Workload.name;
              base_pct = base.(i);
              ch_pct = ch.(i);
              opt_s_pct = opt_s.(i);
            }
            :: !points)
        ctx.Context.pairs)
    configs;
  Array.of_list (List.rev !points)

let compute_line_sizes ctx =
  sweep ctx
    (List.map
       (fun line -> (Printf.sprintf "%dB" line, Config.make ~size_kb:8 ~line ()))
       [ 16; 32; 64; 128 ])

let compute_associativities ctx =
  sweep ctx
    (List.map
       (fun assoc -> (Printf.sprintf "%dway" assoc, Config.make ~size_kb:8 ~assoc ()))
       [ 1; 2; 4; 8 ])

let average_reduction points ~label =
  let selected = Array.to_list points |> List.filter (fun p -> p.label = label) in
  let reductions =
    List.map (fun p -> 100.0 *. (1.0 -. (p.opt_s_pct /. p.base_pct))) selected
  in
  Stats.mean (Array.of_list reductions)

let point_items title points =
  let t =
    Table.create
      [
        ("Config", Table.Right); ("Workload", Table.Left);
        ("Base%", Table.Right); ("C-H%", Table.Right); ("OptS%", Table.Right);
      ]
  in
  Array.iter
    (fun p ->
      Table.add_row t
        [
          p.label; p.workload;
          Table.cell_f ~decimals:3 p.base_pct;
          Table.cell_f ~decimals:3 p.ch_pct;
          Table.cell_f ~decimals:3 p.opt_s_pct;
        ])
    points;
  [ Result.note "%s" title; Result.of_table t ]

let report ctx =
  let lines = compute_line_sizes ctx in
  let assoc = compute_associativities ctx in
  Result.report ~id:"fig17"
    ~section:"Figure 17: line size and associativity sweeps (8KB cache)"
    (point_items "(a) line size, direct-mapped:" lines
    @ [
        Result.note "OptS average reduction: %.0f%% @16B -> %.0f%% @128B"
          (average_reduction lines ~label:"16B")
          (average_reduction lines ~label:"128B");
      ]
    @ point_items "(b) associativity, 32B lines:" assoc
    @ [
        Result.note "OptS average reduction: %.0f%% @1way -> %.0f%% @8way"
          (average_reduction assoc ~label:"1way")
          (average_reduction assoc ~label:"8way");
        Result.paper "gains grow with line size (59% @16B -> 70% @128B) and shrink with";
        Result.paper "associativity (55% DM -> 41% 8-way); DM OptS beats 8-way Base";
      ])
