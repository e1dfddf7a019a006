(* One table of Base / C-H / OptS miss rates per (geometry, workload),
   and the mean OptS reduction over Base at the sweep's two ends. *)
let sweep_items (ctx : Context.t) ~title ~summary geometries =
  let rates = Exp_fig15.sweep ctx (Array.map snd geometries) in
  let names = Context.workload_names ctx in
  let pct c k i = 100.0 *. rates.(c).(k).(i) in
  let t =
    Table.create
      [
        ("Config", Table.Right); ("Workload", Table.Left);
        ("Base%", Table.Right); ("C-H%", Table.Right); ("OptS%", Table.Right);
      ]
  in
  Array.iteri
    (fun c (label, _) ->
      Array.iteri
        (fun i workload ->
          Table.add_row t
            (Table.Text label :: Table.Text workload
            :: List.map (fun k -> Table.Float (3, pct c k i)) [ 0; 1; 2 ]))
        names)
    geometries;
  let average_reduction c =
    Stats.mean
      (Array.mapi (fun i _ -> 100.0 *. (1.0 -. (pct c 2 i /. pct c 0 i))) names)
  in
  let last = Array.length geometries - 1 in
  [
    Result.note "%s" title;
    Result.of_table t;
    Result.note summary (average_reduction 0) (average_reduction last);
  ]

let report ctx =
  let lines =
    sweep_items ctx ~title:"(a) line size, direct-mapped:"
      ~summary:"OptS average reduction: %.0f%% @16B -> %.0f%% @128B"
      (Array.map
         (fun line -> (Printf.sprintf "%dB" line, Config.make ~size_kb:8 ~line ()))
         [| 16; 32; 64; 128 |])
  in
  let assoc =
    sweep_items ctx ~title:"(b) associativity, 32B lines:"
      ~summary:"OptS average reduction: %.0f%% @1way -> %.0f%% @8way"
      (Array.map
         (fun assoc -> (Printf.sprintf "%dway" assoc, Config.make ~size_kb:8 ~assoc ()))
         [| 1; 2; 4; 8 |])
  in
  Result.report ~id:"fig17"
    ~section:"Figure 17: line size and associativity sweeps (8KB cache)"
    (lines
    @ assoc
    @ [
        Result.paper "gains grow with line size (59% @16B -> 70% @128B) and shrink with";
        Result.paper "associativity (55% DM -> 41% 8-way); DM OptS beats 8-way Base";
      ])
