(* Replacement-policy sensitivity (not in the paper, which assumes LRU):
   does the OptS advantage survive weaker replacement?  The layouts are
   evaluated on a 4-way 8 KB cache under LRU, FIFO and random replacement
   (direct-mapped caches have no policy, so associativity is needed to
   expose the difference). *)

type row = {
  workload : string;
  rates : (string * float * float) array;  (** policy, Base, OptS. *)
}

let policies =
  [| ("LRU", Config.Lru); ("FIFO", Config.Fifo); ("random", Config.Random 1234) |]

let compute (ctx : Context.t) =
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
  let rates runs =
    Array.map (fun (r : Runner.run) -> Counters.miss_rate r.Runner.counters) runs
  in
  let per_policy =
    Array.mapi
      (fun pi (name, _) -> (name, rates batch.(2 * pi), rates batch.((2 * pi) + 1)))
      policies
  in
  Array.mapi
    (fun i ((w : Workload.t), _) ->
      {
        workload = w.Workload.name;
        rates = Array.map (fun (n, b, o) -> (n, b.(i), o.(i))) per_policy;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Policy", Table.Left); ("Base %", Table.Right);
        ("OptS %", Table.Right); ("reduction", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      Array.iteri
        (fun j (policy, base, opt) ->
          Table.add_row t
            [
              (if j = 0 then r.workload else "");
              policy;
              Table.cell_f ~decimals:3 (100.0 *. base);
              Table.cell_f ~decimals:3 (100.0 *. opt);
              Table.cell_pct ~decimals:0 (100.0 *. (1.0 -. (opt /. base)));
            ])
        r.rates;
      Table.add_separator t)
    rows;
  Result.report ~id:"policy" ~section:"Replacement policy: Base vs OptS, 8KB 4-way"
    [
      Result.of_table t;
      Result.note
        "the layout advantage is policy-independent: conflicts removed in software";
      Result.note "stay removed whatever the hardware evicts";
    ]
