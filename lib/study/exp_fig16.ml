let variants =
  (* The paper's 3/2/1% cut-offs applied to its (far more concentrated)
     profile gave areas of 376/1286/2514 bytes.  Our cut-offs are
     loop-adjusted executions per OS invocation, chosen to produce areas
     of the same sizes. *)
  [| ("None", None); ("1.00", Some 1.0); ("0.50", Some 0.5); ("0.25", Some 0.25) |]

let params ~size_kb cutoff = Opt.params ~cache_size:(size_kb * 1024) ~scf_cutoff:cutoff ()

let sizes = [| 4; 8; 16 |]

let report (ctx : Context.t) =
  (* The area does not depend on the cache size; read it from the 8 KB
     layouts the grid simulates. *)
  let areas =
    Array.to_list variants
    |> List.map (fun (label, cutoff) ->
           let bytes =
             (Levels.opt_result ctx ~params:(params ~size_kb:8 cutoff) Levels.OptS).Opt.scf_bytes
           in
           Result.scalar
             ~text:(Printf.sprintf "cut-off %s -> SelfConfFree area of %d bytes" label bytes)
             [
               ( "cut-off",
                 match cutoff with None -> Table.Text label | Some c -> Table.Float (2, c) );
               ("scf_area_bytes", Table.Int bytes);
             ])
  in
  (* One batch for the whole (cache size x cut-off) grid; the Base
     placement is shared, so its three geometries ride one replay pass.
     The grid's layouts build concurrently, in member order. *)
  let stride = 1 + Array.length variants in
  let grid =
    Array.concat
      (Array.to_list
         (Array.map
            (fun size_kb ->
              Array.append [| (size_kb, None) |]
                (Array.map (fun (_label, cutoff) -> (size_kb, Some cutoff)) variants))
            sizes))
  in
  let members =
    Parallel.map_array
      (fun _ (size_kb, variant) ->
        let config = Config.make ~size_kb () in
        match variant with
        | None -> (Levels.build ctx Levels.Base, config)
        | Some cutoff -> (Levels.build ctx ~params:(params ~size_kb cutoff) Levels.OptS, config))
      grid
  in
  let batch = Runner.simulate_batch ctx ~members () in
  let misses m i = Counters.misses batch.(m).(i).Runner.counters in
  let t =
    Table.create
      ([ ("Cache", Table.Right); ("Workload", Table.Left) ]
      @ Array.to_list (Array.map (fun (l, _) -> (l, Table.Right)) variants))
  in
  Array.iteri
    (fun si size_kb ->
      let base = si * stride in
      Array.iteri
        (fun i workload ->
          Table.add_row t
            ([ Table.Text (Printf.sprintf "%dKB" size_kb); Table.Text workload ]
            @ List.init (Array.length variants) (fun vi ->
                  Table.Float (2, Stats.ratio (misses (base + 1 + vi) i) (misses base i)))))
        (Context.workload_names ctx))
    sizes;
  Result.report ~id:"fig16" ~section:"Figure 16: SelfConfFree-area size sweep"
    (areas
    @ [
        Result.of_table t;
        Result.paper
          "paper areas: 0/376/1286/2514 bytes; the 2.0% cut-off (~1KB) wins most often;";
        Result.paper "large areas favor 4KB caches, small ones 16KB caches";
      ])
