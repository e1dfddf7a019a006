type cell = { variant : string; normalized : float; misses : int }

type row = { size_kb : int; workload : string; cells : cell array }

let variants =
  (* The paper's 3/2/1% cut-offs applied to its (far more concentrated)
     profile gave areas of 376/1286/2514 bytes.  Our cut-offs are
     loop-adjusted executions per OS invocation, chosen to produce areas
     of the same sizes. *)
  [| ("None", None); ("1.00", Some 1.0); ("0.50", Some 0.5); ("0.25", Some 0.25) |]

let params ~size_kb cutoff = Opt.params ~cache_size:(size_kb * 1024) ~scf_cutoff:cutoff ()

(* The area does not depend on the cache size; read it from the 8 KB
   layouts [compute] simulates. *)
let scf_area_bytes ctx =
  Array.map
    (fun (label, cutoff) ->
      let r = Levels.opt_result ctx ~params:(params ~size_kb:8 cutoff) Levels.OptS in
      (label, r.Opt.scf_bytes))
    variants

let sizes = [| 4; 8; 16 |]

let compute (ctx : Context.t) =
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
  let rows = ref [] in
  Array.iteri
    (fun si size_kb ->
      let base_runs = batch.(si * stride) in
      let variant_runs =
        Array.mapi
          (fun vi (label, _cutoff) -> (label, batch.((si * stride) + 1 + vi)))
          variants
      in
      Array.iteri
        (fun i (w, _) ->
          let base = Counters.misses base_runs.(i).Runner.counters in
          let cells =
            Array.map
              (fun (label, runs) ->
                let m = Counters.misses runs.(i).Runner.counters in
                { variant = label; normalized = Stats.ratio m base; misses = m })
              variant_runs
          in
          rows := { size_kb; workload = w.Workload.name; cells } :: !rows)
        ctx.Context.pairs)
    sizes;
  Array.of_list (List.rev !rows)

let report ctx =
  let areas =
    Array.to_list (scf_area_bytes ctx)
    |> List.map (fun (label, bytes) ->
           Result.note "cut-off %s -> SelfConfFree area of %d bytes" label bytes)
  in
  let rows = compute ctx in
  let t =
    Table.create
      ([ ("Cache", Table.Right); ("Workload", Table.Left) ]
      @ Array.to_list (Array.map (fun (l, _) -> (l, Table.Right)) variants))
  in
  Array.iter
    (fun r ->
      Table.add_row t
        ([ Printf.sprintf "%dKB" r.size_kb; r.workload ]
        @ Array.to_list (Array.map (fun c -> Table.cell_f c.normalized) r.cells)))
    rows;
  Result.report ~id:"fig16" ~section:"Figure 16: SelfConfFree-area size sweep"
    (areas
    @ [
        Result.of_table t;
        Result.paper
          "paper areas: 0/376/1286/2514 bytes; the 2.0% cut-off (~1KB) wins most often;";
        Result.paper "large areas favor 4KB caches, small ones 16KB caches";
      ])
