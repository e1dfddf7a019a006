(* Fall-through rate: a second, fetch-side benefit of layout.

   Beyond cache misses, placing the likely successor textually next turns
   taken branches into fall-throughs, which helps any sequential
   prefetcher or wide fetch unit.  Measured as the fraction of dynamic
   OS block transitions whose successor starts exactly where the current
   block ends. *)

type row = { workload : string; rates : (string * float) list }

let levels = [ ("Base", Levels.Base); ("C-H", Levels.CH); ("OptS", Levels.OptS) ]

let rate ~trace ~(map : Replay.code_map) =
  let transitions = ref 0 and fallthroughs = ref 0 in
  let prev_end = ref (-1) in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Exec { image; block } when Program.is_os image ->
          let addr = map.Replay.addr.(image).(block) in
          if !prev_end >= 0 then begin
            incr transitions;
            if addr = !prev_end then incr fallthroughs
          end;
          prev_end := addr + map.Replay.bytes.(image).(block)
      | Trace.Exec _ -> ()
      | Trace.Invocation_start _ | Trace.Invocation_end -> prev_end := -1);
  Stats.ratio !fallthroughs !transitions

let compute (ctx : Context.t) =
  (* Levels build concurrently; each level's workloads are measured
     concurrently inside its task. *)
  let per_level =
    Parallel.map_array
      (fun _ (name, level) ->
        let layouts = Levels.build ctx level in
        ( name,
          Parallel.map_array
            (fun i layout ->
              rate ~trace:ctx.Context.traces.(i)
                ~map:(Program_layout.code_map layout))
            layouts ))
      (Array.of_list levels)
    |> Array.to_list
  in
  Array.mapi
    (fun i ((w : Workload.t), _) ->
      {
        workload = w.Workload.name;
        rates = List.map (fun (n, r) -> (n, r.(i))) per_level;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      (("Workload", Table.Left)
      :: List.map (fun (n, _) -> (n, Table.Right)) levels)
  in
  Array.iter
    (fun r ->
      Table.add_row t
        (r.workload
        :: List.map (fun (_, rate) -> Table.cell_pct ~decimals:1 (100.0 *. rate)) r.rates))
    rows;
  Result.report ~id:"fallthrough"
    ~section:"Fall-through rate of dynamic OS block transitions"
    [
      Result.of_table t;
      Result.note "layout straightens control flow: sequences turn the likely path into";
      Result.note "straight-line fetches (the prefetch benefit behind Figure 17a)";
    ]
