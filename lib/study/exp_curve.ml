(* Conflict-vs-capacity decomposition via stack distances.

   The fully-associative LRU miss curve depends only on the reference
   stream's line-reuse pattern - under a fixed placement, layout cannot
   change which addresses repeat, but it does change which lines they
   share.  Comparing, per workload:

     - the fully-associative curve under Base and OptS (how much the
       layouts compact the working set into fewer lines), and
     - the direct-mapped simulation against the fully-associative floor
       (how many conflict misses the placement leaves behind),

   demonstrates the paper's claim at the mechanism level: OptS removes
   conflict misses (gap to floor shrinks) and packs hot code into fewer
   lines (the floor itself drops a little). *)

let conflict ~dm ~fa = max 0 (dm - fa)

let report (ctx : Context.t) =
  let base_layouts = Levels.build ctx Levels.Base in
  let opt_layouts = Levels.build ctx Levels.OptS in
  let n = Context.workload_count ctx in
  let names = Context.workload_names ctx in
  (* Pass [p] is workload [p mod n] under Base (p < n) or OptS: each is
     independent and allocates its own stack, so all 2n fan out. *)
  let fa =
    Parallel.map_array
      (fun p (layout : Program_layout.t) ->
        let i = p mod n in
        Trace_log.with_span "stack_dist"
          ~args:
            [
              ("workload", Json.String names.(i));
              ("layout", Json.String (if p < n then "Base" else "OptS"));
            ]
        @@ fun () ->
        let t =
          Stack_dist.from_trace ~trace:ctx.Context.traces.(i)
            ~map:(Program_layout.code_map layout) ()
        in
        Stack_dist.misses_at t ~lines:256)
      (Array.append base_layouts opt_layouts)
  in
  (* No warm-up discount on either side: the stack-distance pass counts
     every reference including cold ones, so the simulation must too. *)
  let dm =
    let config = Config.make ~size_kb:8 () in
    Runner.simulate_batch ctx
      ~members:[| (base_layouts, config); (opt_layouts, config) |]
      ~warmup_fraction:0.0 ()
    |> Array.map (Array.map (fun (r : Runner.run) -> Counters.misses r.Runner.counters))
  in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Layout", Table.Left);
        ("FA floor", Table.Right); ("DM simulated", Table.Right);
        ("conflict", Table.Right);
      ]
  in
  Array.iteri
    (fun i name ->
      let add workload layout k =
        let fa = fa.((k * n) + i) and dm = dm.(k).(i) in
        Table.add_row t
          [
            workload; layout; Table.cell_i fa; Table.cell_i dm;
            Table.cell_i (conflict ~dm ~fa);
          ]
      in
      add name "Base" 0;
      add "" "OptS" 1;
      Table.add_separator t)
    names;
  Result.report ~id:"curve"
    ~section:"Stack distances: conflict vs capacity misses (8KB, 32B lines)"
    [
      Result.of_table t;
      Result.note "OptS attacks the conflict column: the simulated misses approach the";
      Result.note "fully-associative floor, and the floor itself drops as hot code packs";
      Result.note "into fewer lines (the spatial-locality effect of sequences)";
    ]
