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

type row = {
  workload : string;
  base_fa : int;  (** Fully-associative misses, 256 lines (8 KB / 32 B). *)
  opt_fa : int;
  base_dm : int;  (** Direct-mapped 8 KB simulated misses. *)
  opt_dm : int;
}

let conflict ~dm ~fa = max 0 (dm - fa)

let compute (ctx : Context.t) =
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
  let dm_batch =
    let config = Config.make ~size_kb:8 () in
    Runner.simulate_batch ctx
      ~members:[| (base_layouts, config); (opt_layouts, config) |]
      ~warmup_fraction:0.0 ()
  in
  let base_dm = dm_batch.(0) in
  let opt_dm = dm_batch.(1) in
  Array.mapi
    (fun i ((w : Workload.t), _) ->
      {
        workload = w.Workload.name;
        base_fa = fa.(i);
        opt_fa = fa.(n + i);
        base_dm = Counters.misses base_dm.(i).Runner.counters;
        opt_dm = Counters.misses opt_dm.(i).Runner.counters;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Layout", Table.Left);
        ("FA floor", Table.Right); ("DM simulated", Table.Right);
        ("conflict", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      Table.add_row t
        [
          r.workload; "Base"; Table.cell_i r.base_fa; Table.cell_i r.base_dm;
          Table.cell_i (conflict ~dm:r.base_dm ~fa:r.base_fa);
        ];
      Table.add_row t
        [
          ""; "OptS"; Table.cell_i r.opt_fa; Table.cell_i r.opt_dm;
          Table.cell_i (conflict ~dm:r.opt_dm ~fa:r.opt_fa);
        ];
      Table.add_separator t)
    rows;
  Result.report ~id:"curve"
    ~section:"Stack distances: conflict vs capacity misses (8KB, 32B lines)"
    [
      Result.of_table t;
      Result.note "OptS attacks the conflict column: the simulated misses approach the";
      Result.note "fully-associative floor, and the floor itself drops as hot code packs";
      Result.note "into fewer lines (the spatial-locality effect of sequences)";
    ]
