(* Ablation study: which ingredients of OptS matter?

   Not a figure of the paper, but a direct test of the design arguments in
   Sections 3-4: (a) the descending threshold schedule places popular
   sequences next to equally popular ones; (b) four seeds expose the four
   invocation classes' paths; (c) crossing routine boundaries (descending
   into callees) is the main difference from Chang-Hwu; (d) the
   SelfConfFree area protects the hottest blocks.  Each variant removes
   one ingredient and is simulated on the paper's 8 KB direct-mapped
   cache. *)

type variant = {
  name : string;
  what : string;
  misses : int;  (** Sum over the four workloads. *)
  vs_base : float;
  vs_opt_s : float;
}

let compute (ctx : Context.t) =
  let variants =
    [
      ("OptS", "full algorithm", fun () -> Levels.opt_variant ctx ());
      ( "-schedule",
        "flat (0,0) passes, no threshold descent",
        fun () -> Levels.opt_variant ctx ~schedule:Schedule.flat () );
      ( "-seeds",
        "interrupt seed only",
        fun () ->
          Levels.opt_variant ctx
            ~schedule:(Schedule.restrict [ Service.Interrupt ] Schedule.paper)
            () );
      ( "-interleave",
        "sequences stop at routine boundaries",
        fun () -> Levels.opt_variant ctx ~follow_calls:false () );
      ( "-scf",
        "no SelfConfFree area",
        fun () -> Levels.opt_variant ctx ~params:(Opt.params ~scf_cutoff:None ()) () );
    ]
  in
  (* Base and every variant, built concurrently, through the 8 KB cache in
     one batch. *)
  let config = Config.make ~size_kb:8 () in
  let builds =
    Array.of_list
      ((fun () -> Levels.build ctx Levels.Base)
      :: List.map (fun (_, _, build) -> build) variants)
  in
  let misses =
    Runner.simulate_batch ctx
      ~members:(Parallel.map_array (fun _ build -> (build (), config)) builds)
      ()
    |> Array.map (fun runs -> Counters.misses (Runner.total runs))
  in
  let base = misses.(0) and full = misses.(1) in
  ( base,
    List.mapi
      (fun k (name, what, _) ->
        let misses = misses.(k + 1) in
        {
          name;
          what;
          misses;
          vs_base = Stats.ratio misses base;
          vs_opt_s = Stats.ratio misses full;
        })
      variants )

let report ctx =
  let base, variants = compute ctx in
  let t =
    Table.create
      [
        ("variant", Table.Left); ("removes", Table.Left); ("misses", Table.Right);
        ("vs Base", Table.Right); ("vs OptS", Table.Right);
      ]
  in
  Table.add_row t
    [ "Base"; "(original layout)"; Table.cell_i base; Table.cell_f 1.0; "" ];
  List.iter
    (fun v ->
      Table.add_row t
        [
          v.name; v.what; Table.cell_i v.misses; Table.cell_f v.vs_base;
          Table.cell_f v.vs_opt_s;
        ])
    variants;
  Result.report ~id:"ablation"
    ~section:"Ablation: removing one OptS ingredient at a time (8KB DM)"
    [
      Result.of_table t;
      Result.note
        "every ingredient should cost misses when removed; the threshold schedule and";
      Result.note
        "caller/callee interleaving are the paper's claimed advantages over C-H";
    ]
