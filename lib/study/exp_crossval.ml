(* Profile cross-validation.

   The paper builds its layouts from the {e average} profile of all four
   workloads and argues (Figure 2) that the popular OS routines are
   common to all of them.  This experiment quantifies that: an OptS layout
   is built from each single workload's profile and evaluated on every
   workload, normalized to the layout built from the workload's own
   profile.  Values near 1.0 off the diagonal mean profiles transfer. *)

type result = {
  names : string array;
  matrix : float array array;
      (** [matrix.(i).(j)]: misses of workload [j] under the layout built
          from workload [i]'s profile, over workload [j]'s misses under
          its own-profile layout. *)
  average_row : float array;  (** The paper's averaged-profile layout. *)
}

let compute (ctx : Context.t) =
  let layouts_from = Levels.opt_variant ctx in
  let n = Context.workload_count ctx in
  (* One layout per workload profile, then the averaged one, through the
     8 KB cache in one batch. *)
  let profiles = Array.append ctx.Context.os_profiles [| ctx.Context.avg_os_profile |] in
  let config = Config.make ~size_kb:8 () in
  let misses =
    Runner.simulate_batch ctx
      ~members:
        (Parallel.map_array (fun _ profile -> (layouts_from ~profile (), config)) profiles)
      ()
    |> Array.map (Array.map (fun (r : Runner.run) -> Counters.misses r.Runner.counters))
  in
  let per_profile = Array.sub misses 0 n and avg = misses.(n) in
  let own = Array.init n (fun j -> per_profile.(j).(j)) in
  {
    names = Context.workload_names ctx;
    matrix =
      Array.init n (fun i ->
          Array.init n (fun j -> Stats.ratio per_profile.(i).(j) own.(j)));
    average_row = Array.init n (fun j -> Stats.ratio avg.(j) own.(j));
  }

let report ctx =
  let r = compute ctx in
  let t =
    Table.create
      (("profile \\ evaluated on", Table.Left)
      :: Array.to_list (Array.map (fun n -> (n, Table.Right)) r.names))
  in
  Array.iteri
    (fun i row ->
      Table.add_row t
        (r.names.(i) :: Array.to_list (Array.map Table.cell_f row)))
    r.matrix;
  Table.add_separator t;
  Table.add_row t
    ("average (paper)" :: Array.to_list (Array.map Table.cell_f r.average_row));
  Result.report ~id:"crossval"
    ~section:"Cross-validation: layout from one profile, evaluated on all"
    [
      Result.of_table t;
      Result.note "1.00 on the diagonal by construction; off-diagonal near 1 = profiles";
      Result.note "transfer (the popular routines are shared, Figure 2); the averaged";
      Result.note "profile is the safe choice the paper made";
    ]
