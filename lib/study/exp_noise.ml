(* Profile-quality sensitivity.

   Real deployments profile with sampling, partial runs, or stale
   kernels; the counts feeding the layout are never exact.  This
   experiment multiplies every block and arc count by a log-normal-ish
   factor of increasing spread, rebuilds the OptS layout from the noisy
   profile, and evaluates it on the clean traces.  A flat curve means the
   algorithm only needs the profile's order of magnitude - which is what
   its threshold structure (decades of ExecThresh) suggests. *)

type point = { label : string; spread : float; ratio : float }

let spreads = [| 0.0; 0.25; 0.5; 1.0; 2.0 |]

let perturb ~seed ~spread (p : Profile.t) =
  let g = Prng.of_int seed in
  let noisy x =
    if x <= 0.0 then 0.0
    else begin
      (* Multiply by exp(u * spread), u uniform in [-1, 1): spread 1.0
         scatters counts by up to e in both directions. *)
      let u = (2.0 *. Prng.unit_float g) -. 1.0 in
      x *. Float.exp (u *. spread)
    end
  in
  (* Arcs before blocks: the PRNG draw order the noise golden was
     recorded with. *)
  let arc = Array.map noisy p.Profile.arc in
  let block = Array.map noisy p.Profile.block in
  Profile.of_counts ~block ~arc ~invocations:p.Profile.invocations

let compute (ctx : Context.t) =
  let model = ctx.Context.model in
  let loops = Context.os_loops ctx in
  let layouts_from profile =
    Levels.os_variant ctx
      (Opt.os_layout ~model ~profile ~loops (Opt.params ())).Opt.map
  in
  (* The clean layout, then one per spread (each perturbed with its own
     PRNG, so they build concurrently), through the 8 KB cache in one
     batch. *)
  let config = Config.make ~size_kb:8 () in
  let members =
    Parallel.map_array
      (fun _ spread ->
        let profile =
          match spread with
          | None -> ctx.Context.avg_os_profile
          | Some spread -> perturb ~seed:31 ~spread ctx.Context.avg_os_profile
        in
        (layouts_from profile, config))
      (Array.append [| None |] (Array.map Option.some spreads))
  in
  let misses =
    Runner.simulate_batch ctx ~members ()
    |> Array.map (fun runs -> Counters.misses (Runner.total runs))
  in
  Array.mapi
    (fun k spread ->
      {
        label = Printf.sprintf "%.2f" spread;
        spread;
        ratio = Stats.ratio misses.(k + 1) misses.(0);
      })
    spreads

let report ctx =
  let points = compute ctx in
  let t =
    Table.create
      [ ("noise spread (xe^±s)", Table.Right); ("misses vs clean OptS", Table.Right) ]
  in
  Array.iter
    (fun p -> Table.add_row t [ p.label; Table.cell_f p.ratio ])
    points;
  Result.report ~id:"noise"
    ~section:"Profile noise: OptS from a perturbed profile vs the clean one"
    [
      Result.of_table t;
      Result.note "the decade-wide threshold schedule only needs the profile's order of";
      Result.note "magnitude, so moderate profiling error costs little";
    ]
