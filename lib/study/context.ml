type t = {
  model : Model.t;
  pairs : (Workload.t * Program.t) array;
  traces : Trace.t array;
  stats : Engine.stats array;
  os_profiles : Profile.t array;
  avg_os_profile : Profile.t;
  avg_app_profile : App_model.t -> Profile.t;
  spec : Spec.t;
  words : int;
  seed : int;
  key : string;
}

(* A model is never written after generation (Inline.transform builds a
   new one), so every context of one spec can share it: robust's budget
   contexts would otherwise regenerate the same kernel each time. *)
let models : Model.t Memo.t = Memo.create "kernel_model"

(* Trace the four standard workloads on [model] and average their
   profiles.  [key] must cover everything the traces depend on. *)
let build ~spec ~model ~words ~seed ~key ?jobs () =
  let pairs = Workload.standard_programs model in
  (* Trace capture is the expensive step and every workload is independent
     (fresh trace buffer, fresh profile arrays, engine PRNG seeded per
     workload), so fan it out across domains.  Results land by index, so
     the context is bit-identical for every job count. *)
  let captures =
    Trace_log.stage "trace_capture"
      ~args:[ ("workloads", Json.Int (Array.length pairs)) ]
    @@ fun () ->
    Parallel.map_array ?jobs
      (fun i (w, program) ->
        Trace_log.with_span "capture_workload"
          ~args:
            [
              ("workload", Json.String w.Workload.name);
              ("words", Json.Int words);
              ("domain", Json.Int (Domain.self () :> int));
            ]
        @@ fun () ->
        Profile.capture ~program ~workload:w ~words ~seed:(seed + i))
      pairs
  in
  let traces = Array.map (fun (t, _, _) -> t) captures in
  let stats = Array.map (fun (_, s, _) -> s) captures in
  let os_profiles = Array.map (fun (_, _, p) -> p.(0)) captures in
  let app_profiles =
    Array.map (fun (_, _, p) -> Array.sub p 1 (Array.length p - 1)) captures
  in
  (* Merge per-app profiles across workloads sequentially, in workload
     order (the averaging below is order-sensitive only through float
     rounding, so the merge must not depend on domain scheduling). *)
  (* (app, profiles collected for it across workloads) *)
  let app_accum : (App_model.t * Profile.t list ref) list ref = ref [] in
  Array.iteri
    (fun i (_w, program) ->
      Array.iteri
        (fun k app ->
          match List.find_opt (fun (a, _) -> a == app) !app_accum with
          | Some (_, acc) -> acc := app_profiles.(i).(k) :: !acc
          | None -> app_accum := (app, ref [ app_profiles.(i).(k) ]) :: !app_accum)
        program.Program.apps)
    pairs;
  let avg_os_profile = Profile.average (Array.to_list os_profiles) in
  let averaged_apps =
    List.map (fun (app, acc) -> (app, Profile.average !acc)) !app_accum
  in
  let avg_app_profile app =
    match List.find_opt (fun (a, _) -> a == app) averaged_apps with
    | Some (_, p) -> p
    | None -> invalid_arg "Context.avg_app_profile: unknown application"
  in
  {
    model;
    pairs;
    traces;
    stats;
    os_profiles;
    avg_os_profile;
    avg_app_profile;
    spec;
    words;
    seed;
    key;
  }

let create ~spec ~words ~seed ?jobs () =
  if words < 1 then invalid_arg "Context.create: words < 1";
  let model =
    Memo.find_or_build models (Memo.digest (spec : Spec.t)) (fun () ->
        Trace_log.stage "kernel_model.generate" (fun () -> Generator.generate spec))
  in
  build ~spec ~model ~words ~seed ~key:(Memo.digest (spec, words, seed)) ?jobs ()

(* A derived model is not a function of the spec, so the key names the
   model's content: the workloads are built from its handler counts and
   the engine walks its graph, arc probabilities, seeds, dispatches and
   handlers. *)
let derive t ~(model : Model.t) ~seed =
  let key =
    Memo.digest
      ( "derived",
        Graph.digest model.graph,
        (model.arc_prob, model.seeds, model.dispatches, model.handlers),
        t.words,
        seed )
  in
  build ~spec:t.spec ~model ~words:t.words ~seed ~key ()

let workload_count t = Array.length t.pairs

let workload_names t = Array.map (fun (w, _) -> w.Workload.name) t.pairs

let os_graph t = t.model.Model.graph

let os_loops t = Program_layout.os_loops t.model

let key t = t.key
