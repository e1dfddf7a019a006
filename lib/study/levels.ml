type level = Base | CH | OptS | OptL | OptA

let all = [| Base; CH; OptS; OptL; OptA |]

let to_string = function
  | Base -> "Base"
  | CH -> "C-H"
  | OptS -> "OptS"
  | OptL -> "OptL"
  | OptA -> "OptA"

let of_string s =
  match String.lowercase_ascii s with
  | "base" -> Ok Base
  | "ch" | "c-h" -> Ok CH
  | "opts" -> Ok OptS
  | "optl" -> Ok OptL
  | "opta" -> Ok OptA
  | other ->
      Error
        (Printf.sprintf "unknown layout level %S (expected base, ch, opts, optl or opta)"
           other)

let build_uncached (ctx : Context.t) ~params level =
  let model = ctx.Context.model in
  let os_profile = ctx.Context.avg_os_profile in
  let build ((w : Workload.t), program) =
    Trace_log.with_span "build_pair"
      ~args:
        [
          ("level", Json.String (to_string level));
          ("workload", Json.String w.Workload.name);
          ("domain", Json.Int (Domain.self () :> int));
        ]
    @@ fun () ->
    match level with
    | Base -> Program_layout.base ~model ~program
    | CH -> Program_layout.chang_hwu ~model ~program ~os_profile
    | OptS -> Program_layout.opt_s ~model ~program ~os_profile ~params ()
    | OptL -> Program_layout.opt_l ~model ~program ~os_profile ~params ()
    | OptA ->
        let app_profiles =
          Array.map ctx.Context.avg_app_profile program.Program.apps
        in
        Program_layout.opt_a ~model ~program ~os_profile ~app_profiles ~params ()
  in
  (* Every workload of a level shares one OS placement; the stage memos
     are single-flight, so the first pair to reach it builds it and the
     rest wait for it instead of rebuilding it. *)
  Parallel.map_array (fun _ pair -> build pair) ctx.Context.pairs

let build ctx ?(params = Opt.params ()) level =
  Trace_log.stage "levels_build"
    ~args:[ ("level", Json.String (to_string level)) ]
    (fun () -> build_uncached ctx ~params level)

let opt_result (ctx : Context.t) ?(params = Opt.params ()) level =
  let extract_loops =
    match level with
    | OptS | OptA -> false
    | OptL -> true
    | Base | CH -> invalid_arg "Levels.opt_result: Base and C-H carry no Opt result"
  in
  Program_layout.os_opt ~model:ctx.Context.model ~os_profile:ctx.Context.avg_os_profile
    ~extract_loops ~params

let os_variant ctx os_map =
  Array.map (fun l -> Program_layout.with_os_map l os_map) (build ctx Base)

let opt_variant (ctx : Context.t) =
  let loops = Context.os_loops ctx in
  fun ?schedule ?follow_calls ?(profile = ctx.Context.avg_os_profile)
      ?(params = Opt.params ()) () ->
    os_variant ctx
      (Opt.os_layout ?schedule ?follow_calls ~model:ctx.Context.model ~profile ~loops
         params)
        .Opt.map
