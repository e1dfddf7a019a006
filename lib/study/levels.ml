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

(* The one per-workload assembly: every workload's program gets [os_map]
   and the application maps [apps] gives it. *)
let assemble (ctx : Context.t) ~apps os_map =
  Parallel.map_array
    (fun _ ((w : Workload.t), program) ->
      Trace_log.with_span "build_pair"
        ~args:
          [
            ("workload", Json.String w.Workload.name);
            ("domain", Json.Int (Domain.self () :> int));
          ]
      @@ fun () -> Program_layout.make ~os_map ~app_maps:(apps program))
    ctx.Context.pairs

let os_variant ctx os_map = assemble ctx ~apps:Program_layout.base_apps os_map

let opt_os (ctx : Context.t) ?schedule ?follow_calls ?(profile = ctx.Context.avg_os_profile)
    params =
  Opt.os_layout ?schedule ?follow_calls ~model:ctx.Context.model ~profile
    ~loops:(Context.os_loops ctx) params

let opt_result ctx ?(params = Opt.params ()) level =
  let extract_loops =
    match level with
    | OptS | OptA -> false
    | OptL -> true
    | Base | CH -> invalid_arg "Levels.opt_result: Base and C-H carry no Opt result"
  in
  opt_os ctx { params with Opt.extract_loops }

let opt_variant ctx ?schedule ?follow_calls ?profile ?(params = Opt.params ()) () =
  os_variant ctx (opt_os ctx ?schedule ?follow_calls ?profile params).Opt.map

(* The level's OS map is built once, here, before the workloads fan out;
   they share it. *)
let build_uncached (ctx : Context.t) ~params level =
  match level with
  | Base -> os_variant ctx (Program_layout.base_os ctx.Context.model)
  | CH ->
      os_variant ctx
        (Program_layout.chang_hwu_os ~model:ctx.Context.model
           ~os_profile:ctx.Context.avg_os_profile)
  | OptS | OptL -> os_variant ctx (opt_result ctx ~params level).Opt.map
  | OptA ->
      let apps program =
        Program_layout.opt_apps ~program
          ~app_profiles:(Array.map ctx.Context.avg_app_profile program.Program.apps)
          ~params
      in
      assemble ctx ~apps (opt_result ctx ~params level).Opt.map

let build ctx ?(params = Opt.params ()) level =
  Trace_log.stage "levels_build"
    ~args:[ ("level", Json.String (to_string level)) ]
    (fun () -> build_uncached ctx ~params level)
