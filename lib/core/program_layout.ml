type t = {
  os_map : Address_map.t;
  app_maps : Address_map.t array;
  os_meta : Opt.result option;
  digest : string;
  code_map : Replay.code_map;
}

let app_region_base = 1 lsl 24

let app_region_stride = 1 lsl 23

(* Per-image load-address skew: application text segments start past
   headers at distinct bases, so an application is not systematically
   aligned with cache set 0 (where the OS hot area lives).  Line-aligned
   but not a divisor of any simulated cache size. *)
let app_skew k = (k + 1) * 1184

let shifted_apps app_maps =
  Array.mapi
    (fun k m ->
      let b = app_region_base + (k * app_region_stride) + app_skew k in
      Array.map (fun a -> a + b) (Address_map.sealed_addr m))
    app_maps

(* Image bases are a function of the image index, so the images' sealed
   digests in order identify the whole code map.  The code map is built
   here, once per layout: the OS image is the sealed map's own address
   array and every image's sizes are its graph's, so no layout copies
   the kernel's arrays.  Only the small application images get shifted
   copies, which [with_os_map] passes on as [app_addr]. *)
let make ?app_addr ~os_map ~app_maps ~os_meta () =
  let images = os_map :: Array.to_list app_maps in
  let digest = Memo.digest (List.map Address_map.digest images) in
  let app_addr = match app_addr with Some a -> a | None -> shifted_apps app_maps in
  let sizes m = Graph.block_sizes (Address_map.graph m) in
  let code_map =
    {
      Replay.addr = Array.append [| Address_map.sealed_addr os_map |] app_addr;
      bytes = Array.map sizes (Array.of_list images);
    }
  in
  { os_map; app_maps; os_meta; digest; code_map }

(* Loop detection over the 40k-block kernel graph is not free; delegate to
   the lock-guarded per-graph memo (the old single-slot ref here was a
   data race under parallel level builds). *)
let os_loops model = Layout_cache.loops model.Model.graph

(* A Base placement depends only on (graph, routine order), both frozen
   with the model or application image, so one stage serves the OS and
   every application image: each gets one map, physically shared by
   every workload and level that uses it. *)
let base_stage : Address_map.t Layout_cache.stage = Layout_cache.stage "base"

let base_map g ~order =
  Layout_cache.find_or_build base_stage
    ~key:(Memo.digest (Graph.digest g, order))
    (fun () -> Base.layout g ~order)

let base_apps program =
  Array.map
    (fun (app : App_model.t) ->
      base_map app.App_model.graph ~order:app.App_model.base_order)
    program.Program.apps

let base_os model = base_map model.Model.graph ~order:model.Model.base_order

let base ~model ~program =
  make ~os_map:(base_os model) ~app_maps:(base_apps program) ~os_meta:None ()

(* The C-H OS placement depends only on (graph, profile) and is shared by
   every workload of a level build, so it rides the same content-addressed
   cache layer as the staged Opt pipeline. *)
let ch_stage : Address_map.t Layout_cache.stage = Layout_cache.stage "chang_hwu"

let chang_hwu ~model ~program ~os_profile =
  let g = model.Model.graph in
  let key = Memo.digest (Graph.digest g, Profile.digest os_profile) in
  make
    ~os_map:
      (Layout_cache.find_or_build ch_stage ~key (fun () -> Chang_hwu.layout g os_profile))
    ~app_maps:(base_apps program) ~os_meta:None ()

let opt_with ~extract_loops ~model ~program ~os_profile ~params =
  let params = { params with Opt.extract_loops } in
  let r = Opt.os_layout ~model ~profile:os_profile ~loops:(os_loops model) params in
  make ~os_map:r.Opt.map ~app_maps:(base_apps program) ~os_meta:(Some r) ()

let opt_s ~model ~program ~os_profile ?(params = Opt.params ()) () =
  opt_with ~extract_loops:false ~model ~program ~os_profile ~params

let opt_l ~model ~program ~os_profile ?(params = Opt.params ()) () =
  opt_with ~extract_loops:true ~model ~program ~os_profile ~params

let opt_a ~model ~program ~os_profile ~app_profiles ?(params = Opt.params ()) () =
  let os = opt_with ~extract_loops:false ~model ~program ~os_profile ~params in
  let app_maps =
    Array.mapi
      (fun k (app : App_model.t) ->
        let r =
          Opt.app_layout ~app ~profile:app_profiles.(k) ~stagger:k
            ~addr_skew:(app_skew k mod params.Opt.cache_size)
            params
        in
        r.Opt.map)
      program.Program.apps
  in
  make ~os_map:os.os_map ~app_maps ~os_meta:os.os_meta ()

let with_os_map t os_map =
  make ~os_map ~app_maps:t.app_maps ~os_meta:None
    ~app_addr:(Array.sub t.code_map.Replay.addr 1 (Array.length t.app_maps))
    ()

let code_map t = t.code_map

let digest t = t.digest
