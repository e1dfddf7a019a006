type t = {
  os_map : Address_map.t;
  app_maps : Address_map.t array;
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
   copies. *)
let make ~os_map ~app_maps =
  let images = os_map :: Array.to_list app_maps in
  let digest = Memo.digest (List.map Address_map.digest images) in
  let sizes m = Graph.block_sizes (Address_map.graph m) in
  let code_map =
    {
      Replay.addr = Array.append [| Address_map.sealed_addr os_map |] (shifted_apps app_maps);
      bytes = Array.map sizes (Array.of_list images);
    }
  in
  { os_map; app_maps; digest; code_map }

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

(* The C-H OS placement depends only on (graph, profile), so it rides the
   same content-addressed cache layer as the staged Opt pipeline. *)
let ch_stage : Address_map.t Layout_cache.stage = Layout_cache.stage "chang_hwu"

let chang_hwu_os ~model ~os_profile =
  let g = model.Model.graph in
  let key = Memo.digest (Graph.digest g, Profile.digest os_profile) in
  Layout_cache.find_or_build ch_stage ~key (fun () -> Chang_hwu.layout g os_profile)

let opt_apps ~program ~app_profiles ~params =
  Array.mapi
    (fun k (app : App_model.t) ->
      (Opt.app_layout ~app ~profile:app_profiles.(k) ~stagger:k
         ~addr_skew:(app_skew k mod params.Opt.cache_size)
         params)
        .Opt.map)
    program.Program.apps

let code_map t = t.code_map

let digest t = t.digest
