type run = Sim_cache.entry = { counters : Counters.t; os_block_misses : int array }

let default_warmup_fraction = 0.2

(* How fast replay passes decode events, observed once per pass.  A
   pass's members share its one decode, so the pass is the unit that has
   a measured duration; its [replay_pass] span carries the members. *)
let events_per_sec_hist =
  Metrics_registry.histogram ~unit_:"events/s" "simulate.pass_events_per_sec"

(* Aggregate effectiveness of simulate_batch, as the registry counters
   batch.<field> (the manifest's batch object).  "Passes" and "events"
   count (workload x member) replay work; saved = what per-member
   sequential replay would have done minus what the fused path did. *)
let batch_counters =
  List.map (fun f -> (f, Metrics_registry.counter ("batch." ^ f))) Manifest.batch_fields

let bump field by = Metrics_registry.incr ~by (List.assoc field batch_counters)

(* One call's batch.* counts: [simulated] of its [members] replay in
   [groups] fused groups, each group making [passes] passes over
   [events] events in all. *)
let count_call ~members ~simulated ~groups ~passes ~events =
  bump "calls" 1;
  bump "members" members;
  bump "cache_hits" (members - simulated);
  bump "simulated" simulated;
  bump "replay_passes" (groups * passes);
  bump "passes_saved" ((simulated - groups) * passes);
  bump "events_replayed" (groups * events);
  bump "events_saved" ((simulated - groups) * events)

(* Warm-up thresholds count replayed executions (Replay.run_range only
   advances on exec events), so they must come from Trace.exec_count: a
   threshold derived from the marker-inclusive Trace.length would drift
   with invocation-marker density. *)
let warmup_of trace ~warmup_fraction =
  int_of_float (warmup_fraction *. float_of_int (Trace.exec_count trace))

(* The one replay pass behind every entry point: every system in
   [systems] rides a single decode of [trace] under [map], with counters
   reset after the warm-up prefix.  With [os_blocks], each system also
   counts misses per block of the OS's [os_blocks] blocks.  A traced pass
   also reports [probes], the stream entries its kernels read: what
   stripping left of the events for its members to probe. *)
let pass ?workload ?os_blocks ~warmup_fraction ~trace ~map systems =
  let probes () = Array.fold_left (fun n sys -> n + System.probes sys) 0 systems in
  let probes0 = probes () in
  Trace_log.with_span "replay_pass"
    ~args:
      (Option.to_list (Option.map (fun w -> ("workload", Json.String w)) workload)
      @ [
          ("members", Json.Int (Array.length systems));
          ("events", Json.Int (Trace.length trace));
          ("domain", Json.Int (Domain.self () :> int));
        ])
    ~after:(fun () -> [ ("probes", Json.Int (probes () - probes0)) ])
  @@ fun () ->
  let t0 = Trace_log.now () in
  Option.iter
    (fun blocks -> Array.iter (fun sys -> System.enable_block_attribution sys ~blocks) systems)
    os_blocks;
  Replay.run_range ~trace ~map ~systems ~warmup:(warmup_of trace ~warmup_fraction);
  let dt = Trace_log.now () -. t0 in
  if dt > 0.0 then
    Metrics_registry.observe events_per_sec_hist (float_of_int (Trace.length trace) /. dt);
  Array.map
    (fun sys ->
      {
        counters = System.counters sys;
        os_block_misses =
          (if Option.is_some os_blocks then System.block_misses sys else [||]);
      })
    systems

let replay ~trace ~map systems =
  Trace_log.stage "replay" @@ fun () ->
  ignore (pass ~warmup_fraction:default_warmup_fraction ~trace ~map systems);
  let n = Array.length systems in
  count_call ~members:n ~simulated:n ~groups:1 ~passes:1 ~events:(Trace.length trace)

let os_blocks ctx ~attribute_os =
  if attribute_os then Some (Graph.block_count (Context.os_graph ctx)) else None

let simulate (ctx : Context.t) ~layouts ~system ?(attribute_os = false)
    ?(warmup_fraction = default_warmup_fraction) () =
  (* Each workload's replay is independent: a fresh System.t per slot, the
     shared trace/layout data is immutable, and results merge by index —
     so the output is bit-identical for every job count. *)
  Trace_log.stage "simulate"
    ~args:[ ("workloads", Json.Int (Array.length ctx.Context.pairs)) ]
  @@ fun () ->
  Parallel.map_array
    (fun i ((w : Workload.t), _) ->
      (pass ~workload:w.Workload.name
         ?os_blocks:(os_blocks ctx ~attribute_os)
         ~warmup_fraction ~trace:ctx.Context.traces.(i)
         ~map:(Program_layout.code_map layouts.(i))
         [| system () |]).(0))
    ctx.Context.pairs

let batch ctx ~members ?(attribute_os = false)
    ?(warmup_fraction = default_warmup_fraction) () =
  let n = Array.length members in
  let workloads = Array.length ctx.Context.pairs in
  Trace_log.stage "simulate_batch"
    ~args:[ ("members", Json.Int n); ("workloads", Json.Int workloads) ]
  @@ fun () ->
  (* A member's placement identity is its layouts' digests, each
     computed at most once per layout value; the memo key and the
     grouping below both read it from here. *)
  let digests =
    Array.map (fun (layouts, _) -> Array.map Program_layout.digest layouts) members
  in
  let context = Context.key ctx in
  let keys =
    Array.mapi
      (fun m (_, spec) ->
        Sim_cache.key ~context ~layouts:digests.(m) ~spec
          ~warmup_fraction ~attribute_os)
      members
  in
  let simulated = ref 0 and group_count = ref 0 in
  (* [reps]: the members this call replays, one per key that no one has
     stored or is replaying.  Equal keys provably replay to equal results,
     so every other member is served from Sim_cache. *)
  let replay reps =
    (* Group representatives by placement: members whose layouts resolve
       to the same code maps ride one replay pass per workload, with every
       member's cache system fed from the same decoded event stream.
       Groups hold positions in [reps]. *)
    let group_of_digest : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let rev_groups = ref [] in
    Array.iteri
      (fun k m ->
        let d = String.concat "|" (Array.to_list digests.(m)) in
        match Hashtbl.find_opt group_of_digest d with
        | Some cell -> cell := k :: !cell
        | None ->
            let cell = ref [ k ] in
            Hashtbl.add group_of_digest d cell;
            rev_groups := cell :: !rev_groups)
      reps;
    let groups =
      List.rev !rev_groups
      |> List.map (fun cell -> Array.of_list (List.rev !cell))
      |> Array.of_list
    in
    (* One pass per (workload, layout group), each its own task, so the
       passes spread evenly over the runners; results merge by index. *)
    let ngroups = Array.length groups in
    let passes =
      Parallel.map_array
        (fun t () ->
          let i = t / ngroups and group = groups.(t mod ngroups) in
          let (w : Workload.t), _ = ctx.Context.pairs.(i) in
          let rep_layouts, _ = members.(reps.(group.(0))) in
          pass ~workload:w.Workload.name
            ?os_blocks:(os_blocks ctx ~attribute_os)
            ~warmup_fraction ~trace:ctx.Context.traces.(i)
            ~map:(Program_layout.code_map rep_layouts.(i))
            (Array.map (fun k -> System.create (snd members.(reps.(k)))) group))
        (Array.make (workloads * ngroups) ())
    in
    (* Transpose (workload, group, slot) -> per-representative runs. *)
    let runs = Array.make (Array.length reps) [||] in
    Array.iteri
      (fun g group ->
        Array.iteri
          (fun j k ->
            runs.(k) <- Array.init workloads (fun i -> passes.((i * ngroups) + g).(j)))
          group)
      groups;
    simulated := !simulated + Array.length reps;
    group_count := !group_count + Array.length groups;
    runs
  in
  let results = Sim_cache.find_or_replay keys replay in
  count_call ~members:n ~simulated:!simulated ~groups:!group_count ~passes:workloads
    ~events:(Array.fold_left (fun acc t -> acc + Trace.length t) 0 ctx.Context.traces);
  results

let simulate_batch ctx ~members =
  batch ctx ~members:(Array.map (fun (layouts, config) -> (layouts, System.Unified config)) members)

let total runs =
  let acc = Counters.create () in
  Array.iter (fun r -> Counters.add acc r.counters) runs;
  acc
