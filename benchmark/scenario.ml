(* The benchmark's three workloads.  Each is a closed loop of one caller:
   the set-up builds a Context, the body makes one pass of calls into the
   pipeline and returns a [finish] thunk, and everything that is not the
   user's work (op bookkeeping, the stats digest, the reference gate) runs
   from that thunk, outside the timed regions. *)

(* Host time of every call the body makes into the pipeline, latest first:
   (wall, cpu) seconds.  Every repetition of a workload makes the same
   calls in the same order, so the parent can take each call's fastest
   time over the repetitions. *)
let calls : (float * float) list ref = ref []

let timed f =
  let c0 = Sys.time () and t0 = Measure.now () in
  let r = f () in
  calls := (Measure.now () -. t0, Sys.time () -. c0) :: !calls;
  r

type t = Repro_suite | Geometry_sweep | Layout_sweep

let all = [ Repro_suite; Geometry_sweep; Layout_sweep ]

let name = function
  | Repro_suite -> "repro-suite"
  | Geometry_sweep -> "geometry-sweep"
  | Layout_sweep -> "layout-sweep"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* [Tiny] is the self-test's size: the small kernel and short traces. *)
type size = Full | Tiny

type params = { spec : Spec.t; words : int; jobs : int }

(* The sweeps pin one domain: under two, the geometry sweep's body varied
   by a third between runs of one tree.  Geometry-sweep traces are 1 M
   words so that five or more repetitions fit in a 30 s run: with three
   at 2 M words, the fastest time of each call spread three times as much
   between runs. *)
let params size w =
  let jobs = match w with Repro_suite -> 2 | Geometry_sweep | Layout_sweep -> 1 in
  match (size, w) with
  | Full, Repro_suite -> { spec = Spec.default; words = 1_000_000; jobs }
  | Full, Geometry_sweep -> { spec = Spec.default; words = 1_000_000; jobs }
  | Full, Layout_sweep -> { spec = Spec.default; words = 250_000; jobs }
  | Tiny, _ -> { spec = Spec.small; words = 60_000; jobs }

(* One unit of work that can fail: an experiment (repro-suite), a sweep
   member (geometry-sweep) or a layout array (layout-sweep). *)
type op = { label : string; mutable failure : string option }

let op label = { label; failure = None }

(* An op keeps the first failure it meets. *)
let fail op msg = if Option.is_none op.failure then op.failure <- Some msg

type outcome = {
  ops : op array;
  refs : int;  (** Simulated instruction fetches: the numerator of sim_mips. *)
  stats_digest : string;
  gate : golden_dir:string -> unit;
      (** Compare outputs with their references, failing ops that differ. *)
}

(* ------------------------------------------------------------------ *)
(* repro-suite                                                         *)
(* ------------------------------------------------------------------ *)

let render_report (e : Experiments.t) ctx =
  let id = e.Experiments.id in
  match
    timed (fun () ->
        let report =
          Trace_log.with_span ("bench.experiments." ^ id) (fun () -> Experiments.compute e ctx)
        in
        Trace_log.with_span "bench.result.render" (fun () -> Result.render_text report))
  with
  | text -> Ok text
  | exception exn -> Error (Printexc.to_string exn)

(* Every report at the context test/test_golden.ml renders the checked-in
   transcripts from. *)
let golden_reports () =
  let ctx = Context.create ~spec:Spec.small ~words:150_000 ~seed:7 () in
  List.map (fun e -> render_report e ctx) Experiments.all

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let golden_gate ops ~golden_dir =
  List.iteri
    (fun i got ->
      let op = ops.(i) in
      let path = Filename.concat golden_dir (op.label ^ ".txt") in
      match got with
      | Error msg -> fail op msg
      | Ok _ when not (Sys.file_exists path) -> fail op ("no reference " ^ path)
      | Ok text ->
          let expect = read_file path in
          if not (String.equal expect text) then
            fail op (Printf.sprintf "differs from %s at byte %d" path (first_diff expect text)))
    (golden_reports ())

(* Trace events replayed by fused batches, from the run manifest: the
   suite's experiments return reports, not counters, so this is the
   simulated work repro-suite's sim_mips counts. *)
let events_replayed () =
  match Option.bind (Json.member "batch" (Manifest.to_json ())) (Json.member "events_replayed") with
  | Some (Json.Int n) -> n
  | _ -> 0

let repro_suite ctx =
  let texts = List.map (fun e -> render_report e ctx) Experiments.all in
  fun () ->
    let ops =
      Array.of_list (List.map (fun (e : Experiments.t) -> op e.Experiments.id) Experiments.all)
    in
    let buf = Buffer.create (1 lsl 16) in
    List.iteri
      (fun i -> function Ok text -> Buffer.add_string buf text | Error msg -> fail ops.(i) msg)
      texts;
    {
      ops;
      refs = events_replayed ();
      stats_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      gate = golden_gate ops;
    }

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let build ctx ?params level =
  timed (fun () ->
      Trace_log.with_span "bench.levels.build" (fun () -> Levels.build ctx ?params level))

let simulate_batch ctx members =
  timed (fun () ->
      Trace_log.with_span "bench.runner.simulate_batch" (fun () ->
          Runner.simulate_batch ctx ~members ()))

let counters_ok c =
  Counters.(
    List.for_all
      (fun n -> n >= 0)
      [ c.refs_os; c.refs_app; c.os_cold; c.os_self; c.os_cross; c.app_cold; c.app_self; c.app_cross ]
    && os_misses c + app_misses c <= refs c)

let add_counters buf c =
  Counters.(
    Printf.bprintf buf "%d %d %d %d %d %d %d %d\n" c.refs_os c.refs_app c.os_cold c.os_self
      c.os_cross c.app_cold c.app_self c.app_cross)

(* One op per member, failing when any of its per-workload counter records
   breaks an invariant; the stats digest covers every record in order. *)
let sweep_outcome labels (runs : Runner.run array array) ~gate =
  let ops = Array.map op labels in
  let buf = Buffer.create 4096 in
  let refs = ref 0 in
  Array.iteri
    (fun m member ->
      Array.iteri
        (fun i (r : Runner.run) ->
          let c = r.Runner.counters in
          if not (counters_ok c) then
            fail ops.(m) (Printf.sprintf "workload %d: counters break misses <= refs" i);
          refs := !refs + Counters.refs c;
          add_counters buf c)
        member)
    runs;
  {
    ops;
    refs = !refs;
    stats_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    gate = (fun ~golden_dir:_ -> gate ops);
  }

(* [f x y] for every x, then every y. *)
let cross f xs ys = Array.concat (Array.to_list (Array.map (fun x -> Array.map (f x) ys) xs))

(* Unified caches of 4-32 KB: direct-mapped, plus 2- and 4-way under each
   replacement policy. *)
let geometries =
  let policies = [ Config.Lru; Config.Fifo; Config.Random 1234 ] in
  [ 4; 8; 16; 32 ]
  |> List.concat_map (fun size_kb ->
         Config.make ~size_kb ()
         :: List.concat_map
              (fun assoc -> List.map (fun policy -> Config.make ~size_kb ~assoc ~policy ()) policies)
              [ 2; 4 ])
  |> Array.of_list

let geometry_levels = [| Levels.Base; Levels.CH; Levels.OptS |]

(* One member per kernel class (direct, and 4-way LRU, FIFO and Random at
   8 KB) and layout is replayed again through [Runner.simulate] with a
   fresh system, which skips batching and the memo; its counters must
   equal the batched ones. *)
let solo_gate ctx members (runs : Runner.run array array) ops =
  Array.iteri
    (fun m (layouts, (config : Config.t)) ->
      if config.Config.size = 8192 && (config.Config.assoc = 1 || config.Config.assoc = 4) then
        match Runner.simulate ctx ~layouts ~system:(fun () -> System.unified config) () with
        | solo ->
            let same (a : Runner.run) (b : Runner.run) = a.Runner.counters = b.Runner.counters in
            if not (Array.for_all2 same solo runs.(m)) then
              fail ops.(m) "batched counters differ from a solo replay"
        | exception exn -> fail ops.(m) (Printexc.to_string exn))
    members

(* One cold batch per layout: the batch replays each layout's 28 members
   in one pass per workload, so three batches make the passes one batch of
   all 84 would. *)
let geometry_sweep ctx =
  let layouts = Array.map (fun level -> build ctx level) geometry_levels in
  let members = cross (fun l c -> (l, c)) layouts geometries in
  let runs =
    Array.concat
      (Array.to_list
         (Array.map (fun l -> simulate_batch ctx (Array.map (fun c -> (l, c)) geometries)) layouts))
  in
  fun () ->
    let label level (c : Config.t) =
      Printf.sprintf "%s %s %s" (Levels.to_string level) (Config.to_string c)
        (Config.policy_to_string c.Config.policy)
    in
    sweep_outcome (cross label geometry_levels geometries) runs ~gate:(solo_gate ctx members runs)

(* 4 cache sizes x 6 SelfConfFree cut-offs x {OptS, OptL, OptA}. *)
let layout_variants =
  let cutoffs = [ None; Some 2.0; Some 1.0; Some 0.5; Some 0.25; Some 0.125 ] in
  [ 4; 8; 16; 32 ]
  |> List.concat_map (fun size_kb ->
         List.concat_map
           (fun scf_cutoff ->
             List.map
               (fun level -> (level, Opt.params ~cache_size:(size_kb * 1024) ~scf_cutoff ()))
               [ Levels.OptS; Levels.OptL; Levels.OptA ])
           cutoffs)
  |> Array.of_list

let variant_label (level, (p : Opt.params)) =
  Printf.sprintf "%s %dKB scf=%s" (Levels.to_string level) (p.Opt.cache_size / 1024)
    (match p.Opt.scf_cutoff with None -> "none" | Some c -> Printf.sprintf "%g" c)

(* Every OS and application map must validate (all blocks placed, no
   overlap), and one array, picked by the engine seed, rebuilt with every
   layout stage cold must have the same digests. *)
let layout_gate (ctx : Context.t) arrays ops =
  let seen = ref [] in
  let validate op map =
    if not (List.memq map !seen) then begin
      seen := map :: !seen;
      try Address_map.validate map with exn -> fail op (Printexc.to_string exn)
    end
  in
  Array.iteri
    (fun v layouts ->
      Array.iter
        (fun (l : Program_layout.t) ->
          validate ops.(v) l.Program_layout.os_map;
          Array.iter (validate ops.(v)) l.Program_layout.app_maps)
        layouts)
    arrays;
  let v = abs ctx.Context.seed mod Array.length arrays in
  let level, params = layout_variants.(v) in
  let digests = Array.map Program_layout.digest in
  Layout_cache.clear ();
  match Levels.build_uncached ctx ~params level with
  | again ->
      if digests again <> digests arrays.(v) then
        fail ops.(v) "rebuilt after Layout_cache.clear with other digests"
  | exception exn -> fail ops.(v) (Printexc.to_string exn)

(* Each array is simulated as soon as it is built, in a batch of its own:
   the arrays' placements differ, so one batch of all 72 would replay each
   in a pass of its own too. *)
let layout_sweep ctx =
  let config = Config.make ~size_kb:8 () in
  let built =
    Array.map
      (fun (level, params) ->
        let layouts = build ctx ~params level in
        (layouts, (simulate_batch ctx [| (layouts, config) |]).(0)))
      layout_variants
  in
  let arrays = Array.map fst built and runs = Array.map snd built in
  fun () ->
    sweep_outcome (Array.map variant_label layout_variants) runs ~gate:(layout_gate ctx arrays)

let body = function
  | Repro_suite -> repro_suite
  | Geometry_sweep -> geometry_sweep
  | Layout_sweep -> layout_sweep
