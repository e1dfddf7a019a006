open Helpers

(* Typed assertions on the paper experiments' compute functions: beyond
   the "every driver runs" smoke test, these pin the structural and
   qualitative properties each table/figure must exhibit even on the
   mini-kernel. *)

let ctx () = Lazy.force small_context

let test_table1 () =
  let rows = Exp_table1.compute (ctx ()) in
  check_int "four rows" 4 (Array.length rows);
  Array.iter
    (fun (r : Exp_table1.row) ->
      check_bool "some code executed" true (r.Exp_table1.executed_bytes > 0);
      check_bool "a strict subset of the kernel" true
        (r.Exp_table1.executed_code_pct > 0.0 && r.Exp_table1.executed_code_pct < 50.0);
      check_close 0.5 "invocation mix sums to 100%" 100.0
        (Stats.sum r.Exp_table1.invocation_pct))
    rows;
  (* TRFD_4 never makes system calls. *)
  let trfd = rows.(0) in
  check_close 1e-6 "TRFD_4 syscall share 0" 0.0
    trfd.Exp_table1.invocation_pct.(Service.index Service.Syscall)

let test_fig3 () =
  let r = Exp_fig3.compute (ctx ()) in
  check_bool "bimodal: deterministic mass dominates" true (r.Exp_fig3.ge_99 > 0.5);
  check_bool "fractions are fractions" true
    (r.Exp_fig3.ge_99 <= 1.0 && r.Exp_fig3.le_01 >= 0.0 && r.Exp_fig3.le_01 <= 1.0);
  let total =
    Array.fold_left (fun acc (b : Arcstat.bin) -> acc + b.Arcstat.count) 0 r.Exp_fig3.bins
  in
  check_bool "bins populated" true (total > 0)

let test_fig7 () =
  let r = Exp_fig7.compute (ctx ()) in
  check_int "ten hot routines" 10 (List.length r.Exp_fig7.top_routines);
  check_bool "short-distance reuse exists" true (r.Exp_fig7.within_1000_pct > 0.0);
  check_bool "within-100 <= within-1000" true
    (r.Exp_fig7.within_100_pct <= r.Exp_fig7.within_1000_pct +. 1e-9);
  check_bool "last-inv share is a percentage" true
    (r.Exp_fig7.last_inv_pct >= 0.0 && r.Exp_fig7.last_inv_pct <= 100.0)

let test_fig12 () =
  let rows = Exp_fig12.compute (ctx ()) in
  Array.iter
    (fun (r : Exp_fig12.row) ->
      check_int "five bars" (Array.length Levels.all) (Array.length r.Exp_fig12.bars);
      let bar level =
        Array.to_list r.Exp_fig12.bars
        |> List.find (fun (b : Exp_fig12.miss_bar) -> b.Exp_fig12.level = level)
      in
      let base = bar Levels.Base in
      check_close 1e-9 "Base normalized to itself" 1.0 base.Exp_fig12.normalized;
      Array.iter
        (fun (b : Exp_fig12.miss_bar) ->
          check_int "breakdown sums to total"
            (b.Exp_fig12.os_self + b.Exp_fig12.os_cross + b.Exp_fig12.app_cross
           + b.Exp_fig12.app_self)
            b.Exp_fig12.total)
        r.Exp_fig12.bars;
      check_bool "OptS below Base" true
        ((bar Levels.OptS).Exp_fig12.normalized < 1.0);
      check_bool "OS refs share is a percentage" true
        (r.Exp_fig12.os_ref_pct > 0.0 && r.Exp_fig12.os_ref_pct <= 100.0))
    rows

let test_fig14 () =
  let results = Exp_fig14.compute (ctx ()) in
  let find level =
    Array.to_list results
    |> List.find (fun (r : Exp_fig14.result) -> r.Exp_fig14.level = level)
  in
  let base = find Levels.Base and opt = find Levels.OptS in
  check_bool "OptS total below Base" true (opt.Exp_fig14.total < base.Exp_fig14.total);
  check_bool "OptS tallest peak below Base's" true
    (opt.Exp_fig14.tallest_peak < base.Exp_fig14.tallest_peak);
  Array.iter
    (fun (r : Exp_fig14.result) ->
      check_int "bins sum to total" r.Exp_fig14.total
        (Array.fold_left ( + ) 0 r.Exp_fig14.bins);
      check_bool "top-5 share sane" true
        (r.Exp_fig14.top5_pct > 0.0 && r.Exp_fig14.top5_pct <= 100.0))
    results

let test_fig15 () =
  let points = Exp_fig15.compute (ctx ()) in
  check_int "4 sizes x 4 workloads" 16 (Array.length points);
  Array.iter
    (fun (p : Exp_fig15.point) ->
      check_bool "Base rate positive" true (p.Exp_fig15.base_pct > 0.0);
      check_bool "OptS below Base" true (p.Exp_fig15.opt_s_pct < p.Exp_fig15.base_pct);
      check_int "three speedups" (Array.length Speedup.penalties)
        (Array.length p.Exp_fig15.speedups);
      (* Speedups grow with the penalty when OptS wins. *)
      if p.Exp_fig15.opt_s_pct < p.Exp_fig15.base_pct then
        check_bool "speedup grows with penalty" true
          (p.Exp_fig15.speedups.(2) >= p.Exp_fig15.speedups.(0)))
    points;
  (* Miss rates fall with cache size for each workload under Base. *)
  let base_of kb w =
    (Array.to_list points
    |> List.find (fun (p : Exp_fig15.point) ->
           p.Exp_fig15.size_kb = kb && p.Exp_fig15.workload = w))
      .Exp_fig15.base_pct
  in
  Array.iter
    (fun w -> check_bool "bigger cache, lower Base rate" true (base_of 32 w < base_of 4 w))
    (Context.workload_names (ctx ()))

let test_fig16 () =
  let c = ctx () in
  let areas = Exp_fig16.scf_area_bytes c in
  check_int "one area per variant" (Array.length Exp_fig16.variants) (Array.length areas);
  (* Lower cut-offs admit more blocks: areas grow monotonically. *)
  let sizes = Array.map snd areas in
  check_int "no-area variant is empty" 0 sizes.(0);
  for i = 1 to Array.length sizes - 2 do
    check_bool "areas grow as the cut-off drops" true (sizes.(i) <= sizes.(i + 1))
  done;
  let rows = Exp_fig16.compute c in
  Array.iter
    (fun (r : Exp_fig16.row) ->
      Array.iter
        (fun (cell : Exp_fig16.cell) ->
          check_bool "every variant beats Base" true (cell.Exp_fig16.normalized < 1.0))
        r.Exp_fig16.cells)
    rows

(* A context derived on the inlined kernel.  The pins are the event
   streams of [Profile.capture ~seed:(11 + i)] on that kernel, taken
   before [Context.derive] existed, when the inline experiment captured
   its traces itself. *)
let inlined_trace_digests =
  [
    ("TRFD_4", "e57249c1a5af9ac8cc2ed1fd2514b294");
    ("TRFD+Make", "a007ef15899cfa11b49ee0a1dafc6b97");
    ("ARC2D+Fsck", "eccee9d4cfc0ec83513ec8c861cc67fb");
    ("Shell", "cd65e845899bcbefb2d668aa374887ba");
  ]

let inlined c = fst (Inline.transform ~model:c.Context.model ~profile:c.Context.avg_os_profile)

let test_context_derive () =
  let c = ctx () in
  let d = Context.derive c ~model:(inlined c) ~seed:11 in
  List.iteri
    (fun i (name, md5) ->
      check_string "workload" name (Context.workload_names d).(i);
      check_string (name ^ " trace") md5 (events_md5 d.Context.traces.(i)))
    inlined_trace_digests;
  check_int "the parent's word budget" c.Context.words d.Context.words;
  let key = Context.key in
  check_bool "derived key differs from the parent's" true (key d <> key c);
  check_bool "another seed, another key" true
    (key (Context.derive c ~model:(inlined c) ~seed:12) <> key d);
  check_bool "another model, another key" true
    (key (Context.derive c ~model:c.Context.model ~seed:11) <> key d);
  check_string "an equal model, the same key" (key d)
    (key (Context.derive c ~model:(inlined c) ~seed:11))

let test_inline_memoized () =
  let c = ctx () in
  ignore (Exp_inline.report c);
  let simulated () = Option.value ~default:0 (Metrics_registry.find_counter "batch.simulated") in
  let before = simulated () in
  ignore (Exp_inline.report c);
  check_int "a second report replays nothing" before (simulated ())

(* mp's per-CPU captures run in one span per workload, which names the
   workload and the words captured across its CPUs. *)
let test_mp_capture_spans () =
  let c = ctx () in
  Trace_log.reset ();
  Trace_log.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace_log.set_enabled false)
    (fun () -> ignore (Exp_mp.report c));
  let spans =
    List.filter_map
      (fun (e : Trace_log.event) ->
        if e.Trace_log.begin_ && e.Trace_log.name = "multiproc.capture" then
          Some e.Trace_log.args
        else None)
      (Trace_log.events ())
  in
  Trace_log.reset ();
  let workloads = Array.to_list (Context.workload_names c) in
  check_int "one span per workload" (List.length workloads) (List.length spans);
  List.iter
    (fun args ->
      (match List.assoc_opt "workload" args with
      | Some (Json.String w) -> check_bool ("known workload " ^ w) true (List.mem w workloads)
      | _ -> Alcotest.fail "a multiproc.capture span without a workload");
      check_bool "words" true (List.assoc_opt "words" args = Some (Json.Int c.Context.words)))
    spans

let () =
  Alcotest.run "experiments"
    [
      ( "paper-computes",
        [
          case "table 1" test_table1;
          case "figure 3" test_fig3;
          case "figure 7" test_fig7;
          case "figure 12" test_fig12;
          case "figure 14" test_fig14;
          case "figure 15" test_fig15;
          case "figure 16" test_fig16;
          case "context derive" test_context_derive;
          case "inline replays memoized" test_inline_memoized;
          case "mp captures traced" test_mp_capture_spans;
        ] );
    ]
