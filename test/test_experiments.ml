open Helpers

(* Assertions on the paper experiments' reports, read back through
   [Result.column]: beyond the "every driver runs" smoke test, these pin
   the structural and qualitative properties each table/figure must
   exhibit even on the mini-kernel. *)

let ctx () = Lazy.force small_context

let workloads () = Array.to_list (Context.workload_names (ctx ()))

let test_table1 () =
  let r = Exp_table1.report (ctx ()) in
  let key = "OS code characteristic" in
  let rows = texts r key in
  check_int "four workloads" 4 (List.length (workloads ()));
  List.iter
    (fun w ->
      check_int (w ^ ": a value per row") (List.length rows) (List.length (nums r w));
      let value label = lookup r ~key label w in
      check_bool "some code executed" true (value "Size of Executed OS Code (Bytes)" > 0.0);
      let code_pct = value "Size of Executed OS Code (%)" in
      check_bool "a strict subset of the kernel" true (code_pct > 0.0 && code_pct < 50.0);
      check_close 0.5 "invocation mix sums to 100%" 100.0
        (List.fold_left
           (fun acc c -> acc +. value (Service.to_string c ^ " Invoc. (% of Total)"))
           0.0 (Array.to_list Service.all)))
    (workloads ());
  (* TRFD_4 never makes system calls. *)
  check_close 1e-6 "TRFD_4 syscall share 0" 0.0
    (lookup r ~key (Service.to_string Service.Syscall ^ " Invoc. (% of Total)") "TRFD_4")

let test_fig3 () =
  let r = Exp_fig3.report (ctx ()) in
  let ge_95 = List.hd (nums r "arcs_ge_95_pct") in
  let le_01 = List.hd (nums r "arcs_le_01_pct") in
  check_bool "bimodal: deterministic mass dominates" true (ge_95 > 50.0);
  check_bool "shares are percentages" true (ge_95 <= 100.0 && le_01 >= 0.0 && le_01 <= 100.0)

let test_fig7 () =
  let r = Exp_fig7.report (ctx ()) in
  let share name = List.hd (nums r name) in
  check_bool "short-distance reuse exists" true (share "within_1000_pct" > 0.0);
  check_bool "within-100 <= within-1000" true
    (share "within_100_pct" <= share "within_1000_pct" +. 1e-9);
  check_bool "last-inv share is a percentage" true
    (share "last_inv_pct" >= 0.0 && share "last_inv_pct" <= 100.0)

let test_fig12 () =
  let r = Exp_fig12.report (ctx ()) in
  let levels = Array.to_list (Array.map Levels.to_string Levels.all) in
  Alcotest.(check (list string))
    "five bars per workload"
    (List.concat_map (fun _ -> levels) (workloads ()))
    (texts r "Level");
  let col name = Array.of_list (nums r name) in
  let os_self = col "OS self" and os_cross = col "OS x-app" and app_cross = col "App x-OS" in
  let app_self = col "App self" and total = col "Total" and norm = col "Norm" in
  List.iteri
    (fun k level ->
      if level = "Base" then check_close 1e-9 "Base normalized to itself" 1.0 norm.(k);
      if level = "OptS" then check_bool "OptS below Base" true (norm.(k) < 1.0);
      check_int "breakdown sums to total"
        (int_of_float (os_self.(k) +. os_cross.(k) +. app_cross.(k) +. app_self.(k)))
        (int_of_float total.(k)))
    (texts r "Level");
  check_int "an OS refs share per workload" (List.length (workloads ()))
    (List.length (nums r "OS refs"));
  List.iter
    (fun pct -> check_bool "OS refs share is a percentage" true (pct > 0.0 && pct <= 100.0))
    (nums r "OS refs")

let test_fig14 () =
  let r = Exp_fig14.report (ctx ()) in
  let at level name = lookup r ~key:"level" (Levels.to_string level) name in
  check_bool "OptS total below Base" true
    (at Levels.OptS "total_os_misses" < at Levels.Base "total_os_misses");
  check_bool "OptS tallest peak below Base's" true
    (at Levels.OptS "tallest_peak" < at Levels.Base "tallest_peak");
  check_int "three levels" 3 (List.length (nums r "top5_pct"));
  List.iter
    (fun top5 -> check_bool "top-5 share sane" true (top5 > 0.0 && top5 <= 100.0))
    (nums r "top5_pct")

let test_fig15 () =
  let r = Exp_fig15.report (ctx ()) in
  let base = Array.of_list (nums r "Base%") and opt_s = Array.of_list (nums r "OptS%") in
  check_int "4 sizes x 4 workloads" 16 (Array.length base);
  let speedups =
    Array.map (fun p -> Array.of_list (nums r (Printf.sprintf "spd@%d" p))) Speedup.penalties
  in
  Array.iter (fun s -> check_int "a speedup per penalty" 16 (Array.length s)) speedups;
  let last = Array.length Speedup.penalties - 1 in
  Array.iteri
    (fun k b ->
      check_bool "Base rate positive" true (b > 0.0);
      check_bool "OptS below Base" true (opt_s.(k) < b);
      (* Speedups grow with the penalty when OptS wins. *)
      if opt_s.(k) < b then
        check_bool "speedup grows with penalty" true (speedups.(last).(k) >= speedups.(0).(k)))
    base;
  (* Miss rates fall with cache size for each workload under Base. *)
  let rows =
    List.combine (List.combine (texts r "Cache") (texts r "Workload")) (Array.to_list base)
  in
  let base_of kb w = List.assoc (Printf.sprintf "%dKB" kb, w) rows in
  List.iter
    (fun w -> check_bool "bigger cache, lower Base rate" true (base_of 32 w < base_of 4 w))
    (workloads ())

let test_fig16 () =
  let r = Exp_fig16.report (ctx ()) in
  let cutoffs = List.map Table.cell_text (Result.column r "cut-off") in
  let sizes = Array.of_list (nums r "scf_area_bytes") in
  check_int "four cut-offs" 4 (List.length cutoffs);
  check_int "one area per variant" (List.length cutoffs) (Array.length sizes);
  (* Lower cut-offs admit more blocks: areas grow monotonically. *)
  check_int "no-area variant is empty" 0 (int_of_float sizes.(0));
  for i = 1 to Array.length sizes - 2 do
    check_bool "areas grow as the cut-off drops" true (sizes.(i) <= sizes.(i + 1))
  done;
  List.iter
    (fun cutoff ->
      check_int (cutoff ^ ": a value per (cache, workload)") 12 (List.length (nums r cutoff));
      List.iter
        (fun normalized -> check_bool "every variant beats Base" true (normalized < 1.0))
        (nums r cutoff))
    cutoffs

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
