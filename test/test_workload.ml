open Helpers

let model () = Lazy.force small_model

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let t = Trace.create ~capacity:2 () in
  let events =
    [
      Trace.Invocation_start Service.Interrupt;
      Trace.Exec { image = 0; block = 42 };
      Trace.Exec { image = 3; block = 0 };
      Trace.Invocation_end;
      Trace.Invocation_start Service.Syscall;
      Trace.Exec { image = 1; block = 123_456 };
      Trace.Invocation_end;
    ]
  in
  List.iter (Trace.append t) events;
  check_int "length" (List.length events) (Trace.length t);
  List.iteri
    (fun i e ->
      check_bool (Printf.sprintf "event %d round-trips" i) true (Trace.get t i = e))
    events

let test_trace_capacity_growth () =
  let t = Trace.create ~capacity:1 () in
  for b = 0 to 999 do
    Trace.append t (Trace.Exec { image = 0; block = b })
  done;
  check_int "grew to 1000" 1000 (Trace.length t);
  check_bool "last intact" true (Trace.get t 999 = Trace.Exec { image = 0; block = 999 })

let test_trace_iter_exec () =
  let t = Trace.create () in
  Trace.append t (Trace.Invocation_start Service.Other);
  Trace.append t (Trace.Exec { image = 2; block = 7 });
  Trace.append t (Trace.Invocation_end);
  Trace.append t (Trace.Exec { image = 0; block = 9 });
  let seen = ref [] in
  Trace.iter_exec t (fun ~image ~block -> seen := (image, block) :: !seen);
  check_bool "only exec events" true (List.rev !seen = [ (2, 7); (0, 9) ]);
  let all = ref 0 in
  Trace.iter t (fun _ -> incr all);
  check_int "iter sees all" 4 !all

(* ------------------------------------------------------------------ *)
(* Walker                                                             *)
(* ------------------------------------------------------------------ *)

let walker ?choose g arc_prob =
  Walker.create ~graph:g ~arc_prob ~prng:(Prng.of_int 5) ?choose
    ~arc_counts:(Array.make (Graph.arc_count g) 0.0)
    ()

let collect_walk ?choose g arc_prob start =
  let w = walker ?choose g arc_prob in
  Walker.start w start;
  let rec go acc =
    match Walker.step w with None -> List.rev acc | Some b -> go (b :: acc)
  in
  go []

let test_walker_follows_call () =
  let lc = loop_call () in
  (* Loop never repeats: back edge probability 0. *)
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  arc_prob.(lc.back_edge) <- 0.0;
  let walk = collect_walk lc.g arc_prob lc.c0 in
  check_bool "walk descends into callee and returns" true
    (walk = [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ])

let test_walker_loop_iterations () =
  let lc = loop_call () in
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  (* Deterministic 100% back edge would never terminate; use choose to take
     the back edge exactly twice. *)
  let taken = ref 0 in
  let choose _b (arcs : Arc.id array) =
    if Array.exists (fun a -> a = lc.back_edge) arcs then begin
      incr taken;
      if !taken <= 2 then Some lc.back_edge
      else Some (Array.to_list arcs |> List.find (fun a -> a <> lc.back_edge))
    end
    else None
  in
  let walk = collect_walk ~choose lc.g arc_prob lc.c0 in
  let count b = List.length (List.filter (fun x -> x = b) walk) in
  check_int "header executed 3 times" 3 (count lc.c1);
  check_int "callee body executed 3 times" 3 (count lc.l0);
  check_int "exit once" 1 (count lc.c4)

let test_walker_active_depth () =
  let lc = loop_call () in
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  arc_prob.(lc.back_edge) <- 0.0;
  let w = walker lc.g arc_prob in
  check_bool "inactive before start" false (Walker.active w);
  Walker.start w lc.c0;
  check_bool "active after start" true (Walker.active w);
  (* Step until we are inside the callee. *)
  let rec step_until b =
    match Walker.step w with
    | Some x when x = b -> ()
    | Some _ -> step_until b
    | None -> Alcotest.fail "walk ended early"
  in
  step_until lc.l0;
  check_bool "depth positive inside callee" true (Walker.depth w >= 1);
  step_until lc.c4;
  check_bool "drained" true (Walker.step w = None);
  check_bool "inactive after completion" false (Walker.active w)

let test_walker_arc_counts () =
  let d = diamond () in
  let arc_prob = Array.make (Graph.arc_count d.g) 0.0 in
  arc_prob.(d.arc_ea) <- 1.0;
  arc_prob.(d.arc_ax) <- 1.0;
  let arc_counts = Array.make (Graph.arc_count d.g) 0.0 in
  let w = Walker.create ~graph:d.g ~arc_prob ~prng:(Prng.of_int 5) ~arc_counts () in
  let rec drain () = match Walker.step w with Some _ -> drain () | None -> () in
  for _ = 1 to 3 do
    Walker.start w d.entry;
    drain ()
  done;
  let expected = Array.make (Graph.arc_count d.g) 0.0 in
  expected.(d.arc_ea) <- 3.0;
  expected.(d.arc_ax) <- 3.0;
  check_bool "each walk counts the hot path arcs once" true (arc_counts = expected);
  check_raises_invalid "one slot per arc" (fun () ->
      Walker.create ~graph:d.g ~arc_prob ~prng:(Prng.of_int 5) ~arc_counts:[||] ())

let test_walker_probabilistic_split () =
  let d = diamond () in
  let arc_prob = Array.make (Graph.arc_count d.g) 1.0 in
  arc_prob.(d.arc_ea) <- 0.7;
  arc_prob.(d.arc_eb) <- 0.3;
  let a_count = ref 0 and n = 5_000 in
  let w = walker d.g arc_prob in
  for _ = 1 to n do
    Walker.start w d.entry;
    let rec drain () =
      match Walker.step w with
      | Some b ->
          if b = d.a then incr a_count;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  check_close 0.03 "split matches probabilities" 0.7
    (float_of_int !a_count /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Workload / Program                                                 *)
(* ------------------------------------------------------------------ *)

let test_workloads_standard () =
  let m = model () in
  let ws = Workload.standard m in
  check_int "four workloads" 4 (Array.length ws);
  Array.iter
    (fun (w : Workload.t) ->
      check_close 1e-9 "mix sums to 1" 1.0 (Stats.sum w.Workload.mix);
      check_int "weights for each class" Service.count
        (Array.length w.Workload.handler_weights);
      check_bool "os fraction in (0,1]" true
        (w.Workload.os_fraction > 0.0 && w.Workload.os_fraction <= 1.0);
      Array.iteri
        (fun ci hw ->
          check_int "one weight per handler"
            (Array.length m.Model.handlers.(ci))
            (Array.length hw))
        w.Workload.handler_weights)
    ws

let test_workload_characters () =
  let m = model () in
  let trfd = Workload.trfd_4 m and shell = Workload.shell m in
  let ix s = Service.index s in
  check_bool "TRFD_4 is interrupt dominated" true
    (trfd.Workload.mix.(ix Service.Interrupt) > trfd.Workload.mix.(ix Service.Syscall));
  check_bool "Shell is syscall dominated" true
    (shell.Workload.mix.(ix Service.Syscall) > shell.Workload.mix.(ix Service.Interrupt));
  check_float "TRFD_4 never syscalls" 0.0 (trfd.Workload.mix.(ix Service.Syscall));
  check_bool "Shell runs no traced app" true
    (Array.length shell.Workload.app_instances = 0 || shell.Workload.os_fraction = 1.0)

let test_focused_weights () =
  let g = Prng.of_int 9 in
  let w = Workload.focused_weights g ~n:10 ~used:4 ~common_weight:0.5 in
  check_int "length" 10 (Array.length w);
  check_float "handler 0 gets the common weight" 0.5 w.(0);
  let used = Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 w in
  check_int "exactly [used] handlers weighted" 4 used;
  Array.iter (fun x -> check_bool "weights non-negative" true (x >= 0.0)) w

let test_program_images () =
  let m = model () in
  let apps = [| App_model.trfd () |] in
  let p = Program.make ~os:m ~apps in
  check_int "image count" 2 (Program.image_count p);
  check_bool "os image" true (Program.is_os Program.os_image);
  check_bool "app image" false (Program.is_os 1);
  check_bool "os graph" true (Program.graph p 0 == m.Model.graph);
  check_bool "app graph" true (Program.graph p 1 == apps.(0).App_model.graph);
  check_raises_invalid "bad image" (fun () -> Program.graph p 2);
  check_bool "image names differ" true
    (Program.image_name p 0 <> Program.image_name p 1)

let test_program_max_apps () =
  let m = model () in
  let apps = Array.init (Program.max_apps + 1) (fun _ -> App_model.trfd ()) in
  check_raises_invalid "too many apps" (fun () -> Program.make ~os:m ~apps)

let test_standard_programs () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  check_int "four pairs" 4 (Array.length pairs);
  Array.iter
    (fun ((w : Workload.t), (p : Program.t)) ->
      Array.iter
        (fun inst ->
          check_bool "instance indexes a real image" true
            (inst >= 1 && inst < Program.image_count p))
        w.Workload.app_instances)
    pairs

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let run_one ?(words = 60_000) ?(seed = 3) which =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(which) in
  (w, p, Engine.capture ~program:p ~workload:w ~words ~seed)

let test_engine_word_budget () =
  let _, _, (_, stats) = run_one 1 in
  check_bool "at least the requested words" true (stats.Engine.total_words >= 60_000);
  check_int "words add up" stats.Engine.total_words
    (stats.Engine.os_words + stats.Engine.app_words)

let test_engine_os_fraction () =
  let w, _, (_, stats) = run_one 1 in
  let actual =
    float_of_int stats.Engine.os_words /. float_of_int stats.Engine.total_words
  in
  check_close 0.08 "OS share converges to target" w.Workload.os_fraction actual

let test_engine_invocation_markers_balanced () =
  let _, _, (trace, stats) = run_one 0 in
  let starts = ref 0 and ends = ref 0 and depth_bad = ref false in
  let depth = ref 0 in
  Trace.iter trace (fun e ->
      match e with
      | Trace.Invocation_start _ ->
          incr starts;
          incr depth;
          if !depth > 1 then depth_bad := true
      | Trace.Invocation_end ->
          incr ends;
          decr depth;
          if !depth < 0 then depth_bad := true
      | Trace.Exec _ -> ());
  check_bool "markers never nest or underflow" false !depth_bad;
  check_bool "starts within one of ends" true (abs (!starts - !ends) <= 1);
  check_int "stats count the invocations" !starts
    (Array.fold_left ( + ) 0 stats.Engine.invocations)

let test_engine_determinism () =
  let _, _, (t1, s1) = run_one ~seed:5 2 in
  let _, _, (t2, s2) = run_one ~seed:5 2 in
  check_int "same trace length" (Trace.length t1) (Trace.length t2);
  check_int "same total words" s1.Engine.total_words s2.Engine.total_words;
  let same = ref true in
  for i = 0 to Trace.length t1 - 1 do
    if Trace.get t1 i <> Trace.get t2 i then same := false
  done;
  check_bool "identical event streams" true !same

let test_engine_seed_changes_trace () =
  let _, _, (_, s1) = run_one ~seed:5 2 in
  let _, _, (_, s2) = run_one ~seed:6 2 in
  check_bool "different seeds give different runs" true
    (s1.Engine.total_words <> s2.Engine.total_words
    || s1.Engine.os_words <> s2.Engine.os_words)

let test_engine_mix_respected () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(0) in
  (* TRFD_4: syscall share is 0; interrupts dominate. *)
  let _, stats = Engine.capture ~program:p ~workload:w ~words:80_000 ~seed:3 in
  let total = float_of_int (Array.fold_left ( + ) 0 stats.Engine.invocations) in
  let share s =
    float_of_int stats.Engine.invocations.(Service.index s) /. total
  in
  check_float "no syscalls in TRFD_4" 0.0 (share Service.Syscall);
  check_bool "interrupts dominate" true (share Service.Interrupt > 0.5)

let test_engine_context_switches () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(1) in
  let _, stats = Engine.capture ~program:p ~workload:w ~words:80_000 ~seed:3 in
  if w.Workload.switch_period > 0 then
    check_bool "context switches happen" true (stats.Engine.context_switches > 0)

let test_engine_trace_agrees_with_stats () =
  let _, p, (trace, stats) = run_one 1 in
  let os = ref 0 and app = ref 0 in
  Trace.iter_exec trace (fun ~image ~block ->
      let words = Block.instruction_words (Graph.block (Program.graph p image) block) in
      if Program.is_os image then os := !os + words else app := !app + words);
  check_int "os words agree" stats.Engine.os_words !os;
  check_int "app words agree" stats.Engine.app_words !app

(* Profile.capture's profiles count exactly its own trace: per image,
   each block's executions and their total, and on the OS image the
   invocations, which the stats and the start markers count too. *)
let test_profile_capture_consistency () =
  let m = model () in
  Array.iter
    (fun ((w : Workload.t), p) ->
      let trace, stats, profiles =
        Profile.capture ~program:p ~workload:w ~words:30_000 ~seed:3
      in
      let execs =
        Array.map (fun (q : Profile.t) -> Array.make (Array.length q.Profile.block) 0.0) profiles
      in
      let starts = ref 0 in
      Trace.iter trace (function
        | Trace.Exec { image; block } ->
            execs.(image).(block) <- execs.(image).(block) +. 1.0
        | Trace.Invocation_start _ -> incr starts
        | Trace.Invocation_end -> ());
      Array.iteri
        (fun image (q : Profile.t) ->
          let name = Printf.sprintf "%s image %d" w.Workload.name image in
          check_bool (name ^ ": block counts are the trace's") true
            (q.Profile.block = execs.(image));
          check_float (name ^ ": total_blocks is the image's executions")
            (Array.fold_left ( +. ) 0.0 execs.(image))
            q.Profile.total_blocks)
        profiles;
      let os = profiles.(Program.os_image) in
      check_float "OS invocations are the start markers" (float_of_int !starts)
        os.Profile.invocations;
      check_int "and the stats' invocations" !starts
        (Array.fold_left ( + ) 0 stats.Engine.invocations))
    (Workload.standard_programs m)

(* Capture appends packed ints and bumps flat float arrays, so what it
   allocates per event is the walker's own stepping, about 6 words; an
   event record and callbacks per event took it to about 20. *)
let test_profile_capture_allocation () =
  let pairs = Workload.standard_programs (model ()) in
  let capture (w, p) = Profile.capture ~program:p ~workload:w ~words:200_000 ~seed:3 in
  Array.iter (fun pair -> ignore (capture pair)) pairs;
  Array.iter
    (fun ((w : Workload.t), p) ->
      let before = Gc.minor_words () in
      let trace, _, _ = capture (w, p) in
      let words = Gc.minor_words () -. before in
      let per_event = words /. float_of_int (Trace.exec_count trace) in
      if per_event > 10.0 then
        Alcotest.failf "%s: %.2f minor words per exec event (at most 10)" w.Workload.name
          per_event)
    pairs

(* Trace identity: MD5 digests of raw event streams and profiles, pinned
   when the engine and the multiprocessor model were moved onto one
   per-processor core.  Any change to the order in which a PRNG draws, or
   to what a capture emits, changes them, including at settings no
   experiment golden uses.  Regenerating them is a change of results. *)

let check_digests expected actual =
  List.iter2
    (fun (label, want) (label', got) ->
      check_string "case" label label';
      check_string label want got)
    expected actual

let engine_digests =
  [
    ("TRFD_4 seed 3", "bce11760d552dd7eb1515c465a696c84");
    ("TRFD+Make seed 3", "45c0c3cbef245c7a017cd3b13f370029");
    ("ARC2D+Fsck seed 3", "a347be2d2a182542df4c8ad29dbf9ce2");
    ("Shell seed 3", "366dd091c0b85debf3d0d1478f90b4db");
    ("TRFD_4 seed 11", "a9d530d7c88bbc356c5ce1d428155bff");
    ("TRFD+Make seed 11", "da15a0de3845d9bb16447c5c18421db8");
    ("ARC2D+Fsck seed 11", "e9d66bf9b56339ae2dcfe59149bc96e3");
    ("Shell seed 11", "efee6ff593b3a79e6bbfbc8bcfa8cb63");
  ]

let test_engine_trace_identity () =
  let pairs = Workload.standard_programs (model ()) in
  check_digests engine_digests
    (List.concat_map
       (fun seed ->
         Array.to_list
           (Array.map
              (fun ((w : Workload.t), program) ->
                let trace, stats = Engine.capture ~program ~workload:w ~words:40_000 ~seed in
                ( Printf.sprintf "%s seed %d" w.Workload.name seed,
                  md5_of (events_md5 trace, stats) ))
              pairs))
       [ 3; 11 ])

let multiproc_digests =
  [
    ("TRFD_4 xcall 0 cpu0", "7c1d04f17315af8493303377079e02d1");
    ("TRFD_4 xcall 0 cpu1", "946943ec89123814f8613f1acf57d4e3");
    ("TRFD_4 xcall 0 cpu2", "6a73d46fbe265c4af70f6e2c4d9fd1e6");
    ("TRFD_4 xcall 0 cpu3", "63dae4246875d5f9bb315b3b59f2933a");
    ("TRFD+Make xcall 0 cpu0", "c9f0ee1ea19545e918e2cb7a72853c32");
    ("TRFD+Make xcall 0 cpu1", "f5a7aa2533647e55526d637fed3e5c85");
    ("TRFD+Make xcall 0 cpu2", "65dfccc36faf783ef6b8061d60f44e6f");
    ("TRFD+Make xcall 0 cpu3", "471de8907de582b51e065155b6f7d0ea");
    ("ARC2D+Fsck xcall 0 cpu0", "66b11f70a7d419e5331576966e129fc1");
    ("ARC2D+Fsck xcall 0 cpu1", "4368b3ffc2820b794aca889422804d36");
    ("ARC2D+Fsck xcall 0 cpu2", "dcf8896c06f21846cd9a2855eeabdf63");
    ("ARC2D+Fsck xcall 0 cpu3", "114ceb7cda570a29b283e1a60551f375");
    ("Shell xcall 0 cpu0", "37c2bdb0ebe05c3385651ec5ebf73a95");
    ("Shell xcall 0 cpu1", "cc6d6e44ab4771f792c9b05fff61cc77");
    ("Shell xcall 0 cpu2", "f44fdd677d20cb44d86442e97cfa63ce");
    ("Shell xcall 0 cpu3", "1b17b1eca149f9399acc4c5a5fefeeb8");
    ("TRFD_4 xcall 0.5 cpu0", "d5797ed2a21ec1f4e83061aafcd50bc7");
    ("TRFD_4 xcall 0.5 cpu1", "e24cf42e5830bd4c24feb24226c61066");
    ("TRFD_4 xcall 0.5 cpu2", "4cb7c538d735e11ca4730e3e56559f54");
    ("TRFD_4 xcall 0.5 cpu3", "106f2474db0042c0b11d79728d76c617");
    ("TRFD+Make xcall 0.5 cpu0", "6a9edc914a0860ccbadbe3a3296d2955");
    ("TRFD+Make xcall 0.5 cpu1", "4005fa8367b1572a0678c23c99f5aa0e");
    ("TRFD+Make xcall 0.5 cpu2", "8bde65153dd3e5635a59d85191ecb1b8");
    ("TRFD+Make xcall 0.5 cpu3", "bb29f4e0319d71969d1ec2e9d98bd447");
    ("ARC2D+Fsck xcall 0.5 cpu0", "8261d7c990ca978d5ebeea769301e606");
    ("ARC2D+Fsck xcall 0.5 cpu1", "34eb318042077bd070b62d1a450275d9");
    ("ARC2D+Fsck xcall 0.5 cpu2", "acf5d5f4d8ca9de905306c3ecfbd00f3");
    ("ARC2D+Fsck xcall 0.5 cpu3", "baad477b3c2a8ffa5cdba48691c9cfc3");
    ("Shell xcall 0.5 cpu0", "21ff3d43ffa71d7c60558d813b2801cb");
    ("Shell xcall 0.5 cpu1", "501e9f10ec3a11b832636c76a51fd4fe");
    ("Shell xcall 0.5 cpu2", "a1526d4d48ceba6d079e72c10e062472");
    ("Shell xcall 0.5 cpu3", "fc8576a0855f1c245196bf6712749176");
  ]

let test_multiproc_trace_identity () =
  let pairs = Workload.standard_programs (model ()) in
  check_digests multiproc_digests
    (List.concat_map
       (fun xcall_prob ->
         List.concat_map
           (fun ((w : Workload.t), program) ->
             let r =
               Multiproc.run ~program ~workload:w ~cpus:4 ~words_per_cpu:15_000 ~seed:5
                 ~xcall_prob ()
             in
             Array.to_list
               (Array.mapi
                  (fun i (c : Multiproc.cpu) ->
                    ( Printf.sprintf "%s xcall %g cpu%d" w.Workload.name xcall_prob i,
                      md5_of
                        ( events_md5 c.Multiproc.trace, c.Multiproc.os_words,
                          c.Multiproc.app_words, c.Multiproc.invocations,
                          c.Multiproc.forced, r.Multiproc.xcalls_sent ) ))
                  r.Multiproc.cpus))
           (Array.to_list pairs))
       [ 0.0; 0.5 ])

(* The profile pins hash the counts' float bits directly, not through
   Profile.digest, so a change to how profiles are keyed cannot move them:
   only a change to what a capture counts can. *)
let profile_bits_md5 (p : Profile.t) =
  let b = Buffer.create (8 * (Array.length p.Profile.block + Array.length p.Profile.arc + 2)) in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Array.iter add p.Profile.block;
  Array.iter add p.Profile.arc;
  add p.Profile.total_blocks;
  add p.Profile.invocations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let profile_digests =
  [
    ("TRFD_4 profiles", "ef609938a0c111cc3d2aed5221ea4192");
    ("TRFD+Make profiles", "7e076cd32864e019cf6e59a028f65bee");
    ("ARC2D+Fsck profiles", "0e6f43d841a2ccdf2bc468fae6414859");
    ("Shell profiles", "e34754e476b14a1ad700fed1d99f943d");
  ]

let test_profile_capture_identity () =
  let pairs = Workload.standard_programs (model ()) in
  check_digests profile_digests
    (Array.to_list
       (Array.map
          (fun ((w : Workload.t), program) ->
            let trace, stats, profiles =
              Profile.capture ~program ~workload:w ~words:40_000 ~seed:11
            in
            let trace', stats' = Engine.capture ~program ~workload:w ~words:40_000 ~seed:11 in
            check_string "the trace is Engine.capture's"
              (md5_of (events_md5 trace', stats'))
              (md5_of (events_md5 trace, stats));
            ( Printf.sprintf "%s profiles" w.Workload.name,
              Digest.to_hex
                (Digest.string
                   (String.concat "," (Array.to_list (Array.map profile_bits_md5 profiles)))) ))
          pairs))

(* Profiles are keyed by content: a copy of each captured profile rebuilt
   through [of_counts] digests like it, including ARC2D+Fsck's image 2,
   which never runs at these settings, so its zero total and invocations
   are separately computed floats. *)
let test_profile_digest_is_content () =
  let pairs = Workload.standard_programs (model ()) in
  Array.iter
    (fun ((w : Workload.t), program) ->
      let _, _, profiles = Profile.capture ~program ~workload:w ~words:40_000 ~seed:11 in
      if w.Workload.name = "ARC2D+Fsck" then
        check_float "ARC2D+Fsck image 2 never runs" 0.0 profiles.(2).Profile.total_blocks;
      Array.iteri
        (fun i (p : Profile.t) ->
          let copy =
            Profile.of_counts ~block:(Array.copy p.Profile.block)
              ~arc:(Array.copy p.Profile.arc) ~invocations:p.Profile.invocations
          in
          check_string
            (Printf.sprintf "%s image %d: rebuilt copy's digest" w.Workload.name i)
            (Profile.digest p) (Profile.digest copy))
        profiles)
    pairs

let () =
  Alcotest.run "workload"
    [
      ( "trace",
        [
          case "roundtrip" test_trace_roundtrip;
          case "capacity growth" test_trace_capacity_growth;
          case "iter_exec" test_trace_iter_exec;
        ] );
      ( "walker",
        [
          case "follows calls" test_walker_follows_call;
          case "loop iterations via chooser" test_walker_loop_iterations;
          case "active/depth" test_walker_active_depth;
          case "arc counts" test_walker_arc_counts;
          case "probabilistic split" test_walker_probabilistic_split;
        ] );
      ( "workload",
        [
          case "standard set" test_workloads_standard;
          case "paper characters" test_workload_characters;
          case "focused weights" test_focused_weights;
          case "program images" test_program_images;
          case "max apps" test_program_max_apps;
          case "standard programs" test_standard_programs;
        ] );
      ( "engine",
        [
          case "word budget" test_engine_word_budget;
          case "os fraction" test_engine_os_fraction;
          case "markers balanced" test_engine_invocation_markers_balanced;
          case "determinism" test_engine_determinism;
          case "seed sensitivity" test_engine_seed_changes_trace;
          case "mix respected" test_engine_mix_respected;
          case "context switches" test_engine_context_switches;
          case "trace agrees with stats" test_engine_trace_agrees_with_stats;
          case "profile capture consistency" test_profile_capture_consistency;
          case "capture allocation" test_profile_capture_allocation;
          case "trace identity" test_engine_trace_identity;
          case "multiproc trace identity" test_multiproc_trace_identity;
          case "profile capture identity" test_profile_capture_identity;
          case "profile digest is content" test_profile_digest_is_content;
        ] );
    ]
