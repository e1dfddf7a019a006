open Helpers

let model () = Lazy.force small_model

(* ------------------------------------------------------------------ *)
(* Service                                                            *)
(* ------------------------------------------------------------------ *)

let test_service_roundtrip () =
  Array.iter
    (fun s -> check_bool "roundtrip" true (Service.of_index (Service.index s) = s))
    Service.all;
  check_int "count" 4 Service.count;
  check_raises_invalid "bad index" (fun () -> Service.of_index 4);
  check_raises_invalid "negative index" (fun () -> Service.of_index (-1))

let test_service_order () =
  check_int "interrupt first" 0 (Service.index Service.Interrupt);
  check_int "page fault" 1 (Service.index Service.Page_fault);
  check_int "syscall" 2 (Service.index Service.Syscall);
  check_int "other last" 3 (Service.index Service.Other)

let test_service_names_distinct () =
  let names = Array.map Service.to_string Service.all in
  let uniq = List.sort_uniq compare (Array.to_list names) in
  check_int "distinct names" 4 (List.length uniq)

(* ------------------------------------------------------------------ *)
(* Names                                                              *)
(* ------------------------------------------------------------------ *)

let test_names_deterministic () =
  check_string "leaf stable" (Names.leaf 0) (Names.leaf 0);
  check_bool "leaves differ" true (Names.leaf 0 <> Names.leaf 1);
  check_bool "layers differ" true (Names.mid 0 <> Names.sub_mid 0);
  check_bool "handler names differ per class" true
    (Names.handler Service.Interrupt 0 <> Names.handler Service.Syscall 0)

(* ------------------------------------------------------------------ *)
(* Generator / Model                                                  *)
(* ------------------------------------------------------------------ *)

let test_generate_small () =
  let m = model () in
  check_bool "has blocks" true (Graph.block_count m.Model.graph > 100);
  check_bool "has routines" true (Graph.routine_count m.Model.graph > 50)

let test_generate_leaf_count_guard () =
  check_raises_invalid "leaf_count < 12" (fun () ->
      Generator.generate { Spec.small with Spec.leaf_count = 11 })

let test_generate_deterministic () =
  let a = Generator.generate Spec.small in
  let b = Generator.generate Spec.small in
  check_int "same block count" (Graph.block_count a.Model.graph)
    (Graph.block_count b.Model.graph);
  check_int "same arc count" (Graph.arc_count a.Model.graph)
    (Graph.arc_count b.Model.graph);
  check_int "same code bytes" (Graph.code_bytes a.Model.graph)
    (Graph.code_bytes b.Model.graph);
  Alcotest.(check (array (float 1e-12)))
    "same arc probabilities" a.Model.arc_prob b.Model.arc_prob;
  Alcotest.(check (array int)) "same base order" a.Model.base_order b.Model.base_order

let test_generate_seed_sensitivity () =
  let a = Generator.generate Spec.small in
  let b = Generator.generate { Spec.small with seed = 43 } in
  check_bool "different seed differs" true
    (a.Model.base_order <> b.Model.base_order
    || Graph.code_bytes a.Model.graph <> Graph.code_bytes b.Model.graph)

let test_model_seeds () =
  let m = model () in
  check_int "four seeds" 4 (Array.length m.Model.seeds);
  Array.iter
    (fun s ->
      let info = Model.seed_for m s in
      check_bool "seed service matches" true (info.Model.service = s);
      check_int "entry is routine entry"
        (Graph.entry_of m.Model.graph info.Model.routine)
        info.Model.entry)
    Service.all

let test_model_dispatch () =
  let m = model () in
  Array.iter
    (fun s ->
      let d = m.Model.dispatches.(Service.index s) in
      let handlers = Array.length m.Model.handlers.(Service.index s) in
      check_int "one dispatch arc per handler" handlers (Array.length d.Model.arcs);
      Array.iter
        (fun (a, hi) ->
          let arc = Graph.arc m.Model.graph a in
          check_int "arc leaves the dispatch block" d.Model.block arc.Arc.src;
          check_bool "handler index in range" true
            (hi >= 0 && hi < handlers))
        d.Model.arcs)
    Service.all

let test_model_handler_counts () =
  let m = model () in
  Array.iteri
    (fun ci n ->
      check_int "handler count matches spec" n
        (Array.length m.Model.handlers.(ci)))
    Spec.small.Spec.handler_counts

let test_model_base_order_permutation () =
  let m = model () in
  let sorted = Array.copy m.Model.base_order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of routines"
    (Array.init (Graph.routine_count m.Model.graph) Fun.id)
    sorted

let test_model_arc_probabilities () =
  let m = model () in
  let g = m.Model.graph in
  (* Arc probabilities are conditional on the source block executing: for
     every block with outgoing arcs they must sum to at most ~1 and every
     probability lies in [0, 1]. *)
  Graph.iter_blocks g (fun b ->
      let arcs = Graph.out_arcs g b.Block.id in
      if Array.length arcs > 0 then begin
        let sum =
          Array.fold_left (fun acc a -> acc +. m.Model.arc_prob.(a)) 0.0 arcs
        in
        if not (sum <= 1.0 +. 1e-6) then
          Alcotest.failf "block %d arc probabilities sum to %f" b.Block.id sum;
        Array.iter
          (fun a ->
            let p = m.Model.arc_prob.(a) in
            if p < -.1e-9 || p > 1.0 +. 1e-9 then
              Alcotest.failf "arc %d probability %f out of range" a p)
          arcs
      end)

let test_model_hot_exit_probability () =
  (* Seed entry blocks must be able to continue: at least one outgoing arc
     with positive probability. *)
  let m = model () in
  let g = m.Model.graph in
  Array.iter
    (fun (info : Model.seed_info) ->
      let entry_arcs = Graph.out_arcs g info.Model.entry in
      check_bool "seed entry continues" true
        (Array.exists (fun a -> m.Model.arc_prob.(a) > 0.0) entry_arcs))
    m.Model.seeds

let test_model_routine_name () =
  let m = model () in
  check_bool "names nonempty" true (String.length (Model.routine_name m 0) > 0)

let test_model_code_size_calibration () =
  (* The default kernel must be in the neighbourhood of Concentrix 3.0:
     ~0.94 MB of code, tens of thousands of blocks, ~21 byte mean block. *)
  let m = Lazy.force default_model in
  let g = m.Model.graph in
  let bytes = Graph.code_bytes g in
  check_bool "code size ~1MB" true (bytes > 700_000 && bytes < 1_400_000);
  let mean_block = float_of_int bytes /. float_of_int (Graph.block_count g) in
  check_bool "mean block size ~21 bytes" true (mean_block > 15.0 && mean_block < 28.0);
  check_bool "routine population ~2K" true
    (Graph.routine_count g > 1_000 && Graph.routine_count g < 4_000)

(* ------------------------------------------------------------------ *)
(* Routine_gen                                                        *)
(* ------------------------------------------------------------------ *)

let emit_one shape_of =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let sink = Routine_gen.sink bld (Prng.of_int 17) in
  let hot = Routine_gen.emit sink (shape_of r) in
  let g = Graph.freeze bld in
  (g, r, hot, sink)

let test_routine_gen_hot_path () =
  let g, r, hot, _ =
    emit_one (fun r ->
        { (Routine_gen.default_shape ~routine:r) with Routine_gen.hot_len = 5 })
  in
  check_int "hot path length" 5 (Array.length hot);
  check_int "entry is first hot block" (Graph.entry_of g r) hot.(0);
  check_bool "exit is last hot block" true (Graph.is_exit g hot.(4))

let test_routine_gen_cold_detours () =
  let g, _, hot, _ =
    emit_one (fun r ->
        {
          (Routine_gen.default_shape ~routine:r) with
          Routine_gen.hot_len = 8;
          cold_detour_prob = 1.0;
        })
  in
  check_bool "cold blocks exist beyond the hot path" true
    (Graph.block_count g > Array.length hot)

let test_routine_gen_loop_shape () =
  let g, _, hot, _ =
    emit_one (fun r ->
        {
          (Routine_gen.default_shape ~routine:r) with
          Routine_gen.hot_len = 6;
          cold_loop_prob = 0.0;
          loops =
            [ (2, { Routine_gen.body_blocks = 2; mean_iterations = 8.0; loop_call = None }) ];
        })
  in
  ignore hot;
  let loops = Loops.find g in
  check_int "one natural loop emitted" 1 (List.length loops);
  check_bool "loop has no calls" false (Loops.has_calls (List.hd loops))

let test_routine_gen_cold_loops () =
  let g, _, _, _ =
    emit_one (fun r ->
        {
          (Routine_gen.default_shape ~routine:r) with
          Routine_gen.hot_len = 12;
          cold_detour_prob = 1.0;
          cold_loop_prob = 1.0;
        })
  in
  let loops = Loops.find g in
  check_bool "cold chains produced loops" true (loops <> []);
  List.iter
    (fun (l : Loops.t) ->
      check_bool "cold loop bodies are 1-2 blocks" true
        (Array.length l.Loops.body <= 2))
    loops

let test_routine_gen_invalid_shapes () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let sink = Routine_gen.sink bld (Prng.of_int 17) in
  check_raises_invalid "hot_len 0" (fun () ->
      Routine_gen.emit sink
        { (Routine_gen.default_shape ~routine:r) with Routine_gen.hot_len = 0 })

let test_routine_gen_size_dists () =
  let g = Prng.of_int 3 in
  let mean = Dist.mean_estimate Routine_gen.hot_size_dist g 20_000 in
  check_bool "hot sizes average near 21 bytes" true (mean > 17.0 && mean < 26.0);
  for _ = 1 to 200 do
    let v = Dist.sample Routine_gen.hot_size_dist g in
    check_bool "multiple of 4" true (v mod 4 = 0);
    check_bool "positive" true (v > 0)
  done

let test_routine_gen_cold_probability () =
  let g = Prng.of_int 3 in
  for _ = 1 to 500 do
    let p = Routine_gen.cold_take_probability g in
    check_bool "in (0, 0.2]" true (p > 0.0 && p <= 0.2)
  done

(* ------------------------------------------------------------------ *)
(* App_model                                                          *)
(* ------------------------------------------------------------------ *)

let test_app_models_construct () =
  List.iter
    (fun (name, app) ->
      check_string "name recorded" name app.App_model.name;
      check_bool "nonempty graph" true (Graph.block_count app.App_model.graph > 10);
      let sorted = Array.copy app.App_model.base_order in
      Array.sort compare sorted;
      Alcotest.(check (array int))
        "base order is a permutation"
        (Array.init (Graph.routine_count app.App_model.graph) Fun.id)
        sorted)
    [
      ("trfd", App_model.trfd ());
      ("arc2d", App_model.arc2d ());
      ("cc1", App_model.cc1 ());
      ("fsck", App_model.fsck ());
    ]

let test_app_deterministic () =
  let a = App_model.trfd () and b = App_model.trfd () in
  check_int "same code size" (Graph.code_bytes a.App_model.graph)
    (Graph.code_bytes b.App_model.graph);
  Alcotest.(check (array (float 1e-12)))
    "same arc probabilities" a.App_model.arc_prob b.App_model.arc_prob

let test_app_loop_character () =
  (* Scientific codes must be loopy; the compiler model is the big one. *)
  let loops_of app = List.length (Loops.find app.App_model.graph) in
  let trfd = App_model.trfd () and cc1 = App_model.cc1 () in
  check_bool "trfd has loops" true (loops_of trfd > 0);
  check_bool "cc1 has loops" true (loops_of cc1 > 0);
  check_bool "cc1 is the bigger code" true
    (Graph.code_bytes cc1.App_model.graph > Graph.code_bytes trfd.App_model.graph)

let test_app_arc_prob_shape () =
  let app = App_model.fsck () in
  let g = app.App_model.graph in
  Graph.iter_blocks g (fun b ->
      let arcs = Graph.out_arcs g b.Block.id in
      if Array.length arcs > 0 then begin
        let sum =
          Array.fold_left (fun acc a -> acc +. app.App_model.arc_prob.(a)) 0.0 arcs
        in
        if not (sum <= 1.0 +. 1e-6) then
          Alcotest.failf "fsck block %d arc probabilities sum to %f" b.Block.id sum
      end)

let () =
  Alcotest.run "kernel_model"
    [
      ( "service",
        [
          case "roundtrip" test_service_roundtrip;
          case "paper order" test_service_order;
          case "distinct names" test_service_names_distinct;
        ] );
      ("names", [ case "deterministic" test_names_deterministic ]);
      ( "generator",
        [
          case "small generates" test_generate_small;
          case "leaf-count guard" test_generate_leaf_count_guard;
          case "deterministic" test_generate_deterministic;
          case "seed sensitivity" test_generate_seed_sensitivity;
          case "seeds" test_model_seeds;
          case "dispatch" test_model_dispatch;
          case "handler counts" test_model_handler_counts;
          case "base order permutation" test_model_base_order_permutation;
          case "arc probabilities" test_model_arc_probabilities;
          case "hot paths continue" test_model_hot_exit_probability;
          case "routine names" test_model_routine_name;
          case "code-size calibration" test_model_code_size_calibration;
        ] );
      ( "routine_gen",
        [
          case "hot path" test_routine_gen_hot_path;
          case "cold detours" test_routine_gen_cold_detours;
          case "loop shape" test_routine_gen_loop_shape;
          case "cold loops" test_routine_gen_cold_loops;
          case "invalid shapes" test_routine_gen_invalid_shapes;
          case "size distributions" test_routine_gen_size_dists;
          case "cold-take probability" test_routine_gen_cold_probability;
        ] );
      ( "app_model",
        [
          case "construct all" test_app_models_construct;
          case "deterministic" test_app_deterministic;
          case "loop character" test_app_loop_character;
          case "arc probability shape" test_app_arc_prob_shape;
        ] );
    ]
