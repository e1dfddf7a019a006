type t = {
  name : string;
  graph : Graph.t;
  arc_prob : float array;
  main : Routine.id;
  base_order : Routine.id array;
}

let finish ~name ~prng bld sink main =
  let graph = Graph.freeze bld in
  let arc_prob = Routine_gen.arc_probabilities sink ~graph in
  let base_order = Array.init (Graph.routine_count graph) (fun i -> i) in
  Prng.shuffle prng base_order;
  { name; graph; arc_prob; main; base_order }

(* Loop-dominated scientific code: [kernels] hold the vector loops,
   [phases] call them from short counted loops, [main] runs the phases. *)
let scientific ~name ~seed ~phases:n_phases ~kernels:n_kernels ~kernel_iters ~phase_iters () =
  let g = Prng.of_int seed in
  let bld = Graph.builder () in
  let sink = Routine_gen.sink bld g in
  let kernels =
    Array.init n_kernels (fun i -> Graph.declare_routine bld (Names.app name i))
  in
  let phases =
    Array.init n_phases (fun i ->
        Graph.declare_routine bld (Names.app name (n_kernels + i)))
  in
  let main = Graph.declare_routine bld (name ^ "_main") in
  Array.iter
    (fun r ->
      let hot_len = 3 + Prng.int g 3 in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          cold_detour_prob = 0.1;
          loops =
            [
              ( 0,
                {
                  Routine_gen.body_blocks = 1 + Prng.int g 2;
                  mean_iterations = float_of_int (Dist.sample kernel_iters g);
                  loop_call = None;
                } );
            ];
        }
      in
      ignore (Routine_gen.emit sink shape))
    kernels;
  Array.iter
    (fun r ->
      let hot_len = 8 + Prng.int g 6 in
      let n_loops = 2 + Prng.int g 2 in
      let loops =
        List.init n_loops (fun k ->
            ( k * 3,
              {
                Routine_gen.body_blocks = 2 + Prng.int g 2;
                mean_iterations = float_of_int (Dist.sample phase_iters g);
                loop_call = Some kernels.(Prng.int g n_kernels);
              } ))
      in
      let loops = List.filter (fun (p, _) -> p < hot_len - 1) loops in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          loops;
          cold_detour_prob = 0.15;
        }
      in
      ignore (Routine_gen.emit sink shape))
    phases;
  let main_shape =
    {
      (Routine_gen.default_shape ~routine:main) with
      hot_len = n_phases + 4;
      calls = List.init n_phases (fun i -> (i + 2, phases.(i)));
      cold_detour_prob = 0.05;
    }
  in
  ignore (Routine_gen.emit sink main_shape);
  finish ~name ~prng:g bld sink main

(* Branchy systems-style application: [utils] called from [workers] called
   from a big outer loop in [main]. *)
let branchy ~name ~seed ~utils:n_utils ~workers:n_workers ~worker_hot ~outer_iters
    ~worker_loop_frac () =
  let g = Prng.of_int seed in
  let bld = Graph.builder () in
  let sink = Routine_gen.sink bld g in
  let utils = Array.init n_utils (fun i -> Graph.declare_routine bld (Names.app name i)) in
  let workers =
    Array.init n_workers (fun i -> Graph.declare_routine bld (Names.app name (n_utils + i)))
  in
  let driver = Graph.declare_routine bld (name ^ "_driver") in
  let main = Graph.declare_routine bld (name ^ "_main") in
  let util_zipf = Dist.zipf ~n:n_utils ~s:1.2 in
  Array.iter
    (fun r ->
      let hot_len = 2 + Prng.int g 7 in
      let loops =
        if hot_len >= 3 && Prng.bernoulli g 0.2 then
          [
            ( 0,
              {
                Routine_gen.body_blocks = 1 + Prng.int g 2;
                mean_iterations = float_of_int (2 + Prng.int g 10);
                loop_call = None;
              } );
          ]
        else []
      in
      let shape =
        { (Routine_gen.default_shape ~routine:r) with hot_len; loops; cold_detour_prob = 0.35 }
      in
      ignore (Routine_gen.emit sink shape))
    utils;
  let worker_zipf = Dist.zipf ~n:n_workers ~s:1.05 in
  Array.iter
    (fun r ->
      let hot_len = worker_hot + Prng.int g worker_hot in
      let n_calls = 2 + Prng.int g 4 in
      let callee_idx =
        Array.init n_calls (fun _ -> Dist.sample util_zipf g)
      in
      let positions =
        Array.init n_calls (fun k -> 1 + (k * (hot_len - 2) / n_calls))
      in
      let calls =
        Array.to_list (Array.mapi (fun k p -> (p, utils.(callee_idx.(k)))) positions)
        |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
      in
      let loops =
        if Prng.bernoulli g worker_loop_frac then begin
          let pos = ref (-1) in
          for p = hot_len - 2 downto 0 do
            if not (List.mem_assoc p calls) then pos := p
          done;
          if !pos >= 0 then
            [
              ( !pos,
                {
                  Routine_gen.body_blocks = 2 + Prng.int g 3;
                  mean_iterations = float_of_int (2 + Prng.int g 8);
                  loop_call = Some utils.(Dist.sample util_zipf g);
                } );
            ]
          else []
        end
        else []
      in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          calls;
          loops;
          cold_detour_prob = 0.45;
        }
      in
      ignore (Routine_gen.emit sink shape))
    workers;
  (* Driver: one "work item" - calls a handful of workers in sequence. *)
  let driver_calls = 4 + Prng.int g 4 in
  let driver_shape =
    {
      (Routine_gen.default_shape ~routine:driver) with
      hot_len = driver_calls + 3;
      calls = List.init driver_calls (fun k -> (k + 1, workers.(Dist.sample worker_zipf g)));
      cold_detour_prob = 0.3;
    }
  in
  ignore (Routine_gen.emit sink driver_shape);
  let main_shape =
    {
      (Routine_gen.default_shape ~routine:main) with
      hot_len = 4;
      loops =
        [
          ( 1,
            {
              Routine_gen.body_blocks = 2;
              mean_iterations = float_of_int outer_iters;
              loop_call = Some driver;
            } );
        ];
      cold_detour_prob = 0.1;
    }
  in
  ignore (Routine_gen.emit sink main_shape);
  finish ~name ~prng:g bld sink main

let trfd ?(seed = 1001) () =
  scientific ~name:"trfd" ~seed ~phases:4 ~kernels:8
    ~kernel_iters:(Dist.weighted [| (20, 0.4); (40, 0.3); (80, 0.3) |])
    ~phase_iters:(Dist.weighted [| (8, 0.5); (16, 0.3); (32, 0.2) |])
    ()

let arc2d ?(seed = 1002) () =
  scientific ~name:"arc2d" ~seed ~phases:6 ~kernels:14
    ~kernel_iters:(Dist.weighted [| (60, 0.3); (120, 0.4); (250, 0.3) |])
    ~phase_iters:(Dist.weighted [| (16, 0.4); (40, 0.4); (100, 0.2) |])
    ()

let cc1 ?(seed = 1003) () =
  branchy ~name:"cc1" ~seed ~utils:60 ~workers:80 ~worker_hot:10 ~outer_iters:400
    ~worker_loop_frac:0.3 ()

let fsck ?(seed = 1004) () =
  branchy ~name:"fsck" ~seed ~utils:22 ~workers:24 ~worker_hot:6 ~outer_iters:1000
    ~worker_loop_frac:0.25 ()
