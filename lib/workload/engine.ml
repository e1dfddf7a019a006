type stats = {
  total_words : int;
  os_words : int;
  app_words : int;
  invocations : int array;
  context_switches : int;
}

type counts = { blocks : float array array; arcs : float array array }

let counts program =
  let per_image size =
    Array.init (Program.image_count program) (fun i ->
        Array.make (size (Program.graph program i)) 0.0)
  in
  { blocks = per_image Graph.block_count; arcs = per_image Graph.arc_count }

(* Longest application burst between two OS invocations, in words.  Keeps
   the self-regulating ratio controller from starving OS activity. *)
let max_burst = 30_000

type core = {
  program : Program.t;
  workload : Workload.t;
  trace : Trace.t;
  block_counts : float array array;
  g_class : Prng.t;
  words_of : int array array;  (* per image, per block: instruction words *)
  class_choices : (int * float) array;
  current_handler : int array;  (* per class: the handler its dispatch takes *)
  os_walker : Walker.t;
  instances : int array;
  app_walkers : Walker.t array;
  invocations : int array;
  mutable os_words : int;
  mutable app_words : int;
}

let core ~program ~workload ~instances ~g_class ~g_os ~g_app ~trace ~counts =
  let os = program.Program.os in
  let words_of =
    Array.init (Program.image_count program) (fun i ->
        Graph.block_words (Program.graph program i))
  in
  (* Dispatch handling: block id -> class index, and per class the arc for
     each handler plus the currently selected handler. *)
  let dispatch_class = Hashtbl.create 8 in
  let arcs_by_handler =
    Array.map
      (fun (d : Model.dispatch) ->
        let arr = Array.make (Array.length d.arcs) (-1) in
        Array.iter (fun (a, hi) -> arr.(hi) <- a) d.arcs;
        arr)
      os.Model.dispatches
  in
  Array.iteri
    (fun ci (d : Model.dispatch) -> Hashtbl.add dispatch_class d.block ci)
    os.Model.dispatches;
  let current_handler = Array.make Service.count 0 in
  let os_choose b _arcs =
    match Hashtbl.find_opt dispatch_class b with
    | None -> None
    | Some ci -> Some arcs_by_handler.(ci).(current_handler.(ci))
  in
  let os_walker =
    Walker.create ~graph:os.Model.graph ~arc_prob:os.Model.arc_prob ~prng:g_os
      ~choose:os_choose ~arc_counts:counts.arcs.(Program.os_image) ()
  in
  (* Application instances: persistent walkers over their image graphs. *)
  let app_walkers =
    Array.map
      (fun image ->
        Walker.create ~graph:(Program.graph program image)
          ~arc_prob:(Program.arc_prob program image)
          ~prng:(Prng.split g_app) ~arc_counts:counts.arcs.(image) ())
      instances
  in
  {
    program;
    workload;
    trace;
    block_counts = counts.blocks;
    g_class;
    words_of;
    class_choices = Array.mapi (fun i p -> (i, p)) workload.Workload.mix;
    current_handler;
    os_walker;
    instances;
    app_walkers;
    invocations = Array.make Service.count 0;
    os_words = 0;
    app_words = 0;
  }

let os_words c = c.os_words
let app_words c = c.app_words
let invocations c = c.invocations

(* One block execution: into the trace and the image's block counts. *)
let exec c ~image b =
  Trace.append_exec c.trace ~image ~block:b;
  let n = c.block_counts.(image) in
  n.(b) <- n.(b) +. 1.0

let sample_handler c ci =
  let w = c.workload.Workload.handler_weights.(ci) in
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then 0
  else begin
    let u = Prng.unit_float c.g_class *. total in
    let rec scan i acc =
      if i >= Array.length w - 1 then i
      else
        let acc = acc +. w.(i) in
        if u < acc then i else scan (i + 1) acc
    in
    scan 0 0.0
  end

let draw_invocation c =
  let ci = Prng.choose_weighted c.g_class c.class_choices in
  (ci, sample_handler c ci)

let invoke c ci ~handler =
  let service = Service.of_index ci in
  c.current_handler.(ci) <- handler;
  c.invocations.(ci) <- c.invocations.(ci) + 1;
  Trace.append c.trace (Trace.Invocation_start service);
  Walker.start c.os_walker (Model.seed_for c.program.Program.os service).Model.entry;
  let rec go () =
    match Walker.step c.os_walker with
    | None -> ()
    | Some b ->
        exec c ~image:Program.os_image b;
        c.os_words <- c.os_words + c.words_of.(0).(b);
        go ()
  in
  go ();
  Trace.append c.trace Trace.Invocation_end

let app_burst c ~slot =
  let n = Array.length c.instances in
  let f = c.workload.Workload.os_fraction in
  if n = 0 || f >= 1.0 then false
  else begin
    let desired_app = int_of_float (float_of_int c.os_words *. (1.0 -. f) /. f) in
    let budget = min max_burst (desired_app - c.app_words) in
    if budget <= 0 then false
    else begin
      let w = c.app_walkers.(slot mod n) and image = c.instances.(slot mod n) in
      let main =
        Graph.entry_of (Program.graph c.program image)
          c.program.Program.apps.(image - 1).App_model.main
      in
      let words = c.words_of.(image) in
      let emitted = ref 0 in
      while !emitted < budget do
        if not (Walker.active w) then Walker.start w main;
        match Walker.step w with
        | None -> ()
        | Some b ->
            exec c ~image b;
            let k = words.(b) in
            emitted := !emitted + k;
            c.app_words <- c.app_words + k
      done;
      true
    end
  end

let run ~program ~workload ~words:target ~seed ~counts =
  let g_class = Prng.of_int (seed * 3 + 1) in
  let trace = Trace.create ~capacity:(target / 4) () in
  let c =
    core ~program ~workload ~instances:workload.Workload.app_instances ~g_class
      ~g_os:(Prng.of_int (seed * 3 + 2))
      ~g_app:(Prng.of_int (seed * 3 + 3))
      ~trace ~counts
  in
  let n_instances = Array.length c.instances in
  let switches = ref 0 in
  let inv_total = ref 0 in
  let current = ref 0 in
  let prev = ref None in
  while c.os_words + c.app_words < target do
    incr inv_total;
    let switching =
      workload.Workload.switch_period > 0
      && !inv_total mod workload.Workload.switch_period = 0
      && n_instances > 1
    in
    let ci, handler =
      if switching then
        (* A forced context switch runs the switch handler itself: class
           Other, handler 0 (state save/restore, TLB invalidation). *)
        (Service.index Service.Other, 0)
      else
        match !prev with
        | Some (pc, ph) when Prng.bernoulli g_class workload.Workload.repeat_prob -> (pc, ph)
        | Some _ | None -> draw_invocation c
    in
    prev := Some (ci, handler);
    invoke c ci ~handler;
    if switching then begin
      incr switches;
      current := (!current + 1) mod n_instances
    end;
    ignore (app_burst c ~slot:!current)
  done;
  ( trace,
    {
      total_words = c.os_words + c.app_words;
      os_words = c.os_words;
      app_words = c.app_words;
      invocations = c.invocations;
      context_switches = !switches;
    } )

let capture ~program ~workload ~words ~seed =
  run ~program ~workload ~words ~seed ~counts:(counts program)
