(* Whether [v] is among the first [n] elements of [a], from index [i]. *)
let rec mem a n v i = i < n && (a.(i) = v || mem a n v (i + 1))

(* Picks [count] distinct values by repeated sampling of [dist]; falls back
   to lower indices when the distribution keeps returning duplicates. *)
let pick_distinct g dist ~count ~bound =
  let count = min count bound in
  let out = Array.make count 0 in
  let n = ref 0 in
  let attempts = ref 0 in
  while !n < count && !attempts < count * 30 do
    incr attempts;
    let v = Dist.sample dist g in
    if not (mem out !n v 0) then begin
      out.(!n) <- v;
      incr n
    end
  done;
  let i = ref 0 in
  while !n < count do
    if not (mem out !n !i 0) then begin
      out.(!n) <- !i;
      incr n
    end;
    incr i
  done;
  out

let mean_iters_dist choices = Dist.weighted choices

(* Spread call positions over the hot path, keeping them distinct. *)
let call_positions g ~hot_len ~count =
  let avail = max 1 hot_len in
  let idx = pick_distinct g (Dist.uniform_int 0 (avail - 1)) ~count ~bound:avail in
  Array.sort compare idx;
  idx

(* Lock discipline: most service routines bracket their hot path with
   spin_lock (leaf 0) at the entry block and spin_unlock (leaf 1) just
   before the exit.  These two tiny leaves are therefore executed several
   times per OS invocation, reproducing the execution skew of Figure 8
   (a few basic blocks carry percents of all block executions) that the
   SelfConfFree area protects.  Other callees are shifted into the
   interior positions [1, hot_len-3]. *)
let calls_with_locks g ~hot_len ~callees ~lock_pool ~lock_prob =
  let interior = max 1 (hot_len - 3) in
  let positions = call_positions g ~hot_len:interior ~count:(Array.length callees) in
  let body =
    Array.to_list (Array.mapi (fun k p -> (p + 1, callees.(k))) positions)
  in
  match lock_pool with
  | Some (acquire, release) when hot_len >= 4 && Prng.bernoulli g lock_prob ->
      ((0, acquire) :: body) @ [ (hot_len - 2, release) ]
  | Some _ | None -> body

let generate (spec : Spec.t) =
  (* Leaves 0-11 (locks, timers, state save/restore, TLB, zero/copy,
     mult/div, splx, cpu_id) are wired into handlers and seed prologues. *)
  if spec.Spec.leaf_count < 12 then
    invalid_arg "Generator.generate: leaf_count must be at least 12";
  let master = Prng.of_int spec.seed in
  let g_structure = Prng.split master in
  let g_shapes = Prng.split master in
  let g_order = Prng.split master in
  let bld = Graph.builder () in
  let sink = Routine_gen.sink bld g_shapes in

  (* ---- Declare every routine up front so calls can reference them. ---- *)
  let leaves = Array.init spec.leaf_count (fun i -> Graph.declare_routine bld (Names.leaf i)) in
  let sub_mids =
    Array.init spec.sub_mid_count (fun i -> Graph.declare_routine bld (Names.sub_mid i))
  in
  let mids = Array.init spec.mid_count (fun i -> Graph.declare_routine bld (Names.mid i)) in
  let handlers =
    Array.mapi
      (fun ci n ->
        Array.init n (fun i -> Graph.declare_routine bld (Names.handler (Service.of_index ci) i)))
      spec.handler_counts
  in
  let seeds =
    Array.map (fun c -> Graph.declare_routine bld (Names.seed c)) Service.all
  in
  let colds = Array.init spec.cold_count (fun i -> Graph.declare_routine bld (Names.cold i)) in

  let zipf n = Dist.zipf ~n ~s:spec.zipf_callee in
  let leaf_zipf = zipf spec.leaf_count in
  let sub_mid_zipf = zipf spec.sub_mid_count in
  let mid_zipf = zipf spec.mid_count in
  let plain_iters = mean_iters_dist spec.loop_iters_plain in
  let call_iters = mean_iters_dist spec.loop_iters_call in

  (* ---- Leaf utilities: 1-5 blocks, no callees; a couple have the tight
     copy/zero loops of real kernels. ---- *)
  Array.iteri
    (fun i r ->
      (* Lock/spl utilities are one or two blocks; other leaves 1-5. *)
      let hot_len =
        if i <= 1 || i = 10 || i = 11 then 1 + Prng.int g_structure 2
        else 1 + Prng.int g_structure 4
      in
      let loops =
        (* block_zero / block_copy style leaves get a hot tight loop. *)
        if i = 7 || i = 9 then
          [ (0, { Routine_gen.body_blocks = 1; mean_iterations = 32.0; loop_call = None }) ]
        else if hot_len >= 3 && Prng.bernoulli g_structure 0.1 then
          [
            ( 0,
              {
                Routine_gen.body_blocks = 1 + Prng.int g_structure 2;
                mean_iterations = float_of_int (Dist.sample plain_iters g_structure);
                loop_call = None;
              } );
          ]
        else []
      in
      let hot_len = if loops <> [] then max hot_len 3 else hot_len in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          loops;
          cold_detour_prob = 0.15;
          cold_call_pool = [||];
        }
      in
      ignore (Routine_gen.emit sink shape))
    leaves;

  (* ---- Sub-mid services: call leaves; some have loops. ---- *)
  Array.iter
    (fun r ->
      let hot_len = 6 + Prng.int g_structure 9 in
      let n_calls = 1 in
      let callee_idx = pick_distinct g_structure leaf_zipf ~count:n_calls ~bound:spec.leaf_count in
      (* The Alliant's 68020-style software multiply/divide emulation is
         invoked from all over the kernel: the paper's hottest conflict
         peak is timer code against mult/div.  A third of the service
         routines call it on their hot path. *)
      let callees = Array.map (fun i -> leaves.(i)) callee_idx in
      let callees =
        if Prng.bernoulli g_structure 0.35 then Array.append callees [| leaves.(8) |]
        else callees
      in
      let calls =
        calls_with_locks g_structure ~hot_len ~callees
          ~lock_pool:(Some (leaves.(0), leaves.(1)))
          ~lock_prob:0.7
      in
      let loops =
        let roll = Prng.unit_float g_structure in
        if roll < 0.25 then
          let pos = ref 0 in
          let ok = ref false in
          for p = 0 to hot_len - 2 do
            if (not !ok) && not (List.mem_assoc p calls) then begin
              pos := p;
              ok := true
            end
          done;
          if !ok then
            [
              ( !pos,
                {
                  Routine_gen.body_blocks = 1 + Prng.int g_structure 3;
                  mean_iterations = float_of_int (Dist.sample plain_iters g_structure);
                  loop_call = None;
                } );
            ]
          else []
        else if roll < 0.30 then
          let pos = ref (-1) in
          for p = hot_len - 2 downto 0 do
            if List.mem_assoc p calls then () else pos := p
          done;
          if !pos >= 0 then
            [
              ( !pos,
                {
                  Routine_gen.body_blocks = 2 + Prng.int g_structure 4;
                  mean_iterations = float_of_int (Dist.sample call_iters g_structure);
                  loop_call = Some leaves.(Dist.sample leaf_zipf g_structure);
                } );
            ]
          else []
        else []
      in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          calls;
          loops;
          cold_call_pool = colds;
          cold_call_prob = 0.12;
        }
      in
      ignore (Routine_gen.emit sink shape))
    sub_mids;

  (* ---- Mid services: call sub-mids and leaves. ---- *)
  Array.iter
    (fun r ->
      let hot_len = 10 + Prng.int g_structure 15 in
      let n_sub = if Prng.bernoulli g_structure 0.3 then 2 else 1 in
      let n_leaf = Prng.int g_structure 2 in
      let sub_idx = pick_distinct g_structure sub_mid_zipf ~count:n_sub ~bound:spec.sub_mid_count in
      let leaf_idx = pick_distinct g_structure leaf_zipf ~count:n_leaf ~bound:spec.leaf_count in
      let callees =
        Array.append
          (Array.map (fun i -> sub_mids.(i)) sub_idx)
          (Array.map (fun i -> leaves.(i)) leaf_idx)
      in
      let callees =
        if Prng.bernoulli g_structure 0.35 then Array.append callees [| leaves.(8) |]
        else callees
      in
      let calls =
        calls_with_locks g_structure ~hot_len ~callees
          ~lock_pool:(Some (leaves.(0), leaves.(1)))
          ~lock_prob:0.8
      in
      let loops =
        let roll = Prng.unit_float g_structure in
        let free_pos =
          let pos = ref (-1) in
          for p = hot_len - 2 downto 0 do
            if not (List.mem_assoc p calls) then pos := p
          done;
          !pos
        in
        if free_pos < 0 then []
        else if roll < 0.20 then
          [
            ( free_pos,
              {
                Routine_gen.body_blocks = 1 + Prng.int g_structure 3;
                mean_iterations = float_of_int (Dist.sample plain_iters g_structure);
                loop_call = None;
              } );
          ]
        else if roll < 0.30 then
          [
            ( free_pos,
              {
                Routine_gen.body_blocks = 2 + Prng.int g_structure 5;
                mean_iterations = float_of_int (Dist.sample call_iters g_structure);
                loop_call = Some sub_mids.(Dist.sample sub_mid_zipf g_structure);
              } );
          ]
        else []
      in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          calls;
          loops;
          cold_call_pool = colds;
          cold_call_prob = 0.15;
        }
      in
      ignore (Routine_gen.emit sink shape))
    mids;

  (* ---- Handlers: call mids (and a few leaves).  The clock-interrupt
     handler is wired to the timer utilities, reproducing the paper's
     hottest conflict pair (timer vs. multiply/divide emulation). ---- *)
  Array.iteri
    (fun ci _per_class ->
      Array.iteri
        (fun hi r ->
          (* The handlers that dominate the invocation mix (clock and
             cross-processor interrupts, the common page-fault case, the
             context switch) are shallow: short hot paths calling a few
             tiny leaf utilities, as in real kernels.  This concentrates
             most block executions in a small set of blocks (Figure 8 /
             Table 4).  The rarer handlers - device interrupts, complex
             fault cases and above all system calls - descend into the
             mid-level service layers and provide the code-coverage
             breadth of Table 1. *)
          let shallow =
            (ci = Service.index Service.Interrupt && hi <= 2)
            || (ci = Service.index Service.Page_fault && hi <= 1)
            || (ci = Service.index Service.Other && hi = 0)
          in
          let hot_len =
            if shallow then 6 + Prng.int g_structure 6
            else 12 + Prng.int g_structure 19
          in
          let forced_leaves =
            if ci = Service.index Service.Interrupt && hi = 0 then
              (* clock_intr: timer_push_hrtime, timer_read_hrc, mult/div. *)
              [| leaves.(2); leaves.(3); leaves.(8) |]
            else if ci = Service.index Service.Other && hi = 0 then
              (* context_switch: save/restore state, TLB invalidation. *)
              [| leaves.(4); leaves.(5); leaves.(6) |]
            else if Prng.bernoulli g_structure 0.6 then
              [| leaves.(Dist.sample leaf_zipf g_structure) |]
            else [||]
          in
          let callees =
            if shallow then
              Array.append forced_leaves
                (Array.map
                   (fun i -> leaves.(i))
                   (pick_distinct g_structure leaf_zipf ~count:1
                      ~bound:spec.leaf_count))
            else begin
              let n_mid = if Prng.bernoulli g_structure 0.3 then 2 else 1 in
              let mid_idx =
                pick_distinct g_structure mid_zipf ~count:n_mid ~bound:spec.mid_count
              in
              Array.append (Array.map (fun i -> mids.(i)) mid_idx) forced_leaves
            end
          in
          let calls =
            calls_with_locks g_structure ~hot_len ~callees
              ~lock_pool:(Some (leaves.(10), leaves.(11)))
              ~lock_prob:0.85
          in
          let loops =
            if (not shallow) && Prng.bernoulli g_structure 0.15 then begin
              let pos = ref (-1) in
              for p = hot_len - 2 downto 0 do
                if not (List.mem_assoc p calls) then pos := p
              done;
              if !pos >= 0 then
                [
                  ( !pos,
                    {
                      Routine_gen.body_blocks = 2 + Prng.int g_structure 5;
                      mean_iterations = float_of_int (Dist.sample call_iters g_structure);
                      loop_call = Some mids.(Dist.sample mid_zipf g_structure);
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
              cold_call_pool = colds;
              cold_call_prob = 0.18;
            }
          in
          ignore (Routine_gen.emit sink shape))
        handlers.(ci))
    handlers;

  (* ---- Cold special-case routines: only reachable through cold arcs.
     They may call earlier cold routines (keeps the call graph acyclic). *)
  Array.iteri
    (fun i r ->
      let hot_len = 3 + Prng.int g_structure 14 in
      let pool = if i = 0 then [||] else Array.sub colds 0 i in
      let n_calls = if i = 0 then 0 else Prng.int g_structure 3 in
      let calls =
        if n_calls = 0 then []
        else begin
          let positions = call_positions g_structure ~hot_len ~count:n_calls in
          Array.to_list
            (Array.map (fun p -> (p, pool.(Prng.int g_structure (Array.length pool)))) positions)
        end
      in
      let shape =
        {
          (Routine_gen.default_shape ~routine:r) with
          hot_len;
          calls;
          cold_detour_prob = 0.5;
          cold_call_pool = pool;
          cold_call_prob = 0.1;
        }
      in
      ignore (Routine_gen.emit sink shape))
    colds;

  (* ---- Seed routines: prologue (state save), dispatch, epilogue. ---- *)
  let seed_infos = Array.make Service.count None in
  let dispatches = Array.make Service.count None in
  Array.iteri
    (fun ci seed_routine ->
      let class_handlers = handlers.(ci) in
      let n = Array.length class_handlers in
      let blk ?call size =
        Graph.add_block bld ~routine:seed_routine ~size ?call ()
      in
      (* Prologue: raw entry, state save (calls save_state), lock check. *)
      let entry = blk 24 in
      let save = blk ~call:leaves.(4) 16 in
      let prio = blk ~call:leaves.(10) 12 in
      (* Time-stamping on entry: every invocation reads the clock. *)
      let stamp = blk ~call:leaves.(3) 12 in
      let dispatch = blk 20 in
      let call_blocks =
        Array.map (fun h -> blk ~call:h 8) class_handlers
      in
      let epi1 = blk ~call:leaves.(5) 16 in
      let exit = blk 20 in
      let arc ~src ~dst kind p =
        let a = Graph.add_arc bld ~src ~dst kind in
        Routine_gen.set_arc_probability sink a p;
        a
      in
      ignore (arc ~src:entry ~dst:save Arc.Fallthrough 1.0);
      ignore (arc ~src:save ~dst:prio Arc.Fallthrough 1.0);
      ignore (arc ~src:prio ~dst:stamp Arc.Fallthrough 1.0);
      ignore (arc ~src:stamp ~dst:dispatch Arc.Fallthrough 1.0);
      let dispatch_arcs =
        Array.mapi
          (fun hi cb ->
            let a = arc ~src:dispatch ~dst:cb Arc.Taken (1.0 /. float_of_int n) in
            (a, hi))
          call_blocks
      in
      Array.iter (fun cb -> ignore (arc ~src:cb ~dst:epi1 Arc.Taken 1.0)) call_blocks;
      ignore (arc ~src:epi1 ~dst:exit Arc.Fallthrough 1.0);
      seed_infos.(ci) <-
        Some { Model.service = Service.of_index ci; routine = seed_routine; entry };
      dispatches.(ci) <- Some { Model.block = dispatch; arcs = dispatch_arcs })
    seeds;

  let graph = Graph.freeze bld in
  let arc_prob = Routine_gen.arc_probabilities sink ~graph in
  let base_order = Array.init (Graph.routine_count graph) (fun i -> i) in
  Prng.shuffle g_order base_order;
  {
    Model.graph;
    arc_prob;
    seeds = Array.map Option.get seed_infos;
    dispatches = Array.map Option.get dispatches;
    handlers;
    leaves;
    base_order;
  }
