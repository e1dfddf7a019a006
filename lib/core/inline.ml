type stats = {
  sites : int;
  callees : int;
  added_bytes : int;
}

(* The largest callee, in static bytes, that gets inlined. *)
let max_callee_bytes = 256

(* The fewest executions of a call block per OS invocation for its site
   to be inlined. *)
let min_site_rate = 0.05

(* A call site qualifies when the callee is a small leaf (no calls of its
   own, static size within budget), is not a seed routine, and the site
   executes frequently enough to matter. *)
let inlinable ~graph:g ~profile:p ~seeds b =
  match (Graph.block g b).Block.call with
  | None -> None
  | Some c ->
      if List.mem c seeds then None
      else begin
        let routine = Graph.routine g c in
        let bytes =
          Array.fold_left
            (fun acc blk -> acc + (Graph.block g blk).Block.size)
            0 routine.Routine.blocks
        in
        let is_leaf =
          Array.for_all
            (fun blk -> not (Block.ends_in_call (Graph.block g blk)))
            routine.Routine.blocks
        in
        let rate =
          if p.Profile.invocations > 0.0 then
            p.Profile.block.(b) /. p.Profile.invocations
          else p.Profile.block.(b) /. Float.max 1.0 p.Profile.total_blocks
        in
        if is_leaf && bytes <= max_callee_bytes && rate >= min_site_rate then Some c
        else None
      end

let transform ~model ~profile:p =
  let g = model.Model.graph in
  let seeds =
    Array.to_list (Array.map (fun (s : Model.seed_info) -> s.Model.routine) model.Model.seeds)
  in
  let site_callee = Array.make (Graph.block_count g) (-1) in
  let callees = Hashtbl.create 16 in
  let sites = ref 0 in
  Graph.iter_blocks g (fun blk ->
      match inlinable ~graph:g ~profile:p ~seeds blk.Block.id with
      | Some c ->
          site_callee.(blk.Block.id) <- c;
          Hashtbl.replace callees c ();
          incr sites
      | None -> ());

  let bld = Graph.builder () in
  (* Routine ids are preserved: declare in original order. *)
  for r = 0 to Graph.routine_count g - 1 do
    ignore (Graph.declare_routine bld (Graph.routine g r).Routine.name)
  done;

  (* Pass 1: blocks.  Original blocks keep their text order; an inlined
     site is followed immediately by its private clone of the callee's
     blocks (in the callee's text order), owned by the caller routine. *)
  let new_of_old = Array.make (Graph.block_count g) (-1) in
  let clone_of = Hashtbl.create 64 in
  (* (site, old callee block) -> clone id *)
  let added_bytes = ref 0 in
  Graph.iter_routines g (fun r ->
      Array.iter
        (fun b ->
          let blk = Graph.block g b in
          let c = site_callee.(b) in
          if c >= 0 then begin
            new_of_old.(b) <-
              Graph.add_block bld ~routine:r.Routine.id ~size:blk.Block.size ();
            Array.iter
              (fun cb ->
                let cblk = Graph.block g cb in
                added_bytes := !added_bytes + cblk.Block.size;
                Hashtbl.replace clone_of (b, cb)
                  (Graph.add_block bld ~routine:r.Routine.id ~size:cblk.Block.size ()))
              (Graph.routine g c).Routine.blocks
          end
          else
            new_of_old.(b) <-
              Graph.add_block bld ~routine:r.Routine.id ~size:blk.Block.size
                ?call:blk.Block.call ())
        r.Routine.blocks);

  (* Pass 2: arcs.  Original arcs are copied (skipping those leaving an
     inlined site: its continuation moves to the clone's exit blocks);
     each inlined site is wired site -> clone entry, clone internal arcs,
     clone exits -> the site's original successors. *)
  let new_arc_of_old = Array.make (Graph.arc_count g) (-1) in
  let probs = ref [] in
  let add_arc ~src ~dst kind prob =
    let a = Graph.add_arc bld ~src ~dst kind in
    probs := (a, prob) :: !probs;
    a
  in
  Graph.iter_arcs g (fun arc ->
      if site_callee.(arc.Arc.src) < 0 then
        new_arc_of_old.(arc.Arc.id) <-
          add_arc ~src:new_of_old.(arc.Arc.src) ~dst:new_of_old.(arc.Arc.dst)
            arc.Arc.kind
            model.Model.arc_prob.(arc.Arc.id));
  Graph.iter_blocks g (fun blk ->
      let b = blk.Block.id in
      let c = site_callee.(b) in
      if c >= 0 then begin
        let routine = Graph.routine g c in
        let clone cb = Hashtbl.find clone_of (b, cb) in
        ignore
          (add_arc ~src:new_of_old.(b) ~dst:(clone routine.Routine.entry)
             Arc.Fallthrough 1.0);
        Array.iter
          (fun cb ->
            Array.iter
              (fun a ->
                let arc = Graph.arc g a in
                ignore
                  (add_arc ~src:(clone arc.Arc.src) ~dst:(clone arc.Arc.dst)
                     arc.Arc.kind
                     model.Model.arc_prob.(a)))
              (Graph.out_arcs g cb))
          routine.Routine.blocks;
        (* Clone exits resume at the site's original successors. *)
        Array.iter
          (fun cb ->
            if Graph.is_exit g cb then
              Array.iter
                (fun a ->
                  let arc = Graph.arc g a in
                  ignore
                    (add_arc ~src:(clone cb) ~dst:new_of_old.(arc.Arc.dst)
                       arc.Arc.kind
                       model.Model.arc_prob.(a)))
                (Graph.out_arcs g b))
          routine.Routine.blocks
      end);

  let graph = Graph.freeze bld in
  let arc_prob = Array.make (Graph.arc_count graph) 0.0 in
  List.iter (fun (a, p) -> arc_prob.(a) <- p) !probs;
  let remap_seed (s : Model.seed_info) =
    { s with Model.entry = new_of_old.(s.Model.entry) }
  in
  let remap_dispatch (d : Model.dispatch) =
    {
      Model.block = new_of_old.(d.Model.block);
      arcs = Array.map (fun (a, hi) -> (new_arc_of_old.(a), hi)) d.Model.arcs;
    }
  in
  let model' =
    {
      model with
      Model.graph;
      arc_prob;
      seeds = Array.map remap_seed model.Model.seeds;
      dispatches = Array.map remap_dispatch model.Model.dispatches;
    }
  in
  (model', { sites = !sites; callees = Hashtbl.length callees; added_bytes = !added_bytes })
