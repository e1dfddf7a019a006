type t = { pass : Schedule.pass; blocks : Block.id array; bytes : int }

(* Bounded pass-through: while hunting for the next acceptable unvisited
   block we may traverse already-visited blocks, but only this many steps
   without emitting before giving up on the current direction. *)
let max_pass_through = 128

let build ~graph:g ~profile:p ~seed_entry ~schedule ?(follow_calls = true) () =
  let visited = Array.make (Graph.block_count g) false in
  (* Unplaced executed blocks per routine: descending into a callee is
     only useful while it still has something to place.  Without this, a
     pass can burn its whole pass-through slack wandering a fully placed
     callee and lose the caller's continuation. *)
  let unplaced = Array.make (Graph.routine_count g) 0 in
  Graph.iter_blocks g (fun b ->
      if Profile.executed p b.Block.id then
        unplaced.(b.Block.routine) <- unplaced.(b.Block.routine) + 1);
  let build_pass ~final (pass : Schedule.pass) =
    let emitted = ref [] in
    let bytes = ref 0 in
    let acceptable b =
      Profile.block_fraction p b >= pass.Schedule.exec_thresh && Profile.executed p b
    in
    let arc_ok a =
      Profile.arc_probability p g a >= pass.Schedule.branch_thresh
      && p.Profile.arc.(a) > 0.0
    in
    (* Side branches discovered but not taken, best-weight first would be
       ideal; a stack approximates the paper's restart-from-seed scan. *)
    let frontier = ref [] in
    let emit b =
      visited.(b) <- true;
      let r = (Graph.block g b).Block.routine in
      unplaced.(r) <- unplaced.(r) - 1;
      emitted := b :: !emitted;
      bytes := !bytes + (Graph.block g b).Block.size
    in
    (* One walk direction: returns when stuck.  [stack] holds caller blocks
       whose continuation we owe; [slack] bounds pass-through of visited
       blocks. *)
    (* When a direction dies with callers still on the stack, their
       pending continuations would be unreachable (the paper instead
       rescans from the seed): salvage them into the frontier. *)
    let rec salvage stack =
      match stack with
      | [] -> ()
      | c :: rest ->
          Array.iter
            (fun a ->
              if arc_ok a then begin
                let dst = (Graph.arc g a).Arc.dst in
                if acceptable dst && not visited.(dst) then
                  frontier := dst :: !frontier
              end)
            (Graph.out_arcs g c);
          salvage rest
    in
    let rec walk b stack slack =
      let slack =
        if visited.(b) then slack - 1
        else begin
          emit b;
          max_pass_through
        end
      in
      if slack > 0 then step b stack slack else salvage stack
    and step b stack slack =
      (* Descend into an acceptable callee first.  The descent happens
         even when the callee's entry was already placed: an earlier pass
         may have died inside the callee, and its unvisited interior is
         only reachable through the entry.  The pass-through slack bounds
         the wandering over already-placed blocks. *)
      let blk = Graph.block g b in
      match blk.Block.call with
      | Some callee
        when follow_calls
             && unplaced.(callee) > 0
             && acceptable (Graph.entry_of g callee) ->
          walk (Graph.entry_of g callee) (b :: stack) slack
      | Some _ | None -> continue b stack slack
    and continue b stack slack =
      (* Follow the best acceptable arc; stash the others. *)
      let arcs = Graph.out_arcs g b in
      let best = ref None in
      Array.iter
        (fun a ->
          if arc_ok a then begin
            let dst = (Graph.arc g a).Arc.dst in
            if acceptable dst then begin
              let w = p.Profile.arc.(a) in
              match !best with
              | Some (_, w') when w' >= w ->
                  if not visited.(dst) then frontier := dst :: !frontier
              | Some (prev, _) ->
                  if not visited.(prev) then frontier := prev :: !frontier;
                  best := Some (dst, w)
              | None -> best := Some (dst, w)
            end
          end)
        arcs;
      match !best with
      | Some (dst, _) -> walk dst stack slack
      | None -> (
          (* Routine exit (or dead end): resume the caller's continuation. *)
          match stack with
          | caller :: rest when Array.length arcs = 0 -> continue caller rest slack
          | stack -> salvage stack)
    in
    let seed = seed_entry pass.Schedule.service in
    walk seed [] max_pass_through;
    (* Drain side branches discovered during this pass. *)
    let rec drain () =
      match !frontier with
      | [] -> ()
      | b :: rest ->
          frontier := rest;
          if not visited.(b) && acceptable b then walk b [] max_pass_through;
          drain ()
    in
    drain ();
    (* The paper repeats "until all operating system code is selected":
       the final pass of the schedule sweeps every block its thresholds
       accept that the greedy walks missed, hottest first, so no
       acceptable code is ever left to the cold filler. *)
    if final then begin
      let remaining =
        List.filter
          (fun b -> (not visited.(b)) && acceptable b)
          (List.init (Graph.block_count g) Fun.id)
        |> List.sort (fun a b -> compare p.Profile.block.(b) p.Profile.block.(a))
      in
      List.iter
        (fun b ->
          if (not visited.(b)) && acceptable b then walk b [] max_pass_through)
        remaining;
      drain ()
    end;
    let blocks = Array.of_list (List.rev !emitted) in
    { pass; blocks; bytes = !bytes }
  in
  let n = List.length schedule in
  List.mapi (fun i pass -> build_pass ~final:(i = n - 1) pass) schedule
  |> List.filter (fun s -> Array.length s.blocks > 0)

let covered g seqs =
  let marks = Array.make (Graph.block_count g) false in
  List.iter (fun s -> Array.iter (fun b -> marks.(b) <- true) s.blocks) seqs;
  marks
