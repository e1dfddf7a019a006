(* Graphviz export of flow graphs, for inspecting routines, their loops,
   and profile weights.  Executed blocks are shaded, calls are dashed
   edges to callee-name stubs, loop back edges are drawn bold red. *)

let escape s = String.concat "\\\"" (String.split_on_char '"' s)

let routine_to_string g ?weights ?(loops = []) (r : Routine.t) =
  let back_edges = Hashtbl.create 8 in
  List.iter
    (fun (l : Loops.t) ->
      if l.Loops.routine = r.Routine.id then
        Array.iter (fun a -> Hashtbl.replace back_edges a ()) l.Loops.back_edges)
    loops;
  let weight b =
    match weights with
    | Some w when w.(b) > 0.0 -> Printf.sprintf "\\n%.0fx" w.(b)
    | Some _ | None -> ""
  in
  let executed b =
    match weights with Some w -> w.(b) > 0.0 | None -> false
  in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph \"%s\" {\n" (escape r.Routine.name);
  add "  node [shape=box, fontsize=10];\n";
  add "  label=\"%s\";\n" (escape r.Routine.name);
  Array.iter
    (fun b ->
      let blk = Graph.block g b in
      let style =
        if b = r.Routine.entry then ", style=bold"
        else if executed b then ", style=filled, fillcolor=lightyellow"
        else ""
      in
      add "  n%d [label=\"b%d\\n%dB%s\"%s];\n" b b blk.Block.size (weight b) style;
      match blk.Block.call with
      | Some callee ->
          let name = (Graph.routine g callee).Routine.name in
          add "  call%d_%d [label=\"%s\", shape=ellipse, fontsize=9];\n" b callee
            (escape name);
          add "  n%d -> call%d_%d [style=dashed];\n" b b callee
      | None -> ())
    r.Routine.blocks;
  Array.iter
    (fun b ->
      Array.iter
        (fun a ->
          let arc = Graph.arc g a in
          let attrs =
            if Hashtbl.mem back_edges a then " [color=red, penwidth=2]"
            else
              match arc.Arc.kind with
              | Arc.Fallthrough -> ""
              | Arc.Taken -> " [color=gray40]"
          in
          add "  n%d -> n%d%s;\n" arc.Arc.src arc.Arc.dst attrs)
        (Graph.out_arcs g b))
    r.Routine.blocks;
  add "}\n";
  Buffer.contents buf
