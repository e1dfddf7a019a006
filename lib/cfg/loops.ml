type t = {
  header : Block.id;
  body : Block.id array;
  back_edges : Arc.id array;
  routine : Routine.id;
  calls_routines : Routine.id array;
  static_bytes : int;
}

let has_calls l = Array.length l.calls_routines > 0

(* Natural loop of a back edge n -> h: h plus all blocks that reach n
   without passing through h. *)
let natural_body g ~header ~latch =
  let body = Hashtbl.create 16 in
  Hashtbl.add body header ();
  let rec pull b =
    if not (Hashtbl.mem body b) then begin
      Hashtbl.add body b ();
      Array.iter (fun a -> pull (Graph.arc g a).Arc.src) (Graph.in_arcs g b)
    end
  in
  pull latch;
  body

let find_in_routine g (r : Routine.t) =
  let dom = Dominators.compute g r in
  (* Collect back edges grouped by header. *)
  let by_header = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      if Dominators.reachable dom b then
        Array.iter
          (fun a ->
            let dst = (Graph.arc g a).Arc.dst in
            if Dominators.dominates dom dst b then
              let existing = Option.value ~default:[] (Hashtbl.find_opt by_header dst) in
              Hashtbl.replace by_header dst (a :: existing))
          (Graph.out_arcs g b))
    r.Routine.blocks;
  Hashtbl.fold
    (fun header back_edges acc ->
      let body = Hashtbl.create 16 in
      Hashtbl.add body header ();
      List.iter
        (fun a ->
          let latch = (Graph.arc g a).Arc.src in
          let sub = natural_body g ~header ~latch in
          Hashtbl.iter (fun b () -> Hashtbl.replace body b ()) sub)
        back_edges;
      let body_arr = Hashtbl.fold (fun b () l -> b :: l) body [] |> Array.of_list in
      Array.sort compare body_arr;
      let callees = Hashtbl.create 4 in
      let static_bytes = ref 0 in
      Array.iter
        (fun b ->
          let blk = Graph.block g b in
          static_bytes := !static_bytes + blk.Block.size;
          match blk.Block.call with
          | Some callee -> Hashtbl.replace callees callee ()
          | None -> ())
        body_arr;
      let calls_routines =
        Hashtbl.fold (fun c () l -> c :: l) callees [] |> Array.of_list
      in
      Array.sort compare calls_routines;
      {
        header;
        body = body_arr;
        back_edges = Array.of_list back_edges;
        routine = r.Routine.id;
        calls_routines;
        static_bytes = !static_bytes;
      }
      :: acc)
    by_header []

let find g =
  let acc = ref [] in
  Graph.iter_routines g (fun r -> acc := find_in_routine g r @ !acc);
  (* Stable order: by header block id. *)
  List.sort (fun a b -> compare a.header b.header) !acc

let blocks_in_loops g loops =
  let marks = Array.make (Graph.block_count g) false in
  List.iter (fun l -> Array.iter (fun b -> marks.(b) <- true) l.body) loops;
  marks
