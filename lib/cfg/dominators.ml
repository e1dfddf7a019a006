type t = {
  rpo : Block.id array;
  rpo_index : (Block.id, int) Hashtbl.t; (* reachable blocks only *)
  idom : Block.id array; (* indexed by rpo position; idom.(0) = entry *)
}

let postorder g (r : Routine.t) =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.add visited b ();
      Array.iter (fun a -> dfs (Graph.arc g a).Arc.dst) (Graph.out_arcs g b);
      order := b :: !order
    end
  in
  dfs r.Routine.entry;
  (* [order] is reverse postorder already (postorder consed). *)
  Array.of_list !order

let compute g (r : Routine.t) =
  let rpo = postorder g r in
  let n = Array.length rpo in
  let rpo_index = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.add rpo_index b i) rpo;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect i j =
    let i = ref i and j = ref j in
    while !i <> !j do
      while !i > !j do
        i := idom.(!i)
      done;
      while !j > !i do
        j := idom.(!j)
      done
    done;
    !i
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let b = rpo.(i) in
      let new_idom = ref (-1) in
      Array.iter
        (fun a ->
          let p = (Graph.arc g a).Arc.src in
          match Hashtbl.find_opt rpo_index p with
          | None -> () (* unreachable predecessor *)
          | Some pi ->
              if idom.(pi) >= 0 then
                new_idom := if !new_idom < 0 then pi else intersect pi !new_idom)
        (Graph.in_arcs g b);
      if !new_idom >= 0 && idom.(i) <> !new_idom then begin
        idom.(i) <- !new_idom;
        changed := true
      end
    done
  done;
  { rpo; rpo_index; idom }

let reachable t b = Hashtbl.mem t.rpo_index b

let idom t b =
  match Hashtbl.find_opt t.rpo_index b with
  | None -> None
  | Some i -> if i = 0 then None else Some t.rpo.(t.idom.(i))

let dominates t a b =
  match Hashtbl.find_opt t.rpo_index b with
  | None -> false
  | Some bi -> (
      match Hashtbl.find_opt t.rpo_index a with
      | None -> false
      | Some ai ->
          let rec climb i = if i = ai then true else if i = 0 then false else climb t.idom.(i) in
          climb bi)
