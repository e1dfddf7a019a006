type chooser = Block.id -> Arc.id array -> Arc.id option

type t = {
  graph : Graph.t;
  arc_prob : float array;
  prng : Prng.t;
  choose : chooser;
  arc_counts : float array;
  mutable current : Block.id;
  mutable running : bool;
  stack : Block.id Stack.t;
}

let no_choice _ _ = None

let create ~graph ~arc_prob ~prng ?(choose = no_choice) ~arc_counts () =
  if Array.length arc_counts <> Graph.arc_count graph then
    invalid_arg "Walker.create: arc_counts is not one slot per arc";
  {
    graph;
    arc_prob;
    prng;
    choose;
    arc_counts;
    current = 0;
    running = false;
    stack = Stack.create ();
  }

let start t entry =
  Stack.clear t.stack;
  t.current <- entry;
  t.running <- true

let active t = t.running

let pick_arc t b arcs =
  match t.choose b arcs with
  | Some a -> a
  | None ->
      let n = Array.length arcs in
      if n = 1 then arcs.(0)
      else begin
        let u = Prng.unit_float t.prng in
        let rec scan i acc =
          if i = n - 1 then arcs.(i)
          else
            let acc = acc +. t.arc_prob.(arcs.(i)) in
            if u < acc then arcs.(i) else scan (i + 1) acc
        in
        scan 0 0.0
      end

(* After block [b] finishes (including any callee), decide where control
   goes: its arcs, or on exit pop back to the caller. *)
let rec resume t b =
  let arcs = Graph.out_arcs t.graph b in
  if Array.length arcs = 0 then begin
    if Stack.is_empty t.stack then t.running <- false
    else resume t (Stack.pop t.stack)
  end
  else begin
    let a = pick_arc t b arcs in
    t.arc_counts.(a) <- t.arc_counts.(a) +. 1.0;
    t.current <- (Graph.arc t.graph a).Arc.dst
  end

let step t =
  if not t.running then None
  else begin
    let b = t.current in
    (match (Graph.block t.graph b).Block.call with
    | Some callee ->
        Stack.push b t.stack;
        t.current <- Graph.entry_of t.graph callee
    | None -> resume t b);
    Some b
  end

let depth t = Stack.length t.stack
