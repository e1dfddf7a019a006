(* Pettis-Hansen profile-guided positioning (PLDI 1990), the successor of
   Chang-Hwu and the ancestor of today's BOLT/Propeller layouts.  Included
   as a second baseline beyond the paper's C-H comparison.

   Procedure ordering: an undirected call graph weighted by call-site
   execution counts; chains are merged from the heaviest edge down, trying
   the four end-to-end orientations and keeping the one that places the
   edge's two routines closest ("closest is best").

   Basic-block ordering: bottom-up chaining on the heaviest arcs (an arc
   extends a chain only tail-to-head), the entry chain first, remaining
   chains by weight, never-executed blocks last (the "fluff"). *)

(* ------------------------------------------------------------------ *)
(* Chains with 4-orientation merge                                    *)
(* ------------------------------------------------------------------ *)

(* A chain is a list of elements; [chain_of.(x)] is the chain identifier
   (union-find style, but we keep explicit lists since merges rebuild
   positions anyway). *)

let merge_closest a b u v =
  (* Concatenate chains [a] and [b] (each optionally reversed) minimizing
     the distance between elements [u] (in a) and [v] (in b). *)
  let pos l x =
    let rec go i = function
      | [] -> invalid_arg "merge_closest: element not in chain"
      | y :: _ when y = x -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 l
  in
  let candidates =
    [ (a, b); (List.rev a, b); (a, List.rev b); (List.rev a, List.rev b) ]
  in
  let score (x, y) =
    let n = List.length x in
    (n - 1 - pos x u) + pos y v
  in
  let best =
    List.fold_left
      (fun acc c -> match acc with
        | Some (s, _) when s <= score c -> acc
        | _ -> Some (score c, c))
      None candidates
  in
  match best with
  | Some (_, (x, y)) -> x @ y
  | None -> a @ b

let chain_order ~n ~edges =
  (* [edges]: (u, v, weight) with u <> v; returns all n elements, chains
     merged heaviest-edge-first, leftover singletons in index order. *)
  let chain_id = Array.init n (fun i -> i) in
  let chains = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace chains i [ i ]
  done;
  let find x = chain_id.(x) in
  let sorted =
    List.sort (fun (_, _, w1) (_, _, w2) -> compare w2 w1) edges
  in
  List.iter
    (fun (u, v, _) ->
      let cu = find u and cv = find v in
      if cu <> cv then begin
        let a = Hashtbl.find chains cu and b = Hashtbl.find chains cv in
        let merged = merge_closest a b u v in
        Hashtbl.remove chains cv;
        Hashtbl.replace chains cu merged;
        List.iter (fun x -> chain_id.(x) <- cu) merged
      end)
    sorted;
  (* Emit chains by total incident edge weight (heaviest first), then
     whatever remains in index order. *)
  let weight_of = Array.make n 0.0 in
  List.iter
    (fun (u, v, w) ->
      weight_of.(u) <- weight_of.(u) +. w;
      weight_of.(v) <- weight_of.(v) +. w)
    edges;
  let chain_weight c = List.fold_left (fun acc x -> acc +. weight_of.(x)) 0.0 c in
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) chains [] in
  let sorted_chains =
    List.sort
      (fun a b ->
        match compare (chain_weight b) (chain_weight a) with
        | 0 -> compare (List.hd a) (List.hd b)
        | c -> c)
      all
  in
  List.concat sorted_chains

(* ------------------------------------------------------------------ *)
(* Procedure ordering                                                 *)
(* ------------------------------------------------------------------ *)

let routine_order g p =
  let weights = Hashtbl.create 256 in
  Graph.iter_blocks g (fun blk ->
      match blk.Block.call with
      | Some callee when p.Profile.block.(blk.Block.id) > 0.0 ->
          let caller = blk.Block.routine in
          if caller <> callee then begin
            let key = (min caller callee, max caller callee) in
            let cur = Option.value ~default:0.0 (Hashtbl.find_opt weights key) in
            Hashtbl.replace weights key (cur +. p.Profile.block.(blk.Block.id))
          end
      | Some _ | None -> ());
  let edges =
    Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) weights []
  in
  chain_order ~n:(Graph.routine_count g) ~edges

(* ------------------------------------------------------------------ *)
(* Basic-block ordering (bottom-up chaining)                          *)
(* ------------------------------------------------------------------ *)

let intra_routine_order g p (r : Routine.t) =
  let blocks = r.Routine.blocks in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i b -> Hashtbl.replace index b i) blocks;
  let n = Array.length blocks in
  (* Chains over local indices; merge tail-to-head only (P-H block
     chaining preserves fall-through direction). *)
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let arcs = ref [] in
  Array.iter
    (fun b ->
      Array.iter
        (fun a ->
          let arc = Graph.arc g a in
          if p.Profile.arc.(a) > 0.0 && arc.Arc.src <> arc.Arc.dst then
            arcs :=
              ( Hashtbl.find index arc.Arc.src,
                Hashtbl.find index arc.Arc.dst,
                p.Profile.arc.(a) )
              :: !arcs)
        (Graph.out_arcs g b))
    blocks;
  let sorted = List.sort (fun (_, _, w1) (_, _, w2) -> compare w2 w1) !arcs in
  let rec chain_head i = if prev.(i) >= 0 then chain_head prev.(i) else i in
  List.iter
    (fun (s, d, _) ->
      if next.(s) < 0 && prev.(d) < 0 && chain_head s <> chain_head d then begin
        next.(s) <- d;
        prev.(d) <- s
      end)
    sorted;
  (* Chain weights for ordering. *)
  let weight = Array.make n 0.0 in
  Array.iteri (fun i b -> weight.(i) <- p.Profile.block.(b)) blocks;
  let chain_of_head h =
    let rec go acc i = if i < 0 then List.rev acc else go (i :: acc) next.(i) in
    go [] h
  in
  let heads = ref [] in
  for i = 0 to n - 1 do
    if prev.(i) < 0 then heads := i :: !heads
  done;
  let entry_idx = Hashtbl.find index r.Routine.entry in
  let entry_head = chain_head entry_idx in
  let chain_weight h =
    List.fold_left (fun acc i -> acc +. weight.(i)) 0.0 (chain_of_head h)
  in
  let executed_heads, fluff_heads =
    List.partition (fun h -> chain_weight h > 0.0) (List.rev !heads)
  in
  let rest =
    List.sort
      (fun a b -> compare (chain_weight b) (chain_weight a))
      (List.filter (fun h -> h <> entry_head) executed_heads)
  in
  let order =
    List.concat_map chain_of_head
      ((entry_head :: rest) @ List.filter (fun h -> h <> entry_head) fluff_heads)
  in
  List.map (fun i -> blocks.(i)) order

(* ------------------------------------------------------------------ *)
(* Layout                                                             *)
(* ------------------------------------------------------------------ *)

let layout g p =
  Address_map.back_to_back g
    (Seq.concat_map
       (fun rid -> List.to_seq (intra_routine_order g p (Graph.routine g rid)))
       (List.to_seq (routine_order g p)))
    ~region:(fun b ->
      if p.Profile.block.(b) > 0.0 then Address_map.Main_seq else Address_map.Cold)
