type stamp = string Atomic.t

type t = {
  block : float array;
  arc : float array;
  total_blocks : float;
  invocations : float;
  stamp : stamp;  (* "" until the first {!digest} *)
}

let make ~block ~arc ~total_blocks ~invocations =
  { block; arc; total_blocks; invocations; stamp = Atomic.make "" }

let of_counts ~block ~arc ~invocations =
  make ~block ~arc ~total_blocks:(Array.fold_left ( +. ) 0.0 block) ~invocations

(* Nothing can write a profile's counts, so its digest is computed once;
   racing first calls compute the same string. *)
let digest t =
  match Atomic.get t.stamp with
  | "" ->
      let d = Memo.digest (t.block, t.arc, t.total_blocks, t.invocations) in
      Atomic.set t.stamp d;
      d
  | d -> d

let capture ~program ~workload ~words ~seed =
  let counts = Engine.counts program in
  let trace, stats = Engine.run ~program ~workload ~words ~seed ~counts in
  (* The run's count arrays become the profiles: nothing else holds them. *)
  let invocations = float_of_int (Array.fold_left ( + ) 0 stats.Engine.invocations) in
  let profile image block =
    of_counts ~block ~arc:counts.Engine.arcs.(image)
      ~invocations:(if Program.is_os image then invocations else 0.0)
  in
  (trace, stats, Array.mapi profile counts.Engine.blocks)

let factor t target = if t.total_blocks > 0.0 then target /. t.total_blocks else 0.0

let scale_to t target =
  let k = factor t target in
  make
    ~block:(Array.map (fun x -> x *. k) t.block)
    ~arc:(Array.map (fun x -> x *. k) t.arc)
    ~total_blocks:(t.total_blocks *. k) ~invocations:(t.invocations *. k)

let average = function
  | [] -> invalid_arg "Profile.average: empty list"
  | first :: _ as profiles ->
      let block = Array.make (Array.length first.block) 0.0 in
      let arc = Array.make (Array.length first.arc) 0.0 in
      let total_blocks = ref 0.0 and invocations = ref 0.0 in
      (* [+= k * src], rounding each product before the sum exactly as
         adding a [scale_to] copy would, without allocating the copy. *)
      List.iter
        (fun src ->
          if Array.length src.block <> Array.length block then
            invalid_arg "Profile.average: shape mismatch";
          let k = factor src 1_000_000.0 in
          Array.iteri (fun i x -> block.(i) <- block.(i) +. (x *. k)) src.block;
          Array.iteri (fun i x -> arc.(i) <- arc.(i) +. (x *. k)) src.arc;
          total_blocks := !total_blocks +. (src.total_blocks *. k);
          invocations := !invocations +. (src.invocations *. k))
        profiles;
      let n = float_of_int (List.length profiles) in
      scale_to
        (make ~block ~arc ~total_blocks:!total_blocks ~invocations:!invocations)
        (!total_blocks /. n)

let executed t b = t.block.(b) > 0.0

let block_fraction t b =
  if t.total_blocks > 0.0 then t.block.(b) /. t.total_blocks else 0.0

let arc_probability t g a =
  let src = (Graph.arc g a).Arc.src in
  if t.block.(src) > 0.0 then t.arc.(a) /. t.block.(src) else 0.0

let routine_invocations t g =
  Array.init (Graph.routine_count g) (fun r ->
      let entry = Graph.entry_of g r in
      let back =
        Array.fold_left
          (fun acc a -> acc +. t.arc.(a))
          0.0 (Graph.in_arcs g entry)
      in
      Float.max 0.0 (t.block.(entry) -. back))

let executed_routine_count t g =
  let n = ref 0 in
  Graph.iter_routines g (fun r ->
      if Array.exists (fun b -> executed t b) r.Routine.blocks then incr n);
  !n

let executed_block_count t =
  Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 t.block

let executed_bytes t g =
  Graph.fold_blocks g ~init:0 ~f:(fun acc b ->
      if executed t b.Block.id then acc + b.Block.size else acc)

let dynamic_words t g =
  Graph.fold_blocks g ~init:0.0 ~f:(fun acc b ->
      acc +. (t.block.(b.Block.id) *. float_of_int (Block.instruction_words b)))
