(* What pass 1 of {!emit} leaves for pass 2 at hot position [i]: the
   blocks hanging off it (a loop body or a cold chain) are the [len.(i)]
   consecutive ids from [first.(i)] (-1: none), as the builder numbers
   blocks in the order they are added.  A cold chain may return
   early, and may hold a cold loop of [loop_body.(i)] blocks from chain
   index [loop_at.(i)] (-1: none) with [loop_iters.(i)] mean iterations.
   One plan serves every routine of a sink, grown to the longest hot
   path. *)
type plan = {
  first : int array;
  len : int array;
  exits_early : bool array;
  loop_at : int array;
  loop_body : int array;
  loop_iters : int array;
}

let plan n =
  {
    first = Array.make n (-1);
    len = Array.make n 0;
    exits_early = Array.make n false;
    loop_at = Array.make n (-1);
    loop_body = Array.make n 0;
    loop_iters = Array.make n 0;
  }

(* [probs] is indexed by arc id; nan marks an arc given no probability. *)
type sink = {
  builder : Graph.builder;
  prng : Prng.t;
  mutable probs : float array;
  mutable plan : plan;
}

let sink builder prng =
  { builder; prng; probs = Array.make 256 Float.nan; plan = plan 32 }

let grow_probs s arc =
  let len = Array.length s.probs in
  let probs = Array.make (max (2 * len) (arc + 1)) Float.nan in
  Array.blit s.probs 0 probs 0 len;
  s.probs <- probs

(* The first probability recorded for an arc is the one it keeps.
   Inlined so a computed probability reaches the array unboxed. *)
let[@inline] set_arc_probability s arc p =
  if arc >= Array.length s.probs then grow_probs s arc;
  if Float.is_nan s.probs.(arc) then s.probs.(arc) <- p

let arc_probabilities s ~graph =
  let n = Graph.arc_count graph in
  let probs = Array.make n (-1.0) in
  for a = 0 to min n (Array.length s.probs) - 1 do
    let p = s.probs.(a) in
    if not (Float.is_nan p) then probs.(a) <- p
  done;
  (* Default the rest: uniform share of the mass not claimed explicitly. *)
  for b = 0 to Graph.block_count graph - 1 do
    let arcs = Graph.out_arcs graph b in
    let claimed = ref 0.0 and unclaimed = ref 0 in
    for i = 0 to Array.length arcs - 1 do
      let p = probs.(arcs.(i)) in
      if p < 0.0 then incr unclaimed else claimed := !claimed +. p
    done;
    if !unclaimed > 0 then begin
      let share = Float.max 0.0 (1.0 -. !claimed) /. float_of_int !unclaimed in
      for i = 0 to Array.length arcs - 1 do
        if probs.(arcs.(i)) < 0.0 then probs.(arcs.(i)) <- share
      done
    end
  done;
  probs

type loop_shape = {
  body_blocks : int;
  mean_iterations : float;
  loop_call : Routine.id option;
}

type shape = {
  routine : Routine.id;
  hot_len : int;
  calls : (int * Routine.id) list;
  loops : (int * loop_shape) list;
  cold_detour_prob : float;
  cold_len : Dist.t;
  cold_call_pool : Routine.id array;
  cold_call_prob : float;
  cold_exit_prob : float;
  cold_loop_prob : float;
  hot_size : Dist.t;
  cold_size : Dist.t;
}

(* Sizes are multiples of the 4-byte instruction word.  2..9 words uniform
   gives a 22-byte mean, matching the paper's 21.3-byte average block. *)
let hot_size_dist = Dist.scaled (Dist.uniform_int 2 9) 4.0

(* Cold special-case code tends to be bulkier straight-line blocks. *)
let cold_size_dist = Dist.scaled (Dist.uniform_int 3 13) 4.0

let[@inline] cold_take_probability g =
  let exponent = -4.0 +. (Prng.unit_float g *. 3.2) in
  Float.pow 10.0 exponent

let default_shape ~routine =
  {
    routine;
    hot_len = 8;
    calls = [];
    loops = [];
    cold_detour_prob = 0.45;
    cold_len = Dist.uniform_int 1 4;
    cold_call_pool = [||];
    cold_call_prob = 0.15;
    cold_exit_prob = 0.3;
    cold_loop_prob = 0.25;
    hot_size = hot_size_dist;
    cold_size = cold_size_dist;
  }

let validate shape =
  if shape.hot_len < 1 then invalid_arg "Routine_gen.emit: hot_len < 1";
  List.iter
    (fun (i, l) ->
      if i < 0 || i >= shape.hot_len - 1 then
        invalid_arg "Routine_gen.emit: loop position out of range";
      if l.body_blocks < 1 then invalid_arg "Routine_gen.emit: empty loop body";
      if l.mean_iterations < 1.0 then
        invalid_arg "Routine_gen.emit: mean_iterations < 1";
      if List.mem_assoc i shape.calls then
        invalid_arg "Routine_gen.emit: loop and call share a position")
    shape.loops;
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= shape.hot_len then
        invalid_arg "Routine_gen.emit: call position out of range")
    shape.calls

let add_block bld routine size call =
  Graph.add_block bld ~routine ~size:(max Block.word_bytes size) ?call ()

let[@inline] arc s ~src ~dst kind p =
  set_arc_probability s (Graph.add_arc s.builder ~src ~dst kind) p

(* A cold detour's cold loop (the plan's [loop_*] fields) is a one- or
   two-block span of the chain that iterates: special-case code scanning
   a table or retrying an operation.  These populate the executed-loop census of Figures 4-5
   without perturbing the hot paths; when the span covers the chain's
   call block the loop is a (cold) loop with procedure calls. *)
let emit s shape =
  validate shape;
  let g = s.prng and bld = s.builder and r = shape.routine in
  if Array.length s.plan.first < shape.hot_len then s.plan <- plan shape.hot_len;
  let p = s.plan in
  let hot = Array.make shape.hot_len (-1) in
  (* Pass 1: create blocks in text order. *)
  for i = 0 to shape.hot_len - 1 do
    hot.(i) <- add_block bld r (Dist.sample shape.hot_size g) (List.assoc_opt i shape.calls);
    p.first.(i) <- -1;
    match List.assoc_opt i shape.loops with
    | Some l ->
        for j = 0 to l.body_blocks - 1 do
          let call = if j = 0 then l.loop_call else None in
          let b = add_block bld r (Dist.sample shape.hot_size g) call in
          if j = 0 then p.first.(i) <- b
        done;
        p.len.(i) <- l.body_blocks
    | None ->
        (* Cold detours only make sense where there is a join point and no
           loop already occupies the position. *)
        if i < shape.hot_len - 1 && Prng.bernoulli g shape.cold_detour_prob then begin
          let len = max 1 (Dist.sample shape.cold_len g) in
          let call_at =
            if
              Array.length shape.cold_call_pool > 0
              && Prng.bernoulli g shape.cold_call_prob
            then Prng.int g len
            else -1
          in
          for j = 0 to len - 1 do
            let call =
              if j = call_at then Some (Prng.choose g shape.cold_call_pool) else None
            in
            let b = add_block bld r (Dist.sample shape.cold_size g) call in
            if j = 0 then p.first.(i) <- b
          done;
          p.len.(i) <- len;
          let exits_early = Prng.bernoulli g shape.cold_exit_prob in
          p.exits_early.(i) <- exits_early;
          p.loop_at.(i) <- -1;
          (* The loop latch must keep an arc to the rest of the chain: an
             early-exiting chain's last block cannot be a latch (its only
             arc would be the self-arc, and a lone arc is always taken).
             Iterations over a call block are capped low so the cold-call
             branching process stays subcritical. *)
          if Prng.bernoulli g shape.cold_loop_prob then begin
            let body = if len >= 2 && Prng.bernoulli g 0.4 then 2 else 1 in
            let last_ok = if exits_early then len - 2 else len - 1 in
            let max_at = last_ok - (body - 1) in
            if max_at >= 0 then begin
              let at = Prng.int g (max_at + 1) in
              let covers_call = call_at >= at && call_at < at + body in
              p.loop_at.(i) <- at;
              p.loop_body.(i) <- body;
              p.loop_iters.(i) <- (if covers_call then 2 + Prng.int g 2 else 2 + Prng.int g 11)
            end
          end
        end
  done;
  (* Pass 2: arcs and probabilities. *)
  for i = 0 to shape.hot_len - 2 do
    let next = hot.(i + 1) and first = p.first.(i) in
    match List.assoc_opt i shape.loops with
    | Some l ->
        let latch = first + l.body_blocks - 1 in
        arc s ~src:hot.(i) ~dst:first Arc.Fallthrough 1.0;
        for b = first to latch - 1 do
          arc s ~src:b ~dst:(b + 1) Arc.Fallthrough 1.0
        done;
        let q = 1.0 -. (1.0 /. l.mean_iterations) in
        arc s ~src:latch ~dst:hot.(i) Arc.Taken q;
        arc s ~src:latch ~dst:next Arc.Fallthrough (1.0 -. q)
    | None when first < 0 -> arc s ~src:hot.(i) ~dst:next Arc.Fallthrough 1.0
    | None ->
        let pc = cold_take_probability g in
        arc s ~src:hot.(i) ~dst:next Arc.Taken (1.0 -. pc);
        arc s ~src:hot.(i) ~dst:first Arc.Fallthrough pc;
        let last = first + p.len.(i) - 1 in
        let at = p.loop_at.(i) in
        let latch = if at < 0 then -1 else first + at + p.loop_body.(i) - 1 in
        (* The latch block carries the back edge; its forward arc gets the
           remaining probability mass. *)
        for b = first to last do
          let forward =
            if b = latch then begin
              let q = 1.0 -. (1.0 /. float_of_int p.loop_iters.(i)) in
              arc s ~src:b ~dst:(first + at) Arc.Taken q;
              1.0 -. q
            end
            else 1.0
          in
          if b < last then arc s ~src:b ~dst:(b + 1) Arc.Fallthrough forward
          else if not p.exits_early.(i) then arc s ~src:b ~dst:next Arc.Taken forward
        done
  done;
  hot
