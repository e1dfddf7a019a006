open Helpers

(* ------------------------------------------------------------------ *)
(* Block                                                              *)
(* ------------------------------------------------------------------ *)

let test_block_words () =
  let d = diamond () in
  let b = Graph.block d.g d.entry in
  check_int "16 bytes = 4 words" 4 (Block.instruction_words b);
  check_int "word size" 4 Block.word_bytes;
  let small = { b with Block.size = 2 } in
  check_int "at least 1 word" 1 (Block.instruction_words small)

let test_block_ends_in_call () =
  let lc = loop_call () in
  check_bool "call block" true (Block.ends_in_call (Graph.block lc.g lc.c2));
  check_bool "plain block" false (Block.ends_in_call (Graph.block lc.g lc.c0))

(* ------------------------------------------------------------------ *)
(* Graph builder and queries                                          *)
(* ------------------------------------------------------------------ *)

let test_graph_counts () =
  let d = diamond () in
  check_int "blocks" 4 (Graph.block_count d.g);
  check_int "arcs" 4 (Graph.arc_count d.g);
  check_int "routines" 1 (Graph.routine_count d.g)

let test_graph_entry () =
  let d = diamond () in
  check_int "first block is entry" d.entry (Graph.entry_of d.g d.routine)

let test_graph_out_in_arcs () =
  let d = diamond () in
  let outs = Graph.out_arcs d.g d.entry in
  check_int "entry has 2 out arcs" 2 (Array.length outs);
  check_int "insertion order" d.arc_ea outs.(0);
  check_int "insertion order 2" d.arc_eb outs.(1);
  check_int "exit in-arcs" 2 (Array.length (Graph.in_arcs d.g d.exit_));
  check_int "exit out-arcs" 0 (Array.length (Graph.out_arcs d.g d.exit_))

let test_graph_is_exit () =
  let d = diamond () in
  check_bool "exit block" true (Graph.is_exit d.g d.exit_);
  check_bool "entry not exit" false (Graph.is_exit d.g d.entry)

let test_graph_code_bytes () =
  let d = diamond () in
  check_int "code bytes" (16 + 24 + 8 + 12) (Graph.code_bytes d.g)

(* The sizes array and the digest are built at most once per graph and
   shared by every caller; equal content gives equal digests. *)
let test_graph_identity () =
  let d = diamond () in
  Alcotest.(check (array int)) "block sizes" (sizes_of d.g) (Graph.block_sizes d.g);
  check_bool "sizes array shared" true (Graph.block_sizes d.g == Graph.block_sizes d.g);
  let first = Graph.digest d.g in
  check_bool "digest stored on first use" true (first == Graph.digest d.g);
  check_string "equal graphs, equal digests" first (Graph.digest (diamond ()).g);
  check_bool "other graph, other digest" false
    (String.equal first (Graph.digest (loop_call ()).g))

let test_graph_routine_of_block () =
  let lc = loop_call () in
  check_int "caller block" lc.caller (Graph.routine_of_block lc.g lc.c0);
  check_int "callee block" lc.callee (Graph.routine_of_block lc.g lc.l0)

let test_graph_callers () =
  let lc = loop_call () in
  let cs = Graph.callers lc.g lc.callee in
  check_int "one caller block" 1 (Array.length cs);
  check_int "it is c2" lc.c2 cs.(0);
  check_int "caller has no callers" 0 (Array.length (Graph.callers lc.g lc.caller))

let test_graph_iterators () =
  let d = diamond () in
  let blocks = ref 0 and arcs = ref 0 and routines = ref 0 in
  Graph.iter_blocks d.g (fun _ -> incr blocks);
  Graph.iter_arcs d.g (fun _ -> incr arcs);
  Graph.iter_routines d.g (fun _ -> incr routines);
  check_int "iter blocks" 4 !blocks;
  check_int "iter arcs" 4 !arcs;
  check_int "iter routines" 1 !routines;
  let total = Graph.fold_blocks d.g ~init:0 ~f:(fun acc b -> acc + b.Block.size) in
  check_int "fold sums sizes" (Graph.code_bytes d.g) total

let test_graph_invalid_size () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  check_raises_invalid "zero size" (fun () ->
      Graph.add_block bld ~routine:r ~size:0 ());
  check_raises_invalid "negative size" (fun () ->
      Graph.add_block bld ~routine:r ~size:(-4) ());
  (* A rejected block takes no id. *)
  check_int "next id" 0 (Graph.add_block bld ~routine:r ~size:4 ())

let test_graph_unknown_block_arc () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let b = Graph.add_block bld ~routine:r ~size:4 () in
  check_raises_invalid "unknown dst" (fun () ->
      Graph.add_arc bld ~src:b ~dst:(b + 1) Arc.Taken);
  check_raises_invalid "unknown src" (fun () ->
      Graph.add_arc bld ~src:(-1) ~dst:b Arc.Taken);
  (* A rejected arc takes no id. *)
  check_int "next id" 0 (Graph.add_arc bld ~src:b ~dst:b Arc.Taken)

(* Calls may name routines declared after the calling block, so the
   callee is checked at the freeze. *)
let test_graph_undeclared_callee () =
  List.iter
    (fun callee ->
      let bld = Graph.builder () in
      let r = Graph.declare_routine bld "r" in
      ignore (Graph.add_block bld ~routine:r ~size:4 ~call:callee ());
      check_raises_invalid "call to undeclared routine" (fun () -> Graph.freeze bld))
    [ 1; -1 ];
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let b = Graph.add_block bld ~routine:r ~size:4 ~call:1 () in
  let later = Graph.declare_routine bld "later" in
  ignore (Graph.add_block bld ~routine:later ~size:4 ());
  let g = Graph.freeze bld in
  Alcotest.(check (array int)) "forward call" [| b |] (Graph.callers g later)

let test_graph_cross_routine_arc () =
  let bld = Graph.builder () in
  let r1 = Graph.declare_routine bld "r1" in
  let r2 = Graph.declare_routine bld "r2" in
  let b1 = Graph.add_block bld ~routine:r1 ~size:4 () in
  let b2 = Graph.add_block bld ~routine:r2 ~size:4 () in
  check_raises_invalid "cross-routine arc" (fun () ->
      Graph.add_arc bld ~src:b1 ~dst:b2 Arc.Taken)

let test_graph_empty_routine_rejected () =
  let bld = Graph.builder () in
  let _r = Graph.declare_routine bld "empty" in
  check_raises_invalid "freeze with empty routine" (fun () -> Graph.freeze bld)

let test_graph_unknown_routine_block () =
  let bld = Graph.builder () in
  check_raises_invalid "unknown routine" (fun () ->
      Graph.add_block bld ~routine:3 ~size:4 ())

let test_routine_block_count () =
  let lc = loop_call () in
  check_int "caller blocks" 5 (Array.length (Graph.routine lc.g lc.caller).Routine.blocks);
  check_int "callee blocks" 2 (Array.length (Graph.routine lc.g lc.callee).Routine.blocks)

(* ------------------------------------------------------------------ *)
(* Dominators                                                         *)
(* ------------------------------------------------------------------ *)

let test_dominators_diamond () =
  let d = diamond () in
  let dom = Dominators.compute d.g (Graph.routine d.g d.routine) in
  check_bool "entry has no idom" true (Dominators.idom dom d.entry = None);
  Alcotest.(check (option int)) "idom a = entry" (Some d.entry) (Dominators.idom dom d.a);
  Alcotest.(check (option int)) "idom b = entry" (Some d.entry) (Dominators.idom dom d.b);
  Alcotest.(check (option int)) "idom exit = entry (not a or b)" (Some d.entry)
    (Dominators.idom dom d.exit_)

let test_dominators_relation () =
  let d = diamond () in
  let dom = Dominators.compute d.g (Graph.routine d.g d.routine) in
  check_bool "entry dominates all" true
    (Dominators.dominates dom d.entry d.exit_
    && Dominators.dominates dom d.entry d.a
    && Dominators.dominates dom d.entry d.b);
  check_bool "reflexive" true (Dominators.dominates dom d.a d.a);
  check_bool "a does not dominate exit" false (Dominators.dominates dom d.a d.exit_)

let test_dominators_chain () =
  let lc = loop_call () in
  let dom = Dominators.compute lc.g (Graph.routine lc.g lc.caller) in
  check_bool "c1 dominates c3" true (Dominators.dominates dom lc.c1 lc.c3);
  check_bool "c1 dominates c4" true (Dominators.dominates dom lc.c1 lc.c4);
  Alcotest.(check (option int)) "idom c1 = c0" (Some lc.c0) (Dominators.idom dom lc.c1)

let test_dominators_unreachable () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let e = Graph.add_block bld ~routine:r ~size:4 () in
  let orphan = Graph.add_block bld ~routine:r ~size:4 () in
  let g = Graph.freeze bld in
  let dom = Dominators.compute g (Graph.routine g r) in
  check_bool "entry reachable" true (Dominators.reachable dom e);
  check_bool "orphan unreachable" false (Dominators.reachable dom orphan);
  check_bool "nothing dominates unreachable" false (Dominators.dominates dom e orphan)

(* ------------------------------------------------------------------ *)
(* Loops                                                              *)
(* ------------------------------------------------------------------ *)

let test_loops_none_in_diamond () =
  let d = diamond () in
  check_int "diamond has no loops" 0 (List.length (Loops.find d.g))

let test_loops_natural () =
  let lc = loop_call () in
  match Loops.find lc.g with
  | [ l ] ->
      check_int "header" lc.c1 l.Loops.header;
      Alcotest.(check (array int)) "body = c1,c2,c3" [| lc.c1; lc.c2; lc.c3 |] l.Loops.body;
      check_int "routine" lc.caller l.Loops.routine;
      check_bool "has calls" true (Loops.has_calls l);
      Alcotest.(check (array int)) "calls callee" [| lc.callee |] l.Loops.calls_routines;
      check_int "static bytes" 48 l.Loops.static_bytes;
      check_int "one back edge" 1 (Array.length l.Loops.back_edges);
      check_int "the back edge" lc.back_edge l.Loops.back_edges.(0)
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let test_loops_contains () =
  let lc = loop_call () in
  let l = List.hd (Loops.find lc.g) in
  check_bool "header in body" true (Array.mem lc.c1 l.Loops.body);
  check_bool "c2 in body" true (Array.mem lc.c2 l.Loops.body);
  check_bool "c0 not in body" false (Array.mem lc.c0 l.Loops.body);
  check_bool "c4 not in body" false (Array.mem lc.c4 l.Loops.body)

let test_loops_self_loop () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let e = Graph.add_block bld ~routine:r ~size:4 () in
  let s = Graph.add_block bld ~routine:r ~size:4 () in
  let x = Graph.add_block bld ~routine:r ~size:4 () in
  ignore (Graph.add_arc bld ~src:e ~dst:s Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:s ~dst:s Arc.Taken);
  ignore (Graph.add_arc bld ~src:s ~dst:x Arc.Fallthrough);
  let g = Graph.freeze bld in
  match Loops.find g with
  | [ l ] ->
      check_int "self-loop header" s l.Loops.header;
      Alcotest.(check (array int)) "body is just s" [| s |] l.Loops.body;
      check_bool "no calls" false (Loops.has_calls l)
  | ls -> Alcotest.failf "expected one self-loop, got %d" (List.length ls)

let test_loops_shared_header_merged () =
  (* Two back edges to the same header from different paths: the standard
     construction merges them into one loop. *)
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let e = Graph.add_block bld ~routine:r ~size:4 () in
  let h = Graph.add_block bld ~routine:r ~size:4 () in
  let a = Graph.add_block bld ~routine:r ~size:4 () in
  let b = Graph.add_block bld ~routine:r ~size:4 () in
  let x = Graph.add_block bld ~routine:r ~size:4 () in
  ignore (Graph.add_arc bld ~src:e ~dst:h Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:h ~dst:a Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:h ~dst:b Arc.Taken);
  ignore (Graph.add_arc bld ~src:a ~dst:h Arc.Taken);
  ignore (Graph.add_arc bld ~src:b ~dst:h Arc.Taken);
  ignore (Graph.add_arc bld ~src:h ~dst:x Arc.Taken);
  let g = Graph.freeze bld in
  match Loops.find g with
  | [ l ] ->
      check_int "merged header" h l.Loops.header;
      Alcotest.(check (array int)) "merged body" [| h; a; b |] l.Loops.body;
      check_int "two back edges" 2 (Array.length l.Loops.back_edges)
  | ls -> Alcotest.failf "expected one merged loop, got %d" (List.length ls)

let test_loops_nested () =
  (* e -> h1 -> h2 -> b2 -> h2 (inner), b2 -> b1 -> h1 (outer), b1 -> x *)
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "r" in
  let blk () = Graph.add_block bld ~routine:r ~size:4 () in
  let e = blk () and h1 = blk () and h2 = blk () and b2 = blk () and b1 = blk ()
  and x = blk () in
  ignore (Graph.add_arc bld ~src:e ~dst:h1 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:h1 ~dst:h2 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:h2 ~dst:b2 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:b2 ~dst:h2 Arc.Taken);
  ignore (Graph.add_arc bld ~src:b2 ~dst:b1 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:b1 ~dst:h1 Arc.Taken);
  ignore (Graph.add_arc bld ~src:b1 ~dst:x Arc.Fallthrough);
  let g = Graph.freeze bld in
  let loops = Loops.find g in
  check_int "two loops" 2 (List.length loops);
  let inner = List.find (fun l -> l.Loops.header = h2) loops in
  let outer = List.find (fun l -> l.Loops.header = h1) loops in
  Alcotest.(check (array int)) "inner body" [| h2; b2 |] inner.Loops.body;
  Alcotest.(check (array int)) "outer contains inner" [| h1; h2; b2; b1 |] outer.Loops.body

let test_loops_find_in_routine () =
  let lc = loop_call () in
  check_int "loop in caller" 1
    (List.length (Loops.find_in_routine lc.g (Graph.routine lc.g lc.caller)));
  check_int "no loop in callee" 0
    (List.length (Loops.find_in_routine lc.g (Graph.routine lc.g lc.callee)))

let test_loops_blocks_in_loops () =
  let lc = loop_call () in
  let flags = Loops.blocks_in_loops lc.g (Loops.find lc.g) in
  check_bool "c1 flagged" true flags.(lc.c1);
  check_bool "c2 flagged" true flags.(lc.c2);
  check_bool "c0 unflagged" false flags.(lc.c0);
  check_bool "l0 unflagged" false flags.(lc.l0)

(* ------------------------------------------------------------------ *)
(* Properties on random CFGs                                          *)
(* ------------------------------------------------------------------ *)

(* A random single-routine CFG: n blocks along a spine (so everything is
   reachable), plus random forward and backward arcs. *)
let random_cfg_gen =
  QCheck.Gen.(
    let* n = 3 -- 25 in
    let* seed = 0 -- 10_000 in
    return (n, seed))

let build_random_cfg (n, seed) =
  let g = Prng.of_int seed in
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "rand" in
  let blocks =
    Array.init n (fun _ -> Graph.add_block bld ~routine:r ~size:(4 * (1 + Prng.int g 8)) ())
  in
  for i = 0 to n - 2 do
    ignore (Graph.add_arc bld ~src:blocks.(i) ~dst:blocks.(i + 1) Arc.Fallthrough);
    if Prng.bernoulli g 0.4 && i + 2 <= n - 1 then begin
      let dst = i + 2 + Prng.int g (n - i - 2) in
      ignore (Graph.add_arc bld ~src:blocks.(i) ~dst:blocks.(dst) Arc.Taken)
    end;
    if i > 0 && Prng.bernoulli g 0.25 then begin
      let dst = Prng.int g i in
      ignore (Graph.add_arc bld ~src:blocks.(i) ~dst:blocks.(dst) Arc.Taken)
    end
  done;
  (Graph.freeze bld, r, blocks)

let prop_entry_dominates_reachable =
  QCheck.Test.make ~name:"entry dominates every reachable block" ~count:100
    (QCheck.make random_cfg_gen) (fun spec ->
      let g, r, blocks = build_random_cfg spec in
      let dom = Dominators.compute g (Graph.routine g r) in
      Array.for_all
        (fun b ->
          (not (Dominators.reachable dom b)) || Dominators.dominates dom blocks.(0) b)
        blocks)

let prop_idom_dominates =
  QCheck.Test.make ~name:"idom strictly dominates its block" ~count:100
    (QCheck.make random_cfg_gen) (fun spec ->
      let g, r, blocks = build_random_cfg spec in
      let dom = Dominators.compute g (Graph.routine g r) in
      Array.for_all
        (fun b ->
          match Dominators.idom dom b with
          | None -> true
          | Some d -> d <> b && Dominators.dominates dom d b)
        blocks)

let prop_loop_bodies_well_formed =
  QCheck.Test.make ~name:"loop bodies contain their header, sorted" ~count:100
    (QCheck.make random_cfg_gen) (fun spec ->
      let g, _, _ = build_random_cfg spec in
      List.for_all
        (fun (l : Loops.t) ->
          Array.mem l.Loops.header l.Loops.body
          && l.Loops.static_bytes
             = Array.fold_left
                 (fun acc b -> acc + (Graph.block g b).Block.size)
                 0 l.Loops.body
          &&
          let sorted = Array.copy l.Loops.body in
          Array.sort compare sorted;
          sorted = l.Loops.body)
        (Loops.find g))

let prop_back_edges_enter_header =
  QCheck.Test.make ~name:"every back edge targets its loop header" ~count:100
    (QCheck.make random_cfg_gen) (fun spec ->
      let g, _, _ = build_random_cfg spec in
      List.for_all
        (fun (l : Loops.t) ->
          Array.for_all
            (fun a ->
              let arc = Graph.arc g a in
              arc.Arc.dst = l.Loops.header && Array.mem arc.Arc.src l.Loops.body)
            l.Loops.back_edges)
        (Loops.find g))

let () =
  Alcotest.run "cfg"
    [
      ( "block",
        [
          case "instruction words" test_block_words;
          case "ends_in_call" test_block_ends_in_call;
        ] );
      ( "graph",
        [
          case "counts" test_graph_counts;
          case "entry" test_graph_entry;
          case "out/in arcs" test_graph_out_in_arcs;
          case "is_exit" test_graph_is_exit;
          case "code bytes" test_graph_code_bytes;
          case "sizes and digest built once" test_graph_identity;
          case "routine_of_block" test_graph_routine_of_block;
          case "callers" test_graph_callers;
          case "iterators" test_graph_iterators;
          case "invalid size" test_graph_invalid_size;
          case "cross-routine arc" test_graph_cross_routine_arc;
          case "empty routine rejected" test_graph_empty_routine_rejected;
          case "unknown routine" test_graph_unknown_routine_block;
          case "arc to unknown block" test_graph_unknown_block_arc;
          case "call to undeclared routine" test_graph_undeclared_callee;
          case "routine block count" test_routine_block_count;
        ] );
      ( "dominators",
        [
          case "diamond" test_dominators_diamond;
          case "relation" test_dominators_relation;
          case "chain" test_dominators_chain;
          case "unreachable" test_dominators_unreachable;
          qcheck prop_entry_dominates_reachable;
          qcheck prop_idom_dominates;
        ] );
      ( "loops",
        [
          case "none in diamond" test_loops_none_in_diamond;
          case "natural loop" test_loops_natural;
          case "contains" test_loops_contains;
          case "self loop" test_loops_self_loop;
          case "shared header merged" test_loops_shared_header_merged;
          case "nested" test_loops_nested;
          case "find_in_routine" test_loops_find_in_routine;
          case "blocks_in_loops" test_loops_blocks_in_loops;
          qcheck prop_loop_bodies_well_formed;
          qcheck prop_back_edges_enter_header;
        ] );
    ]
