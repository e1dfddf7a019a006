type result = { pass1 : string list; pass2 : string list }

let expected_pass1 =
  [
    "push0"; "push1"; "push4"; "push8"; "read0"; "read1"; "read2"; "read3";
    "push9"; "push10"; "push11"; "push12"; "chk0"; "chk1"; "chk2"; "chk5";
    "push13"; "upd0"; "push14"; "push15"; "push17"; "push18"; "push19";
    "push16";
  ]

let expected_pass2 = [ "push5"; "push7" ]

(* Build the Figure 9 graph: block weights of 100 on the hot path, 30 on
   the push16 side path (so it passes ExecThresh = 0.01), 1 on the cold
   push5/push7 path, 0 on the pruned blocks. *)
let build () =
  let bld = Graph.builder () in
  let push = Graph.declare_routine bld "push_hrtime" in
  let read = Graph.declare_routine bld "read_hrc" in
  let chk = Graph.declare_routine bld "check_curtimer" in
  let upd = Graph.declare_routine bld "update_hrtimer" in
  let labels = Hashtbl.create 32 in
  let blk routine name ?call () =
    let b = Graph.add_block bld ~routine ~size:16 ?call () in
    Hashtbl.replace labels b name;
    b
  in
  let p = Array.init 20 (fun i ->
      let call =
        if i = 8 then Some read else if i = 12 then Some chk
        else if i = 13 then Some upd else None
      in
      blk push (Printf.sprintf "push%d" i) ?call ())
  in
  let r = Array.init 4 (fun i -> blk read (Printf.sprintf "read%d" i) ()) in
  let c = Array.init 6 (fun i -> blk chk (Printf.sprintf "chk%d" i) ()) in
  let u = blk upd "upd0" () in
  let weights = Hashtbl.create 32 in
  let arcs = ref [] in
  let arc src dst count =
    let a = Graph.add_arc bld ~src ~dst Arc.Taken in
    arcs := (a, count) :: !arcs
  in
  let w b v = Hashtbl.replace weights b (float_of_int v) in
  (* push_hrtime hot path. *)
  List.iter (fun i -> w p.(i) 100) [ 0; 1; 4; 8; 9; 10; 11; 12; 13; 14; 15; 17; 18; 19 ];
  w p.(16) 30;
  w p.(5) 1;
  w p.(7) 1;
  (* pruned: push2, push3, push6 stay at weight 0. *)
  arc p.(0) p.(1) 100;
  arc p.(1) p.(4) 100;
  arc p.(4) p.(8) 99;
  arc p.(4) p.(5) 1;
  arc p.(5) p.(7) 1;
  arc p.(8) p.(9) 100;
  arc p.(9) p.(10) 100;
  arc p.(10) p.(11) 100;
  arc p.(11) p.(12) 100;
  arc p.(12) p.(13) 100;
  arc p.(13) p.(14) 100;
  arc p.(14) p.(15) 100;
  arc p.(15) p.(17) 70;
  arc p.(15) p.(16) 30;
  arc p.(16) p.(17) 30;
  arc p.(17) p.(18) 100;
  arc p.(18) p.(19) 100;
  (* pruned arcs to unexecuted blocks. *)
  arc p.(1) p.(2) 0;
  arc p.(2) p.(3) 0;
  arc p.(4) p.(6) 0;
  (* read_hrc. *)
  Array.iter (fun b -> w b 100) r;
  arc r.(0) r.(1) 100;
  arc r.(1) r.(2) 100;
  arc r.(2) r.(3) 100;
  (* check_curtimer: hot 0,1,2,5; 3,4 pruned. *)
  List.iter (fun i -> w c.(i) 100) [ 0; 1; 2; 5 ];
  arc c.(0) c.(1) 100;
  arc c.(1) c.(2) 100;
  arc c.(2) c.(5) 100;
  arc c.(2) c.(3) 0;
  arc c.(3) c.(4) 0;
  (* update_hrtimer is the single block u. *)
  w u 100;
  let g = Graph.freeze bld in
  let block = Array.make (Graph.block_count g) 0.0 in
  Hashtbl.iter (fun b v -> block.(b) <- v) weights;
  let arc = Array.make (Graph.arc_count g) 0.0 in
  List.iter (fun (a, count) -> arc.(a) <- float_of_int count) !arcs;
  (g, Profile.of_counts ~block ~arc ~invocations:0.0, labels, p.(0))

let compute () =
  let g, profile, labels, seed = build () in
  let schedule =
    Schedule.uniform ~levels:[ (0.01, 0.1); (0.0, 0.0) ]
  in
  let seqs = Sequence.build ~graph:g ~profile ~seed_entry:(fun _ -> seed) ~schedule () in
  let label b = Hashtbl.find labels b in
  match seqs with
  | [ s1; s2 ] ->
      {
        pass1 = Array.to_list (Array.map label s1.Sequence.blocks);
        pass2 = Array.to_list (Array.map label s2.Sequence.blocks);
      }
  | other ->
      {
        pass1 =
          List.concat_map
            (fun (s : Sequence.t) -> Array.to_list (Array.map label s.Sequence.blocks))
            other;
        pass2 = [];
      }

let report _ctx =
  let r = compute () in
  let ok = r.pass1 = expected_pass1 && r.pass2 = expected_pass2 in
  Result.report ~id:"fig9" ~section:"Figure 9: worked sequence-placement example"
    [
      Result.note "pass (0.01, 0.1): %s" (String.concat " " r.pass1);
      Result.note "pass (0, 0):     %s" (String.concat " " r.pass2);
      Result.note "matches the paper's placement: %s" (if ok then "YES" else "NO");
      Result.paper "0 1 4 8 | read 0 1 2 3 | 9 10 11 12 | chk 0 1 2 5 | 13 | upd 0 |";
      Result.paper "14 15 17 18 19 | 16, then (0,0) places 5 and 7";
    ]
