(* Layout explorer: where does the hot kernel code end up?

   This example profiles the four paper workloads on the calibrated
   kernel, builds the OptS layout, and then dissects it: the hottest
   routines, the SelfConfFree area contents, the sequences grown from
   each of the four seeds, and the byte budget of each layout region.

   Run with:  dune exec examples/layout_explorer.exe *)

let () =
  let ctx = Context.create ~spec:Spec.small ~words:400_000 ~seed:11 () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let profile = ctx.Context.avg_os_profile in

  (* The ten most frequently invoked routines (paper, Section 3.2.3: tiny
     utilities such as lock handling and timer management dominate). *)
  print_endline "== Ten most invoked OS routines ==";
  List.iter
    (fun (r, count) ->
      Printf.printf "  %-24s %10.0f invocations\n" (Model.routine_name model r) count)
    (Popularity.top_routines profile g ~n:10);

  (* Build the OptS layout and dissect it. *)
  let r =
    Opt.os_layout ~model ~profile ~loops:(Context.os_loops ctx) (Opt.params ())
  in
  Printf.printf "\n== SelfConfFree area: %d bytes, %d blocks ==\n" r.Opt.scf_bytes
    (List.length r.Opt.scf_blocks);
  let by_routine = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let routine = Graph.routine_of_block g b in
      let n = Option.value ~default:0 (Hashtbl.find_opt by_routine routine) in
      Hashtbl.replace by_routine routine (n + 1))
    r.Opt.scf_blocks;
  Hashtbl.iter
    (fun routine n ->
      Printf.printf "  %-24s %d block%s\n" (Model.routine_name model routine) n
        (if n = 1 then "" else "s"))
    by_routine;

  print_endline "\n== Sequences (pass thresholds -> blocks, bytes) ==";
  List.iter
    (fun (s : Sequence.t) ->
      Printf.printf "  %-10s ExecThresh=%-8g BranchThresh=%-5g %5d blocks %7d bytes\n"
        (Service.to_string s.Sequence.pass.Schedule.service)
        s.Sequence.pass.Schedule.exec_thresh s.Sequence.pass.Schedule.branch_thresh
        (Array.length s.Sequence.blocks) s.Sequence.bytes)
    r.Opt.sequences;

  (* Region census: how many bytes land in each region of Figure 10. *)
  print_endline "\n== Region byte budget ==";
  let census = Hashtbl.create 8 in
  Graph.iter_blocks g (fun blk ->
      let region = Address_map.region_to_string (Address_map.region r.Opt.map blk.Block.id) in
      let bytes = Option.value ~default:0 (Hashtbl.find_opt census region) in
      Hashtbl.replace census region (bytes + blk.Block.size));
  Hashtbl.iter (fun region bytes -> Printf.printf "  %-14s %8d bytes\n" region bytes) census;
  Printf.printf "  %-14s %8d bytes\n" "(total image)" (Address_map.extent r.Opt.map)
