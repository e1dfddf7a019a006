(* Shared fixtures for the test suites.

   Expensive artifacts (the small synthetic kernel, a traced context) are
   memoized so every suite in one executable reuses them. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let case name f = Alcotest.test_case name `Quick f

let qcheck cell = QCheck_alcotest.to_alcotest cell

(* Run [f] with [jobs] as the default domain count, restoring the old one
   afterwards. *)
let with_jobs jobs f =
  let saved = Parallel.default_jobs () in
  Parallel.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

(* ------------------------------------------------------------------ *)
(* One fetch at a time.                                               *)
(* ------------------------------------------------------------------ *)

(* A one-event trace of block [block] of [image], and a code map that
   places that block at [addr] with [bytes] bytes. *)
let one_event ~image ~block ~addr ~bytes =
  let trace = Trace.create ~capacity:1 () in
  Trace.append trace (Trace.Exec { image; block });
  let row v = Array.init (image + 1) (fun i -> Array.make (if i = image then block + 1 else 0) v) in
  let map = { Chunk.addr = row addr; bytes = row bytes } in
  (trace, map)

(* One fetch through a system or a cache, as a one-event replay pass:
   the planned stream and the kernels every replay runs.  Image 0 is the
   OS. *)
let system_access sys ~image ~block ~addr ~bytes =
  let trace, map = one_event ~image ~block ~addr ~bytes in
  Replay.run_range ~trace ~map ~systems:[| sys |] ~warmup:0

(* Zero a system's counters and miss store, keeping its contents, as a
   replay pass does at its warm-up boundary. *)
let system_reset sys = Array.iter (fun (s, _) -> Sim.reset_counters s) (System.caches sys)

(* Block [b]'s (cold, self, cross) misses in a Sim or System miss store. *)
let block_kinds store b = (store.(3 * b), store.((3 * b) + 1), store.((3 * b) + 2))

(* OS fetches of [lines] in order, over a one-image map whose block [l]
   starts line [l] ([line] bytes each) and spans [bytes] bytes: the
   reference streams stack-distance tests feed [Stack_dist.from_trace]. *)
let line_trace ~line ?(bytes = 4) lines =
  let n = 1 + List.fold_left max 0 lines in
  let map = { Chunk.addr = [| Array.init n (fun l -> l * line) |]; bytes = [| Array.make n bytes |] } in
  let trace = Trace.create () in
  List.iter (fun block -> Trace.append_exec trace ~image:0 ~block) lines;
  (trace, map)

let sim_access sim ~image ~block ~addr ~bytes =
  let trace, map = one_event ~image ~block ~addr ~bytes in
  Chunk.iter ~trace ~map ~boundary:0
    ~readers:[| Sim.reader sim Chunk.All |]
    (fun c _ -> Sim.run sim (Chunk.stream c 0))

(* ------------------------------------------------------------------ *)
(* Hand-built flow graphs.                                            *)
(* ------------------------------------------------------------------ *)

(* One routine shaped as a diamond:
     entry -> a (p=0.8) | b (p=0.2);  a -> exit;  b -> exit. *)
type diamond = {
  g : Graph.t;
  routine : Routine.id;
  entry : Block.id;
  a : Block.id;
  b : Block.id;
  exit_ : Block.id;
  arc_ea : Arc.id;
  arc_eb : Arc.id;
  arc_ax : Arc.id;
  arc_bx : Arc.id;
}

let diamond () =
  let bld = Graph.builder () in
  let r = Graph.declare_routine bld "diamond" in
  let blk size = Graph.add_block bld ~routine:r ~size () in
  let entry = blk 16 in
  let a = blk 24 in
  let b = blk 8 in
  let exit_ = blk 12 in
  let arc_ea = Graph.add_arc bld ~src:entry ~dst:a Arc.Fallthrough in
  let arc_eb = Graph.add_arc bld ~src:entry ~dst:b Arc.Taken in
  let arc_ax = Graph.add_arc bld ~src:a ~dst:exit_ Arc.Fallthrough in
  let arc_bx = Graph.add_arc bld ~src:b ~dst:exit_ Arc.Taken in
  let g = Graph.freeze bld in
  { g; routine = r; entry; a; b; exit_; arc_ea; arc_eb; arc_ax; arc_bx }

(* Two routines: [caller] with a loop around a call to [callee].
     c0 -> c1(header) -> c2(calls callee) -> c3 -> back to c1 | c4(exit)
     callee: l0 -> l1. *)
type loop_call = {
  g : Graph.t;
  caller : Routine.id;
  callee : Routine.id;
  c0 : Block.id;
  c1 : Block.id;
  c2 : Block.id;
  c3 : Block.id;
  c4 : Block.id;
  l0 : Block.id;
  l1 : Block.id;
  back_edge : Arc.id;
}

let loop_call () =
  let bld = Graph.builder () in
  let caller = Graph.declare_routine bld "caller" in
  let callee = Graph.declare_routine bld "callee" in
  let blk ?call r size = Graph.add_block bld ~routine:r ~size ?call () in
  let c0 = blk caller 16 in
  let c1 = blk caller 16 in
  let c2 = blk ~call:callee caller 16 in
  let c3 = blk caller 16 in
  let c4 = blk caller 16 in
  let l0 = blk callee 16 in
  let l1 = blk callee 16 in
  ignore (Graph.add_arc bld ~src:c0 ~dst:c1 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:c1 ~dst:c2 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:c2 ~dst:c3 Arc.Fallthrough);
  let back_edge = Graph.add_arc bld ~src:c3 ~dst:c1 Arc.Taken in
  ignore (Graph.add_arc bld ~src:c3 ~dst:c4 Arc.Fallthrough);
  ignore (Graph.add_arc bld ~src:l0 ~dst:l1 Arc.Fallthrough);
  let g = Graph.freeze bld in
  { g; caller; callee; c0; c1; c2; c3; c4; l0; l1; back_edge }

(* A profile with explicit block/arc weights over a graph. *)
let profile_of ?(invocations = 0.0) g block_weights arc_weights =
  let block = Array.make (Graph.block_count g) 0.0 in
  List.iter (fun (b, w) -> block.(b) <- w) block_weights;
  let arc = Array.make (Graph.arc_count g) 0.0 in
  List.iter (fun (a, w) -> arc.(a) <- w) arc_weights;
  Profile.of_counts ~block ~arc ~invocations

(* Digests recomputed from a value's content, never read from the value:
   the references the stored digests must keep equalling.  [md5_of]
   marshals with sharing, as the pinned trace digests were computed;
   [content_md5] without, as every library key is. *)
let md5_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* MD5 of a trace's raw event stream (the trace-identity pins). *)
let events_md5 t =
  let b = Buffer.create (8 * Trace.length t) in
  for i = 0 to Trace.length t - 1 do
    Buffer.add_int64_le b (Int64.of_int (Trace.raw t i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let content_md5 v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let profile_content_digest (p : Profile.t) =
  content_md5 (p.Profile.block, p.Profile.arc, p.Profile.total_blocks, p.Profile.invocations)

(* Sizes read block by block, not through the shared Graph.block_sizes
   array, so a write to that array shows up here. *)
let sizes_of g = Array.init (Graph.block_count g) (fun b -> (Graph.block g b).Block.size)

(* Address_map's digest encoding, transcribed byte by byte: MD5 of the
   graph's digest, one byte giving the address width (3, 4 or 8, the
   fewest that hold the highest address), then every block's address in
   id order as that many little-endian bytes.  The graph's digest is
   cached, so the sizes are compared block by block first: a write to
   the shared Graph.block_sizes array shows up here as a digest no map
   has. *)
let map_content_digest m =
  let g = Address_map.graph m and addr = Address_map.addr_array m in
  if Graph.block_sizes g <> sizes_of g then "sizes array written"
  else begin
    let top = Array.fold_left max 0 addr in
    let w = if top < 1 lsl 24 then 3 else if top < 1 lsl 32 then 4 else 8 in
    let b = Buffer.create (33 + (w * Array.length addr)) in
    Buffer.add_string b (Graph.digest g);
    Buffer.add_char b (Char.chr w);
    Array.iter
      (fun a ->
        for i = 0 to w - 1 do
          Buffer.add_char b (Char.chr ((a lsr (8 * i)) land 0xff))
        done)
      addr;
    Digest.to_hex (Digest.string (Buffer.contents b))
  end

(* ------------------------------------------------------------------ *)
(* Memoized expensive fixtures.                                       *)
(* ------------------------------------------------------------------ *)

let small_model = lazy (Generator.generate Spec.small)
let default_model = lazy (Generator.generate Spec.default)

(* A traced context over the small kernel: fast enough for integration
   tests, big enough that every region of the pipeline is exercised. *)
let small_context =
  lazy (Context.create ~spec:Spec.small ~words:150_000 ~seed:7 ())

let full_context = lazy (Context.create ~spec:Spec.default ~words:400_000 ~seed:7 ())

(* Reading a report back through [Result.column], the one value reader. *)
let num = function
  | Table.Int n -> float_of_int n
  | Table.Float (_, x) | Table.Pct (_, x) -> x
  | Table.Text s -> Alcotest.failf "expected a number, got the text %S" s

(* The numbers under [name], blank cells skipped. *)
let nums r name =
  List.filter_map (function Table.Text "" -> None | c -> Some (num c)) (Result.column r name)

let texts r name =
  List.map
    (function Table.Text s -> s | c -> Alcotest.failf "expected text, got %s" (Table.cell_text c))
    (Result.column r name)

(* The number under [column] on the row (or scalar) whose [key] reads [k]. *)
let lookup r ~key k column =
  match List.assoc_opt k (List.combine (texts r key) (Result.column r column)) with
  | Some c -> num c
  | None -> Alcotest.failf "no %s %S in report %s" key k r.Result.id
