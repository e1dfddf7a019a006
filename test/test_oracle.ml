open Helpers

(* Differential tests of the chunked replay kernels against the naive
   reference model in ref_cache.ml.  Each case draws its program, trace
   and caches from one QCheck-chosen seed, so a failure names the seed
   that reproduces it. *)

(* Seeds without a shrinker: a nearby seed is an unrelated case, so
   shrinking would only replay more cases before naming the seed. *)
let seeds = QCheck.make ~print:string_of_int QCheck.Gen.int

(* A random program: the OS (image 0) plus up to two applications, with
   blocks of 1..160 bytes at random word-aligned addresses in a window of
   1 KB up to [2^(sizes-1)] KB, so blocks span several lines and images
   collide in the caches.  An application may sit 16 MB per image higher,
   as real layouts place them, which still collides (16 MB is a multiple
   of every cache size) but spreads the lines far apart.  With [overlap],
   two or three images all sit at 0, so their address ranges overlap and
   they share lines. *)
let program ?(sizes = 4) ?(overlap = false) g =
  let images = if overlap then 2 + Prng.int g 2 else 1 + Prng.int g 3 in
  let blocks = Array.init images (fun _ -> 1 + Prng.int g 40) in
  let window = 1024 lsl Prng.int g sizes in
  let base =
    Array.init images (fun image -> if (not overlap) && Prng.bool g then image lsl 24 else 0)
  in
  let map =
    {
      Chunk.addr =
        Array.mapi
          (fun image n -> Array.init n (fun _ -> base.(image) + (4 * Prng.int g (window / 4))))
          blocks;
      bytes = Array.map (fun n -> Array.init n (fun _ -> 1 + Prng.int g 160)) blocks;
    }
  in
  (map, blocks, window)

(* [events] executions with invocation markers sprinkled between them:
   markers must not advance the warm-up count. *)
let trace g ~blocks ~events =
  let t = Trace.create () in
  for _ = 1 to events do
    (match Prng.int g 64 with
    | 0 -> Trace.append t (Trace.Invocation_start (Service.of_index 0))
    | 1 -> Trace.append t Trace.Invocation_end
    | _ -> ());
    let image = Prng.int g (Array.length blocks) in
    Trace.append t (Trace.Exec { image; block = Prng.int g blocks.(image) })
  done;
  t

let pick g a = a.(Prng.int g (Array.length a))

(* Any policy, 1..8 ways, 1 to [2^(set_bits-1)] sets (32 by default),
   16..64-byte lines. *)
let config ?assoc ?line ?(set_bits = 6) g =
  let assoc = match assoc with Some a -> a | None -> pick g [| 1; 2; 4; 8 |] in
  let line = match line with Some l -> l | None -> pick g [| 16; 32; 64 |] in
  let sets = 1 lsl Prng.int g set_bits in
  let policy =
    match Prng.int g 3 with 0 -> Config.Lru | 1 -> Config.Fifo | _ -> Config.Random (Prng.int g 10_000)
  in
  Config.with_policy (Config.v ~size:(sets * assoc * line) ~assoc ~line) policy

type kind = Unified | Split | Reserved | Victim

(* The same organization built twice: once for Replay, once as the
   reference. *)
let pair g ~window kind =
  match kind with
  | Unified ->
      let c = config g in
      (System.unified c, Ref_cache.unified c)
  | Split ->
      let os = config g and app = config g in
      (System.split ~os ~app, Ref_cache.split ~os ~app)
  | Reserved ->
      let hot = config g and rest = config g and hot_limit = Prng.int g (window + 1) in
      (System.reserved ~hot ~rest ~hot_limit, Ref_cache.reserved ~hot ~rest ~hot_limit)
  | Victim ->
      let main = config ~assoc:1 g and entries = 1 + Prng.int g 8 in
      (System.victim ~main ~entries, Ref_cache.victim ~main ~entries)

(* Counters and every entry of the per-OS-block miss store must match
   the reference exactly: each block's cold, self and cross misses, where
   the reference's cold misses are its misses less the other two. *)
let agree ~blocks (sys, model) =
  System.counters sys = Ref_cache.counters model
  &&
  let store = System.block_misses sys in
  Array.length store = 3 * blocks.(0)
  && List.for_all
       (fun block ->
         let misses, self, cross = Ref_cache.block_misses model ~image:0 ~block in
         block_kinds store block = (misses - self - cross, self, cross))
       (List.init blocks.(0) Fun.id)

(* Replay [pairs] through both paths and compare every member. *)
let replay_agrees ~map ~blocks ~trace ~warmup pairs =
  List.iter (fun (sys, _) -> System.enable_block_attribution sys ~blocks:blocks.(0)) pairs;
  Replay.run_range ~trace ~map ~systems:(Array.of_list (List.map fst pairs)) ~warmup;
  Ref_cache.replay ~trace ~map ~warmup (List.map snd pairs);
  List.for_all (agree ~blocks) pairs

let prop_unified =
  QCheck.Test.make ~name:"unified: every policy x assoc x line, mixed line sizes per pass"
    ~count:40 seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program g in
      let trace = trace g ~blocks ~events:(1 + Prng.int g 3000) in
      let pairs = List.init (1 + Prng.int g 6) (fun _ -> pair g ~window Unified) in
      replay_agrees ~map ~blocks ~trace ~warmup:(Prng.int g (Trace.exec_count trace + 1)) pairs)

let prop_organizations =
  QCheck.Test.make ~name:"split, reserved and victim organizations" ~count:40 seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program g in
      let trace = trace g ~blocks ~events:(1 + Prng.int g 3000) in
      let pairs = List.map (pair g ~window) [ Split; Reserved; Victim; Unified ] in
      replay_agrees ~map ~blocks ~trace ~warmup:(Prng.int g (Trace.exec_count trace + 1)) pairs)

(* Warm-up thresholds around the chunk size: the counter reset must land
   after exactly [warmup] executions wherever it falls in a chunk.  A
   small footprint keeps the reference quick over these long traces. *)
let prop_warmup_edges =
  let n = Chunk.size in
  QCheck.Test.make ~name:"warm-up at 0, 1, chunk-1, chunk, chunk+1 and exec_count" ~count:3
    seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program ~sizes:2 g in
      let trace = trace g ~blocks ~events:(n + 2 + Prng.int g n) in
      List.for_all
        (fun warmup ->
          let pairs = List.map (pair g ~window) [ Unified; Unified; Split; Reserved; Victim ] in
          replay_agrees ~map ~blocks ~trace ~warmup pairs)
        [ 0; 1; n - 1; n; n + 1; Trace.exec_count trace ])

(* One-event passes, a pass per fetch, run the same kernels. *)
let prop_single_access =
  QCheck.Test.make ~name:"one-event passes, in order" ~count:40 seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program g in
      let trace = trace g ~blocks ~events:(1 + Prng.int g 500) in
      let pairs = List.map (pair g ~window) [ Unified; Split; Reserved; Victim ] in
      Trace.iter_exec trace (fun ~image ~block ->
          let addr = map.Chunk.addr.(image).(block) and bytes = map.Chunk.bytes.(image).(block) in
          List.iter
            (fun (sys, model) ->
              system_access sys ~image ~block ~addr ~bytes;
              Ref_cache.access model ~image ~block ~addr ~bytes)
            pairs);
      List.for_all (fun (sys, model) -> System.counters sys = Ref_cache.counters model) pairs)

(* Members that share one line size, so each pass strips one chain per
   side: 4..10 unified and victim caches with 1..64 sets under every
   policy, then two split and two reserved systems (one [hot_limit]), so
   the OS side, the inside and the outside of the limit each have two
   readers too. *)
let staged_pairs g ~window ~line =
  let config ?assoc () = config ?assoc ~line ~set_bits:7 g in
  let member _ =
    if Prng.int g 3 = 0 then
      let main = config ~assoc:1 () and entries = 1 + Prng.int g 8 in
      (System.victim ~main ~entries, Ref_cache.victim ~main ~entries)
    else
      let c = config () in
      (System.unified c, Ref_cache.unified c)
  in
  let hot_limit = Prng.int g (window + 1) in
  let split _ =
    let os = config () and app = config () in
    (System.split ~os ~app, Ref_cache.split ~os ~app)
  and reserved _ =
    let hot = config () and rest = config () in
    (System.reserved ~hot ~rest ~hot_limit, Ref_cache.reserved ~hot ~rest ~hot_limit)
  in
  List.init (4 + Prng.int g 7) member @ List.init 2 split @ List.init 2 reserved

(* Two to three chunks, so the filters carry their tags from chunk to
   chunk, with the warm-up anywhere. *)
let staged_trace g ~blocks = trace g ~blocks ~events:((2 * Chunk.size) + Prng.int g Chunk.size)

let prop_stages =
  QCheck.Test.make ~name:"stripped streams: many set counts at one line size" ~count:12
    seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program g in
      let trace = staged_trace g ~blocks in
      let pairs = staged_pairs g ~window ~line:(pick g [| 16; 32; 64 |]) in
      replay_agrees ~map ~blocks ~trace ~warmup:(Prng.int g (Trace.exec_count trace + 1)) pairs)

(* Two passes into the same systems, unreset, against the reference over
   both traces.  The second pass also carries fresh members, which saw
   nothing of the first: a filter left holding the first pass's lines
   would strip their cold misses. *)
let prop_stages_two_passes =
  QCheck.Test.make ~name:"stripped streams: two passes into unreset systems" ~count:6
    seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = program g in
      let line = pick g [| 16; 32; 64 |] in
      let kept = staged_pairs g ~window ~line in
      let first = staged_trace g ~blocks and second = staged_trace g ~blocks in
      let warmup t = Prng.int g (Trace.exec_count t + 1) in
      replay_agrees ~map ~blocks ~trace:first ~warmup:(warmup first) kept
      &&
      let fresh = staged_pairs g ~window ~line in
      List.iter (fun (sys, _) -> System.enable_block_attribution sys ~blocks:blocks.(0)) fresh;
      let pairs = kept @ fresh and warmup = warmup second in
      Replay.run_range ~trace:second ~map ~systems:(Array.of_list (List.map fst pairs)) ~warmup;
      Ref_cache.replay ~trace:second ~map ~warmup (List.map snd pairs);
      List.for_all (agree ~blocks) pairs)

(* Blocks of [bytes] laid out back to back from [base], as every layout
   algorithm places its fall-through chains, so consecutive blocks share
   lines. *)
let back_to_back ~base bytes =
  let next = ref base in
  Array.map
    (fun b ->
      let a = !next in
      next := a + b;
      a)
    bytes

let block_bytes g n = Array.init n (fun _ -> 4 * (1 + Prng.int g 40))

(* Every image back to back: with [overlap] all start at 0 and share
   lines, otherwise an application sits 16 MB per image higher. *)
let fallthrough_program ~overlap g =
  let images = if overlap then 2 + Prng.int g 2 else 1 + Prng.int g 3 in
  let bytes = Array.init images (fun _ -> block_bytes g (2 + Prng.int g 40)) in
  let addr =
    Array.mapi (fun image b -> back_to_back ~base:(if overlap then 0 else image lsl 24) b) bytes
  in
  let window = Array.fold_left (fun w b -> max w (Array.fold_left ( + ) 0 b)) 0 bytes in
  ({ Chunk.addr; bytes }, Array.map Array.length bytes, window)

(* Runs of consecutive blocks, as a fall-through chain executes them: a
   run starts at a random block of a random image and walks forward, one
   step in four running the same block again (a self-loop).  So most
   events share a line with the one before. *)
let walk g ~blocks ~events =
  let t = Trace.create () in
  let n = ref 0 in
  while !n < events do
    let image = Prng.int g (Array.length blocks) in
    let block = ref (Prng.int g blocks.(image)) and run = ref (1 + Prng.int g 12) in
    while !n < events && !run > 0 && !block < blocks.(image) do
      Trace.append t (Trace.Exec { image; block = !block });
      incr n;
      decr run;
      if Prng.int g 4 > 0 then incr block
    done
  done;
  t

let prop_fallthrough =
  QCheck.Test.make ~name:"fall-through runs: most events repeat a line" ~count:40 seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let map, blocks, window = fallthrough_program ~overlap:(Prng.int g 3 = 0) g in
      let trace = walk g ~blocks ~events:(1 + Prng.int g 3000) in
      let pairs = List.map (pair g ~window) [ Unified; Unified; Split; Reserved; Victim ] in
      replay_agrees ~map ~blocks ~trace ~warmup:(Prng.int g (Trace.exec_count trace + 1)) pairs)

(* An OS image of [n] blocks back to back and an application image that
   mirrors it at the same addresses.  With [huge], one block spans more
   [huge]-byte lines than a stream's buffers start with (one per chunk
   event), so the buffers must grow. *)
let mirrored_program ?huge g n =
  let bytes = block_bytes g n in
  Option.iter (fun line -> bytes.(Prng.int g n) <- line * (Chunk.size + 1 + Prng.int g 64)) huge;
  let addr = back_to_back ~base:0 bytes in
  let map = { Chunk.addr = [| addr; addr |]; bytes = [| bytes; bytes |] } in
  (map, [| n; n |], addr.(n - 1) + bytes.(n - 1))

(* [count] triples in which only a side makes repeats: an OS block, an
   application block, then OS again.  Half the triples run the first OS
   block again, which only the OS side sees twice in a row; the others
   run the OS block after the application block's twin, which mostly
   starts on the line the application block ends on, so only the whole
   stream sees that line twice in a row. *)
let triples g ~n ~count =
  let t = Trace.create () in
  for _ = 1 to count do
    let os = Prng.int g n and app = Prng.int g (n - 1) in
    Trace.append t (Trace.Exec { image = 0; block = os });
    Trace.append t (Trace.Exec { image = 1; block = app });
    Trace.append t (Trace.Exec { image = 0; block = (if Prng.bool g then os else app + 1) })
  done;
  t

let prop_side_repeats =
  QCheck.Test.make ~name:"split and reserved: repeats that only a side makes" ~count:40
    seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let n = 2 + Prng.int g 40 in
      let map, blocks, window = mirrored_program g n in
      let trace = triples g ~n ~count:(1 + Prng.int g 1000) in
      let pairs = List.map (pair g ~window) [ Split; Reserved; Reserved; Unified ] in
      replay_agrees ~map ~blocks ~trace ~warmup:(Prng.int g (Trace.exec_count trace + 1)) pairs)

(* One line size per case, so the huge block spans just over a chunk's
   worth of lines in every cache.  Each case replays on a domain of its
   own, which starts with fresh stream buffers that the huge block makes
   grow. *)
let prop_huge_block =
  QCheck.Test.make ~name:"a block spanning more lines than a chunk holds events" ~count:6
    seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let line = pick g [| 16; 32; 64 |] and n = 2 + Prng.int g 8 in
      let map, blocks, _ = mirrored_program ~huge:line g n in
      let trace = triples g ~n ~count:(1 + Prng.int g 20) in
      let c = config ~line g and os = config ~line g and app = config ~line g in
      let pairs =
        [ (System.unified c, Ref_cache.unified c); (System.split ~os ~app, Ref_cache.split ~os ~app) ]
      in
      Domain.join (Domain.spawn (fun () -> replay_agrees ~map ~blocks ~trace ~warmup:0 pairs)))

(* Stack distances against the list-based LRU stack: refs, first
   touches and the fully-associative misses at every power of two from 1
   to 1024 lines. *)
let stack_agrees sd (model : Ref_cache.stack) =
  Stack_dist.refs sd = model.Ref_cache.line_refs
  && Stack_dist.cold sd = model.Ref_cache.first_touches
  && List.for_all
       (fun k ->
         let lines = 1 lsl k in
         Stack_dist.misses_at sd ~lines = Ref_cache.stack_misses model ~lines)
       (List.init 11 Fun.id)

(* [trace]'s executions, with the OS running a block that starts at 0
   and spans more [line]-byte lines than a chunk holds events once, at a
   random point: its run costs the list model a chunk's worth of lines
   at up to a chunk's depth. *)
let with_huge_block g ~line (map : Chunk.code_map) trace =
  let huge = Array.length map.Chunk.addr.(0) in
  let at = Prng.int g (Trace.exec_count trace) in
  let grow row v = Array.mapi (fun image a -> if image = 0 then Array.append a [| v |] else a) row in
  let map =
    {
      Chunk.addr = grow map.Chunk.addr 0;
      bytes = grow map.Chunk.bytes (line * (Chunk.size + 1 + Prng.int g 64));
    }
  in
  let t = Trace.create () and i = ref 0 in
  Trace.iter_exec trace (fun ~image ~block ->
      if !i = at then Trace.append_exec t ~image:0 ~block:huge;
      Trace.append_exec t ~image ~block;
      incr i);
  (map, t)

(* Two to three chunks, so repeats meet chunk boundaries, and in one case
   of three a block wider than a chunk of lines, so the stream's buffers
   grow mid-pass. *)
let prop_stack_dist =
  QCheck.Test.make ~name:"Stack_dist.from_trace == LRU stack, 1..1024 lines" ~count:20 seeds
    (fun seed ->
      let g = Prng.of_int seed in
      let line = pick g [| 16; 32; 64 |] and os_only = Prng.bool g in
      let map, blocks, _ = program ~overlap:(Prng.int g 3 = 0) g in
      let trace = staged_trace g ~blocks in
      let map, trace = if Prng.int g 3 = 0 then with_huge_block g ~line map trace else (map, trace) in
      let model = Ref_cache.stack ~line in
      Ref_cache.stack_replay ~trace ~map ~os_only model;
      stack_agrees (Stack_dist.from_trace ~trace ~map ~line ~os_only ()) model)

(* Distances past the random cases' reach: a cycle over [n] lines
   re-references every line at distance [n - 1]. *)
let test_stack_deep () =
  List.iter
    (fun n ->
      let trace, map = line_trace ~line:16 (List.init (2 * n) (fun i -> i mod n)) in
      let sd = Stack_dist.from_trace ~trace ~map ~line:16 () and model = Ref_cache.stack ~line:16 in
      Ref_cache.stack_replay ~trace ~map ~os_only:false model;
      List.iter
        (fun k ->
          let lines = 1 lsl k in
          check_int
            (Printf.sprintf "%d-line cycle at %d lines" n lines)
            (Ref_cache.stack_misses model ~lines)
            (Stack_dist.misses_at sd ~lines))
        (List.init 15 Fun.id))
    [ 1; 2; 3; 1024; 1025; 4097 ]

(* An image whose blocks lie terabytes apart spans more lines than the
   stack numbers densely. *)
let test_stack_sparse () =
  let map =
    {
      Chunk.addr = [| Array.init 8 (fun b -> b lsl 40); [| 1 lsl 24 |] |];
      bytes = [| Array.make 8 48; [| 100 |] |];
    }
  in
  let trace = trace (Prng.of_int 3) ~blocks:[| 8; 1 |] ~events:500 in
  check_raises_invalid "sparse map" (fun () -> Stack_dist.from_trace ~trace ~map ~line:32 ())

let () =
  Alcotest.run "oracle"
    [
      ( "replay vs reference",
        [
          qcheck prop_unified;
          qcheck prop_organizations;
          qcheck prop_warmup_edges;
          qcheck prop_single_access;
          qcheck prop_fallthrough;
          qcheck prop_side_repeats;
          qcheck prop_huge_block;
          qcheck prop_stages;
          qcheck prop_stages_two_passes;
        ] );
      ( "stack vs reference",
        [
          qcheck prop_stack_dist;
          case "deep cycles" test_stack_deep;
          case "sparse map raises" test_stack_sparse;
        ] );
    ]
