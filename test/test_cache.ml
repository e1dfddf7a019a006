open Helpers

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_make () =
  let c = Config.make ~size_kb:8 () in
  check_int "size" 8192 c.Config.size;
  check_int "direct-mapped default" 1 c.Config.assoc;
  check_int "32B lines default" 32 c.Config.line;
  check_int "sets" 256 (Config.sets c)

let test_config_assoc_sets () =
  let c = Config.v ~size:8192 ~assoc:4 ~line:32 in
  check_int "sets with associativity" 64 (Config.sets c)

let test_config_validation () =
  check_raises_invalid "non-power-of-two size" (fun () ->
      Config.v ~size:3000 ~assoc:1 ~line:32);
  check_raises_invalid "non-power-of-two assoc" (fun () ->
      Config.v ~size:8192 ~assoc:3 ~line:32);
  check_raises_invalid "non-power-of-two line" (fun () ->
      Config.v ~size:8192 ~assoc:1 ~line:24);
  check_raises_invalid "line bigger than cache" (fun () ->
      Config.v ~size:32 ~assoc:1 ~line:64)

let test_config_addr_math () =
  let c = Config.v ~size:8192 ~assoc:1 ~line:32 in
  check_int "sets" 256 (Config.sets c);
  check_int "sets of a 4-way cache" 64 (Config.sets (Config.v ~size:8192 ~assoc:4 ~line:32));
  check_bool "to_string mentions size" true
    (String.length (Config.to_string c) > 0)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_counters_arith () =
  let c = Counters.create () in
  c.Counters.refs_os <- 100;
  c.Counters.refs_app <- 50;
  c.Counters.os_cold <- 1;
  c.Counters.os_self <- 2;
  c.Counters.os_cross <- 3;
  c.Counters.app_cold <- 4;
  c.Counters.app_self <- 5;
  c.Counters.app_cross <- 6;
  check_int "refs" 150 (Counters.refs c);
  check_int "os misses" 6 (Counters.os_misses c);
  check_int "app misses" 15 (Counters.app_misses c);
  check_int "misses" 21 (Counters.misses c);
  check_close 1e-9 "miss rate" (21.0 /. 150.0) (Counters.miss_rate c);
  let d = Counters.copy c in
  Counters.add d c;
  check_int "add doubles" 42 (Counters.misses d);
  Counters.reset d;
  check_int "reset zeroes" 0 (Counters.misses d);
  check_close 1e-9 "empty miss rate" 0.0 (Counters.miss_rate d)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let dm_1kb () = Sim.create (Config.v ~size:1024 ~assoc:1 ~line:32)

(* Whether the line holding [addr] is resident, read off the miss counter
   of a one-byte OS access to it.  A hit changes no line's residency (LRU
   only reorders a set), so after the history under test, check the lines
   expected resident first and the evicted ones last. *)
let hits s ~addr =
  let before = Counters.misses (Sim.counters s) in
  sim_access s ~image:0 ~block:0 ~addr ~bytes:1;
  Counters.misses (Sim.counters s) = before

let test_sim_miss_then_hit () =
  let s = dm_1kb () in
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:16;
  let c = Sim.counters s in
  check_int "first access misses once" 1 (Counters.misses c);
  check_int "cold classified" 1 c.Counters.os_cold;
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:16;
  check_int "second access hits" 1 (Counters.misses (Sim.counters s));
  check_int "refs counted in words" 8 (Counters.refs (Sim.counters s))

let test_sim_block_spanning_lines () =
  let s = dm_1kb () in
  (* Bytes 16..95 span lines 0, 1 and 2 of 32 bytes. *)
  sim_access s ~image:0 ~block:0 ~addr:16 ~bytes:80;
  check_int "three line misses" 3 (Counters.misses (Sim.counters s));
  check_bool "all three resident" true
    (hits s ~addr:0 && hits s ~addr:32 && hits s ~addr:95)

let test_sim_conflict_direct_mapped () =
  let s = dm_1kb () in
  (* Addresses 0 and 1024 share set 0 in a 1 KB direct-mapped cache. *)
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  let c = Sim.counters s in
  check_int "three misses" 3 (Counters.misses c);
  check_int "last one is self-interference" 1 c.Counters.os_self;
  check_bool "victim no longer resident" false (hits s ~addr:1024)

let test_sim_no_conflict_different_sets () =
  let s = dm_1kb () in
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:1 ~addr:32 ~bytes:4;
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "only two cold misses" 2 (Counters.misses (Sim.counters s))

let test_sim_lru_two_way () =
  let s = Sim.create (Config.v ~size:1024 ~assoc:2 ~line:32) in
  (* Set 0 of a 2-way 1 KB cache: lines at 0, 512, 1024 all map there. *)
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:1 ~addr:512 ~bytes:4;
  (* Touch 0 so 512 becomes LRU. *)
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:2 ~addr:1024 ~bytes:4;
  check_bool "0 still resident (MRU)" true (hits s ~addr:0);
  check_bool "1024 resident" true (hits s ~addr:1024);
  check_bool "512 evicted (LRU)" false (hits s ~addr:512)

let test_sim_fifo_no_refresh () =
  (* Set 0 of a 2-way cache under FIFO: hits do not refresh, so the oldest
     insertion is evicted even if it was just used. *)
  let s = Sim.create (Config.with_policy (Config.v ~size:1024 ~assoc:2 ~line:32) Config.Fifo) in
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:1 ~addr:512 ~bytes:4;
  (* Touch 0: under LRU this would protect it; FIFO ignores the hit. *)
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:2 ~addr:1024 ~bytes:4;
  check_bool "512 survives" true (hits s ~addr:512);
  check_bool "oldest insertion (0) evicted despite the hit" false
    (hits s ~addr:0)

let test_sim_random_deterministic () =
  let run () =
    let s =
      Sim.create
        (Config.with_policy (Config.v ~size:512 ~assoc:4 ~line:32) (Config.Random 7))
    in
    let g = Prng.of_int 99 in
    for _ = 1 to 2000 do
      sim_access s ~image:0 ~block:0 ~addr:(32 * Prng.int g 64) ~bytes:4
    done;
    Counters.misses (Sim.counters s)
  in
  check_int "same seed, same misses" (run ()) (run ());
  let other =
    let s =
      Sim.create
        (Config.with_policy (Config.v ~size:512 ~assoc:4 ~line:32) (Config.Random 8))
    in
    let g = Prng.of_int 99 in
    for _ = 1 to 2000 do
      sim_access s ~image:0 ~block:0 ~addr:(32 * Prng.int g 64) ~bytes:4
    done;
    Counters.misses (Sim.counters s)
  in
  check_bool "replacement-seed sensitivity" true (other <> run () || other = run ())

let test_sim_random_fills_invalid_first () =
  let s =
    Sim.create
      (Config.with_policy (Config.v ~size:1024 ~assoc:4 ~line:32) (Config.Random 3))
  in
  (* Four lines into one set of a 4-way cache: all must be resident. *)
  List.iter
    (fun addr -> sim_access s ~image:0 ~block:0 ~addr ~bytes:4)
    [ 0; 256; 512; 768 ];
  List.iter
    (fun addr -> check_bool "resident" true (hits s ~addr))
    [ 0; 256; 512; 768 ]

let test_sim_policy_in_to_string () =
  let c = Config.with_policy (Config.v ~size:8192 ~assoc:2 ~line:32) Config.Fifo in
  check_bool "FIFO shown" true
    (String.length (Config.to_string c) > String.length "8KB/2way/32B")

let test_sim_cross_interference () =
  let s = dm_1kb () in
  sim_access s ~image:1 ~block:0 ~addr:0 ~bytes:4;
  (* OS evicts the app line. *)
  sim_access s ~image:0 ~block:0 ~addr:1024 ~bytes:4;
  (* App misses again: cross-interference. *)
  sim_access s ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = Sim.counters s in
  check_int "app cross" 1 c.Counters.app_cross;
  check_int "app cold" 1 c.Counters.app_cold;
  check_int "os cold" 1 c.Counters.os_cold;
  (* Now the app evicts the OS line back: OS cross. *)
  sim_access s ~image:0 ~block:0 ~addr:1024 ~bytes:4;
  check_int "os cross" 1 c.Counters.os_cross

let test_sim_attribution () =
  let s = dm_1kb () in
  Sim.enable_block_attribution s ~blocks:4;
  sim_access s ~image:0 ~block:2 ~addr:0 ~bytes:4;
  sim_access s ~image:0 ~block:3 ~addr:1024 ~bytes:4;
  sim_access s ~image:0 ~block:2 ~addr:0 ~bytes:4;
  (* An application miss is counted but charged to no OS block. *)
  sim_access s ~image:1 ~block:3 ~addr:512 ~bytes:4;
  check_int "app miss counted" 1 (Counters.app_misses (Sim.counters s));
  let cold2, self2, cross2 = block_kinds (Sim.block_misses s) 2 in
  let cold3, self3, cross3 = block_kinds (Sim.block_misses s) 3 in
  check_int "block 2 missed twice" 2 (cold2 + self2 + cross2);
  check_int "block 3 missed once" 1 (cold3 + self3 + cross3);
  check_int "block 2 cold miss" 1 cold2;
  check_int "block 2 self misses" 1 self2;
  check_int "block 3 no self misses" 0 self3;
  check_int "no cross misses" 0 cross2

let test_sim_attribution_disabled () =
  let s = dm_1kb () in
  check_raises_invalid "attribution off" (fun () -> Sim.block_misses s)

let test_sim_reset_counters_keeps_contents () =
  let s = dm_1kb () in
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.reset_counters s;
  check_int "counters zeroed" 0 (Counters.misses (Sim.counters s));
  sim_access s ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "line still resident after reset_counters" 0
    (Counters.misses (Sim.counters s))

let prop_misses_bounded_by_refs =
  QCheck.Test.make ~name:"misses never exceed word references" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(1 -- 200) (pair (int_bound 4095) bool)))
    (fun (_, accesses) ->
      let s = Sim.create (Config.v ~size:512 ~assoc:2 ~line:16) in
      List.iter
        (fun (addr, os) ->
          sim_access s ~image:(if os then 0 else 1) ~block:0
            ~addr:(addr land lnot 3) ~bytes:4)
        accesses;
      let c = Sim.counters s in
      Counters.misses c <= Counters.refs c)

let prop_large_cache_no_conflicts =
  QCheck.Test.make ~name:"cache larger than footprint only misses cold" ~count:50
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1023))
    (fun addrs ->
      let s = Sim.create (Config.v ~size:65536 ~assoc:1 ~line:32) in
      List.iter
        (fun addr -> sim_access s ~image:0 ~block:0 ~addr ~bytes:4)
        addrs;
      let c = Sim.counters s in
      c.Counters.os_self = 0 && c.Counters.os_cross = 0)

(* ------------------------------------------------------------------ *)
(* System                                                             *)
(* ------------------------------------------------------------------ *)

let test_system_unified () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "one miss" 1 (Counters.misses c);
  check_int "two word refs" 2 (Counters.refs c)

let test_system_split_routes () =
  let sys =
    System.split
      ~os:(Config.v ~size:1024 ~assoc:1 ~line:32)
      ~app:(Config.v ~size:1024 ~assoc:1 ~line:32)
  in
  (* Same address from OS and app: separate caches, no interference. *)
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:1 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "two cold misses only" 2 (Counters.misses c);
  check_int "no cross interference" 0 (c.Counters.os_cross + c.Counters.app_cross)

let test_system_reserved_routes () =
  let sys =
    System.reserved
      ~hot:(Config.v ~size:512 ~assoc:1 ~line:32)
      ~rest:(Config.v ~size:1024 ~assoc:1 ~line:32)
      ~hot_limit:1024
  in
  (* OS below hot_limit goes to the hot cache; the same set in the rest
     cache is untouched, so an app line there survives. *)
  system_access sys ~image:1 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "no app re-miss" 2 (Counters.misses c);
  (* OS above hot_limit goes to the rest cache and does evict the app. *)
  system_access sys ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  system_access sys ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "app cross after rest-cache eviction" 1 c.Counters.app_cross

let test_system_reset () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_reset sys;
  check_int "counters zero" 0 (Counters.misses (System.counters sys));
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "contents kept" 0 (Counters.misses (System.counters sys))

let test_system_attribution () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  System.enable_block_attribution sys ~blocks:2;
  system_access sys ~image:0 ~block:1 ~addr:0 ~bytes:4;
  check_bool "attributed as cold" true (block_kinds (System.block_misses sys) 1 = (1, 0, 0))

let test_system_victim_swap () =
  (* 1 KB direct-mapped main (32 sets) with a 2-line victim buffer.
     Lines 0 and 1024 conflict in set 0: the ping-pong that costs the
     plain cache a miss each time is absorbed by the buffer. *)
  let main = Config.v ~size:1024 ~assoc:1 ~line:32 in
  let sys = System.victim ~main ~entries:2 in
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  (* Both cold so far; from now on the two lines swap via the buffer. *)
  for _ = 1 to 10 do
    system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
    system_access sys ~image:0 ~block:1 ~addr:1024 ~bytes:4
  done;
  let c = System.counters sys in
  check_int "only the two cold misses" 2 (Counters.misses c);
  check_int "all references counted" 22 (Counters.refs c)

(* The swap scenario with attribution on: buffer hits are no misses, so
   each block is charged its one cold miss and nothing else. *)
let test_system_victim_attribution () =
  let main = Config.v ~size:1024 ~assoc:1 ~line:32 in
  let sys = System.victim ~main ~entries:2 in
  System.enable_block_attribution sys ~blocks:2;
  for _ = 1 to 11 do
    system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
    system_access sys ~image:0 ~block:1 ~addr:1024 ~bytes:4
  done;
  let store = System.block_misses sys in
  check_int "two blocks" 6 (Array.length store);
  List.iter
    (fun b ->
      let cold, self, cross = block_kinds store b in
      check_int "one cold miss per block" 1 cold;
      check_int "no self-interference" 0 self;
      check_int "no cross-interference" 0 cross)
    [ 0; 1 ]

let test_system_victim_capacity () =
  (* Three conflicting lines against a 1-line buffer: the buffer cannot
     hold the ping-pong set, so conflict misses persist. *)
  let main = Config.v ~size:1024 ~assoc:1 ~line:32 in
  let sys = System.victim ~main ~entries:1 in
  let addrs = [ 0; 1024; 2048 ] in
  List.iter (fun addr -> system_access sys ~image:0 ~block:0 ~addr ~bytes:4) addrs;
  for _ = 1 to 5 do
    List.iter
      (fun addr -> system_access sys ~image:0 ~block:0 ~addr ~bytes:4)
      addrs
  done;
  let c = System.counters sys in
  check_bool "self-interference persists" true (c.Counters.os_self > 0)

let test_system_victim_validation () =
  check_raises_invalid "set-associative main rejected" (fun () ->
      System.victim ~main:(Config.v ~size:1024 ~assoc:2 ~line:32) ~entries:4);
  check_raises_invalid "zero entries rejected" (fun () ->
          System.victim ~main:(Config.v ~size:1024 ~assoc:1 ~line:32) ~entries:0)

(* Random OS/application line streams over a few conflicting sets: the
   victim path must count exactly what the naive list model in
   ref_cache.ml counts. *)
let prop_victim_matches_naive =
  QCheck.Test.make ~name:"victim cache == naive list model" ~count:200
    QCheck.(
      triple (int_range 1 4) (oneofl [ 1; 4; 8 ])
        (list_of_size Gen.(1 -- 300) (pair (int_bound 40) bool)))
    (fun (entries, sets, stream) ->
      let main = Config.v ~size:(sets * 32) ~assoc:1 ~line:32 in
      let sys = System.victim ~main ~entries in
      let naive = Ref_cache.victim ~main ~entries in
      List.iter
        (fun (line, os) ->
          system_access sys ~image:(if os then 0 else 1) ~block:0 ~addr:(line * 32) ~bytes:4;
          Ref_cache.access naive ~image:(if os then 0 else 1) ~block:0 ~addr:(line * 32) ~bytes:4)
        stream;
      System.counters sys = Ref_cache.counters naive)

(* Zeroing the counters keeps the victim buffer: line 0, displaced to
   the buffer by the conflicting line 1024, still hits there. *)
let test_system_victim_reset () =
  let sys = System.victim ~main:(Config.v ~size:1024 ~assoc:1 ~line:32) ~entries:2 in
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  system_access sys ~image:0 ~block:0 ~addr:1024 ~bytes:4;
  system_reset sys;
  check_int "counters zero" 0 (Counters.misses (System.counters sys));
  system_access sys ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "line 0 hits in the buffer" 0 (Counters.misses (System.counters sys))

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

let replay_fixture () =
  let lc = loop_call () in
  let t = Trace.create () in
  List.iter
    (fun b -> Trace.append t (Trace.Exec { image = 0; block = b }))
    [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ];
  let n = Graph.block_count lc.g in
  let map =
    {
      Chunk.addr = [| Array.init n (fun b -> b * 16) |];
      bytes = [| Array.make n 16 |];
    }
  in
  (lc, t, map)

let test_replay_run () =
  let _, t, map = replay_fixture () in
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  Replay.run_range ~warmup:0 ~trace:t ~map ~systems:[| sys |];
  let c = System.counters sys in
  check_int "words fetched" (7 * 4) (Counters.refs c);
  (* 7 blocks of 16 bytes over 32-byte lines from address 0: 4 lines. *)
  check_int "cold misses only" 4 (Counters.misses c)

let test_replay_multiple_systems () =
  let _, t, map = replay_fixture () in
  let a = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  let b = System.unified (Config.v ~size:1024 ~assoc:1 ~line:16) in
  Replay.run_range ~warmup:0 ~trace:t ~map ~systems:[| a; b |];
  check_int "both systems see all refs" (Counters.refs (System.counters a))
    (Counters.refs (System.counters b));
  check_int "16B lines mean more line misses" 7
    (Counters.misses (System.counters b))

let test_replay_warmup () =
  let _, t, map = replay_fixture () in
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  (* Warm up over the whole trace: a second pass has no cold misses. *)
  Replay.run_range ~trace:t ~map ~systems:[| sys |] ~warmup:(Trace.exec_count t);
  check_int "warmup discards all misses" 0 (Counters.misses (System.counters sys));
  check_int "and all refs" 0 (Counters.refs (System.counters sys))

(* A trace naming a block past the map's rows, or an image the map lacks,
   fails with the typed error before the first fill, although the bad
   event sits in the second chunk: no kernel has run, so every counter is
   still 0. *)
let test_replay_unknown_block () =
  let map = { Chunk.addr = [| [| 0; 16; 32 |] |]; bytes = [| [| 16; 16 |] |] } in
  List.iter
    (fun (name, image, block) ->
      let t = Trace.create () in
      for i = 1 to Chunk.size + 100 do
        Trace.append_exec t ~image:0 ~block:(i land 1)
      done;
      Trace.append_exec t ~image ~block;
      let sys = System.unified (Config.make ~size_kb:1 ()) in
      (match Replay.run_range ~trace:t ~map ~systems:[| sys |] ~warmup:0 with
      | exception Chunk.Unknown_block e ->
          check_int (name ^ ": image") image e.image;
          check_int (name ^ ": block") block e.block
      | () -> Alcotest.failf "%s: replayed" name);
      check_int (name ^ ": no reference counted") 0 (Counters.refs (System.counters sys));
      check_int (name ^ ": no miss counted") 0 (Counters.misses (System.counters sys)))
    [ ("block past both rows", 0, 3); ("block past the sizes row", 0, 2); ("image the map lacks", 1, 0) ]

(* A replay allocates per pass (the chunk, its cursor), never per event:
   a closure or boxed value in any kernel's loop shows up here as
   allocated words per event. *)
let test_replay_allocation_free () =
  let g = Prng.of_int 7 in
  let blocks = [| 400; 300 |] in
  let map =
    {
      Chunk.addr = Array.map (fun n -> Array.init n (fun _ -> 4 * Prng.int g 16384)) blocks;
      bytes = Array.map (fun n -> Array.init n (fun _ -> 4 + (4 * Prng.int g 24))) blocks;
    }
  in
  let t = Trace.create () in
  let events = 60_000 in
  for _ = 1 to events do
    let image = Prng.int g 2 in
    Trace.append t (Trace.Exec { image; block = Prng.int g blocks.(image) })
  done;
  let kb size_kb = Config.make ~size_kb () in
  let assoc4 policy = Config.make ~size_kb:8 ~assoc:4 ~policy () in
  List.iter
    (fun (name, make) ->
      let systems = [| make () |] in
      let w0 = Gc.minor_words () in
      Replay.run_range ~trace:t ~map ~systems ~warmup:(events / 5);
      let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
      if per_event >= 0.01 then
        Alcotest.failf "%s: %.4f minor words per event (want < 0.01)" name per_event)
    [
      ("direct", fun () -> System.unified (kb 8));
      ("lru4", fun () -> System.unified (assoc4 Config.Lru));
      ("fifo4", fun () -> System.unified (assoc4 Config.Fifo));
      ("random4", fun () -> System.unified (assoc4 (Config.Random 1234)));
      ("victim", fun () -> System.victim ~main:(kb 8) ~entries:8);
      ("split", fun () -> System.split ~os:(kb 4) ~app:(kb 4));
      ("reserved", fun () -> System.reserved ~hot:(kb 1) ~rest:(kb 8) ~hot_limit:8192);
    ]

(* A second pass on the same domain reuses the chunk and the stream and
   filter buffers the first one left: it allocates less in the major heap
   than a chunk's three arrays, which a pass once allocated afresh.  The
   systems are warmed by the first pass, so their eviction pages exist.
   The second mixture has seven set counts at one line size, so its pass
   plans a chain of filter stages. *)
let test_replay_reuses_buffers () =
  let g = Prng.of_int 11 in
  let blocks = [| 400; 300 |] in
  let map =
    {
      Chunk.addr = Array.map (fun n -> Array.init n (fun _ -> 4 * Prng.int g 16384)) blocks;
      bytes = Array.map (fun n -> Array.init n (fun _ -> 4 + (4 * Prng.int g 24))) blocks;
    }
  in
  let t = Trace.create () in
  for _ = 1 to 3 * Chunk.size do
    let image = Prng.int g 2 in
    Trace.append t (Trace.Exec { image; block = Prng.int g blocks.(image) })
  done;
  let kb size_kb = Config.make ~size_kb () in
  let organizations =
    [|
      System.unified (kb 8);
      System.unified (Config.make ~size_kb:8 ~assoc:4 ());
      System.victim ~main:(kb 8) ~entries:8;
      System.split ~os:(kb 4) ~app:(kb 4);
      System.reserved ~hot:(kb 1) ~rest:(Config.make ~size_kb:8 ~line:64 ()) ~hot_limit:8192;
    |]
  in
  let set_counts =
    Array.of_list
      (List.concat_map
         (fun size_kb ->
           [ System.unified (kb size_kb); System.unified (Config.make ~size_kb ~assoc:2 ()) ])
         [ 1; 2; 4; 8; 16; 32 ])
  in
  List.iter
    (fun (name, systems) ->
      Replay.run_range ~trace:t ~map ~systems ~warmup:0;
      let major () = (Gc.quick_stat ()).Gc.major_words in
      let w0 = major () in
      Replay.run_range ~trace:t ~map ~systems ~warmup:0;
      let words = major () -. w0 in
      if words > float_of_int (3 * Chunk.size) then
        Alcotest.failf "%s: second pass: %.0f major words (want <= %d)" name words
          (3 * Chunk.size))
    [ ("organizations", organizations); ("set counts", set_counts) ]

let side_name = function Chunk.All -> "all" | Chunk.Inside _ -> "inside" | Chunk.Outside _ -> "outside"

(* Reader [i]'s stream against its expected lines, owners, word totals
   and dropped repeats. *)
let check_stream c i (name, lines, owners, os_words, app_words, repeats) =
  let s = Chunk.stream c i in
  let entries a = Array.to_list (Array.sub a 0 s.len) in
  Alcotest.(check (list int)) (name ^ ": lines") lines (entries s.lines);
  Alcotest.(check (list int)) (name ^ ": owners") owners (entries s.owner);
  check_int (name ^ ": OS words") os_words s.os_words;
  check_int (name ^ ": app words") app_words s.app_words;
  check_int (name ^ ": repeats") repeats s.repeats

(* A hand-made chunk's streams at 32- and 64-byte lines on every side.
   OS blocks b0 = [0, 40), b1 = [40, 64), b2 = [200, 204); application
   blocks a0 = [64, 164), a1 = [0, 2); the side limit is 100, so b2 is
   the one OS block outside.  Owners are [(block lsl 3) lor image].  Each
   reader is alone on its key, so each reads stage 1.  Every stream is
   checked before any is compared with another, so a build that
   overwrote an earlier key's buffers fails; a last reader repeats the
   first one's key and shares its stream. *)
let test_chunk_streams () =
  let map =
    { Chunk.addr = [| [| 0; 40; 200 |]; [| 64; 0 |] |]; bytes = [| [| 40; 24; 4 |]; [| 100; 2 |] |] }
  in
  let t = Trace.create () in
  List.iter
    (fun (image, block) -> Trace.append t (Trace.Exec { image; block }))
    [ (0, 0); (0, 1); (1, 0); (0, 2); (1, 1); (0, 0) ];
  let b0 = 0 and b2 = 16 and a0 = 1 and a1 = 9 in
  (* (shift, side, lines, owners, os words, app words, repeats) *)
  let expected =
    [
      (5, Chunk.All, [ 0; 1; 2; 3; 4; 5; 6; 0; 1 ], [ b0; b0; a0; a0; a0; a0; b2; a1; b0 ], 27, 26, 2);
      (5, Chunk.Inside 100, [ 0; 1; 0; 1 ], [ b0; b0; b0; b0 ], 26, 0, 1);
      (5, Chunk.Outside 100, [ 2; 3; 4; 5; 6; 0 ], [ a0; a0; a0; a0; b2; a1 ], 1, 26, 0);
      (6, Chunk.All, [ 0; 1; 2; 3; 0 ], [ b0; a0; a0; b2; a1 ], 27, 26, 2);
      (6, Chunk.Inside 100, [ 0 ], [ b0 ], 26, 0, 2);
      (6, Chunk.Outside 100, [ 1; 2; 3; 0 ], [ a0; a0; b2; a1 ], 1, 26, 0);
    ]
  in
  let readers =
    Array.of_list
      (List.map (fun (shift, side, _, _, _, _, _) -> { Chunk.shift; side; sets = 8 }) expected
      @ [ { Chunk.shift = 5; side = Chunk.All; sets = 8 } ])
  in
  let chunks = ref 0 in
  Chunk.iter ~trace:t ~map ~boundary:0 ~readers (fun c _ ->
      incr chunks;
      List.iteri
        (fun i (shift, side, lines, owners, os_words, app_words, repeats) ->
          let name = Printf.sprintf "%d-byte lines, %s" (1 lsl shift) (side_name side) in
          check_stream c i (name, lines, owners, os_words, app_words, repeats))
        expected;
      check_bool "one key, one stream" true (Chunk.stream c 6 == Chunk.stream c 0));
  check_int "one chunk" 1 !chunks

(* A hand-made chain at 32-byte lines.  Eleven one-word OS events on
   lines 0 1 0 2 0 1 4 0 3 1 1 (block b sits on line b, so owner b * 8).
   Stage 1 drops the last 1, a repeat, and every later stage carries that
   count; the 2-set stage also drops the second 0 and the second 1,
   which its filter still holds; the 4-set stage, run over the 2-set one,
   also drops the 0 after 2 and the 1 after 3.  The 8-set reader is the
   largest, so it reads the 4-set stage; the 1-set reader reads stage 1.
   A second pass starts with empty filters and builds the same streams. *)
let test_chunk_stages () =
  let map = { Chunk.addr = [| Array.init 5 (fun b -> 32 * b) |]; bytes = [| Array.make 5 4 |] } in
  let t = Trace.create () in
  List.iter
    (fun block -> Trace.append t (Trace.Exec { image = 0; block }))
    [ 0; 1; 0; 2; 0; 1; 4; 0; 3; 1; 1 ];
  let reader sets = { Chunk.shift = 5; side = Chunk.All; sets } in
  let readers = [| reader 8; reader 2; reader 1; reader 4 |] in
  let owners = List.map (fun l -> l * 8) in
  let stage name lines = (name, lines, owners lines, 11, 0, 1) in
  let stage1 = stage "stage 1" [ 0; 1; 0; 2; 0; 1; 4; 0; 3; 1 ]
  and sets2 = stage "2-set stage" [ 0; 1; 2; 0; 4; 0; 3; 1 ]
  and sets4 = stage "4-set stage" [ 0; 1; 2; 4; 0; 3 ] in
  for pass = 1 to 2 do
    Chunk.iter ~trace:t ~map ~boundary:0 ~readers (fun c _ ->
        let pass name = Printf.sprintf "pass %d, %s" pass name in
        let named (name, lines, owners, os, app, repeats) =
          (pass name, lines, owners, os, app, repeats)
        in
        check_stream c 2 (named stage1);
        check_stream c 1 (named sets2);
        check_stream c 3 (named sets4);
        check_bool (pass "8 sets read the 4-set stage") true (Chunk.stream c 0 == Chunk.stream c 3))
  done

let () =
  Alcotest.run "cache"
    [
      ( "config",
        [
          case "make" test_config_make;
          case "associative sets" test_config_assoc_sets;
          case "validation" test_config_validation;
          case "address math" test_config_addr_math;
        ] );
      ("counters", [ case "arithmetic" test_counters_arith ]);
      ( "sim",
        [
          case "miss then hit" test_sim_miss_then_hit;
          case "block spanning lines" test_sim_block_spanning_lines;
          case "direct-mapped conflict" test_sim_conflict_direct_mapped;
          case "different sets no conflict" test_sim_no_conflict_different_sets;
          case "2-way LRU" test_sim_lru_two_way;
          case "FIFO no refresh" test_sim_fifo_no_refresh;
          case "random deterministic" test_sim_random_deterministic;
          case "random fills invalid first" test_sim_random_fills_invalid_first;
          case "policy in to_string" test_sim_policy_in_to_string;
          case "cross interference" test_sim_cross_interference;
          case "attribution" test_sim_attribution;
          case "attribution disabled" test_sim_attribution_disabled;
          case "reset_counters keeps contents" test_sim_reset_counters_keeps_contents;
          qcheck prop_misses_bounded_by_refs;
          qcheck prop_large_cache_no_conflicts;
        ] );
      ( "system",
        [
          case "unified" test_system_unified;
          case "split routes" test_system_split_routes;
          case "reserved routes" test_system_reserved_routes;
          case "reset" test_system_reset;
          case "attribution" test_system_attribution;
          case "victim swap" test_system_victim_swap;
          case "victim attribution" test_system_victim_attribution;
          case "victim capacity" test_system_victim_capacity;
          case "victim validation" test_system_victim_validation;
          case "victim reset" test_system_victim_reset;
          qcheck prop_victim_matches_naive;
        ] );
      ( "replay",
        [
          case "run" test_replay_run;
          case "multiple systems" test_replay_multiple_systems;
          case "warmup" test_replay_warmup;
          case "unknown block" test_replay_unknown_block;
          case "allocation-free kernels" test_replay_allocation_free;
          case "second pass reuses its buffers" test_replay_reuses_buffers;
          case "chunk streams" test_chunk_streams;
          case "chunk stages" test_chunk_stages;
        ] );
    ]
