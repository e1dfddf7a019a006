open Helpers

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.of_int 99 and b = Prng.of_int 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check_bool "different seeds give different streams" true !differs

let test_prng_split_independent () =
  let a = Prng.of_int 5 in
  let b = Prng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check_bool "split stream differs" true !differs

let test_prng_int_bounds () =
  let g = Prng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    check_bool "0 <= v < 7" true (v >= 0 && v < 7)
  done

(* The first 1000 draws per seed, as digests of their decimal listing
   plus the leading values, pinned when the generator kept its state in a
   boxed int64: every seeded experiment (the Random cache policy, the
   workload walks) depends on this exact sequence.  [max_int] exposes all
   62 bits a draw keeps; 4 is the Random policy's 4-way draw. *)
let test_prng_pinned_draws () =
  List.iter
    (fun (seed, bound, digest, first) ->
      let g = Prng.of_int seed in
      let draws = List.init 1000 (fun _ -> Prng.int g bound) in
      let name = Printf.sprintf "seed %d, bound %d" seed bound in
      Alcotest.(check (list int)) (name ^ ": leading draws") first
        (List.filteri (fun i _ -> i < List.length first) draws);
      check_string (name ^ ": digest of 1000 draws") digest
        (Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int draws)))))
    [
      (0, 4, "5d44467c4587d3c0067df9caa31af3c7", [ 3; 1; 3; 3 ]);
      ( 0, max_int, "7c24275095df0c3ce1dc8c1fcd7b93c4",
        [ 4073552104164651883; 1990071630548588925; 121904254867886419; 4477402844195135611 ] );
      (1, 4, "904954291059ad1d68be01989c7f773e", [ 0; 1; 3; 2 ]);
      ( 1, max_int, "1106e1e3ccd1519282da239b392b6cdb",
        [ 2612804094800205616; 3439311302766607129; 4477959822570722647; 2049245188455445058 ] );
      (1234, 4, "2e2a081d2c189d3bd453723bf56bec11", [ 2; 1; 2; 0 ]);
      ( 1234, max_int, "c909845766ab215af5f80bb2434ad219",
        [ 3369604595356927798; 2734221868675111241; 932173350320474486; 1412037347925829644 ] );
    ]

(* A draw must not allocate: the Random cache policy draws inside the
   replay kernels. *)
let test_prng_int_allocation_free () =
  let g = Prng.of_int 1 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int g 4
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f minor words for 10000 draws" words) true (words < 100.0);
  check_bool "draws in range" true (!acc >= 0 && !acc < 40_000)

let test_prng_int_invalid () =
  let g = Prng.of_int 3 in
  check_raises_invalid "bound 0" (fun () -> Prng.int g 0);
  check_raises_invalid "negative bound" (fun () -> Prng.int g (-4))

let test_prng_int_in () =
  let g = Prng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-5) 5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  check_int "degenerate range" 9 (Prng.int_in g 9 9);
  check_raises_invalid "hi < lo" (fun () -> Prng.int_in g 2 1)

let test_prng_unit_float () =
  let g = Prng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Prng.unit_float g in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_bound () =
  let g = Prng.of_int 3 in
  for _ = 1 to 100 do
    let v = Prng.float g 2.5 in
    check_bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let g = Prng.of_int 3 in
  for _ = 1 to 50 do
    check_bool "p=1 always true" true (Prng.bernoulli g 1.0);
    check_bool "p=0 always false" false (Prng.bernoulli g 0.0)
  done

let test_prng_bernoulli_rate () =
  let g = Prng.of_int 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  check_close 0.02 "p=0.3 empirical" 0.3 (float_of_int !hits /. float_of_int n)

let test_prng_choose () =
  let g = Prng.of_int 3 in
  check_int "singleton" 42 (Prng.choose g [| 42 |]);
  check_raises_invalid "empty" (fun () -> Prng.choose g [||])

let test_prng_choose_weighted () =
  let g = Prng.of_int 3 in
  for _ = 1 to 200 do
    let v = Prng.choose_weighted g [| ("never", 0.0); ("always", 3.0) |] in
    check_string "zero-weight element never chosen" "always" v
  done;
  check_raises_invalid "all zero" (fun () ->
      Prng.choose_weighted g [| (1, 0.0); (2, 0.0) |])

let test_prng_shuffle_permutation () =
  let g = Prng.of_int 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (array_of_size Gen.(0 -- 30) small_int))
    (fun (seed, a) ->
      let b = Array.copy a in
      Prng.shuffle (Prng.of_int seed) b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let prop_int_uniformish =
  QCheck.Test.make ~name:"Prng.int covers its range" ~count:20
    QCheck.(int_range 2 20)
    (fun bound ->
      let g = Prng.of_int bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Prng.int g bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Dist                                                               *)
(* ------------------------------------------------------------------ *)

let test_dist_uniform_bounds () =
  let g = Prng.of_int 1 in
  let d = Dist.uniform_int 3 8 in
  for _ = 1 to 500 do
    let v = Dist.sample d g in
    check_bool "in [3,8]" true (v >= 3 && v <= 8)
  done;
  check_raises_invalid "hi < lo" (fun () -> Dist.uniform_int 8 3)

let test_dist_constant () =
  let g = Prng.of_int 1 in
  let d = Dist.uniform_int 9 9 in
  for _ = 1 to 20 do
    check_int "a one-value range is constant" 9 (Dist.sample d g)
  done

let test_dist_zipf_mass () =
  let n = 20 and s = 1.25 in
  let total = ref 0.0 in
  for rank = 0 to n - 1 do
    let m = Dist.zipf_mass ~n ~s ~rank in
    check_bool "mass positive" true (m > 0.0);
    if rank > 0 then
      check_bool "mass decreasing" true (m <= Dist.zipf_mass ~n ~s ~rank:(rank - 1));
    total := !total +. m
  done;
  check_close 1e-9 "masses sum to 1" 1.0 !total

let test_dist_zipf_bounds () =
  let g = Prng.of_int 1 in
  let d = Dist.zipf ~n:10 ~s:1.0 in
  for _ = 1 to 1000 do
    let v = Dist.sample d g in
    check_bool "rank in [0,10)" true (v >= 0 && v < 10)
  done;
  check_raises_invalid "n=0" (fun () -> Dist.zipf ~n:0 ~s:1.0)

let test_dist_zipf_empirical () =
  let g = Prng.of_int 1 in
  let n = 8 and s = 1.5 in
  let d = Dist.zipf ~n ~s in
  let counts = Array.make n 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let v = Dist.sample d g in
    counts.(v) <- counts.(v) + 1
  done;
  check_close 0.02 "rank-0 empirical mass"
    (Dist.zipf_mass ~n ~s ~rank:0)
    (float_of_int counts.(0) /. float_of_int draws)

let test_dist_weighted () =
  let g = Prng.of_int 1 in
  let d = Dist.weighted [| (4, 0.0); (7, 1.0) |] in
  for _ = 1 to 100 do
    check_int "zero weight excluded" 7 (Dist.sample d g)
  done

let test_dist_scaled () =
  let g = Prng.of_int 1 in
  let d = Dist.scaled (Dist.uniform_int 10 10) 2.5 in
  check_int "scaled" 25 (Dist.sample d g)

let test_dist_mean_estimate () =
  let g = Prng.of_int 1 in
  check_close 1e-9 "mean of constant" 6.0
    (Dist.mean_estimate (Dist.uniform_int 6 6) g 100)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||])

let test_stats_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "empty" 0.0 (Stats.median [||]);
  let a = [| 9.0; 1.0 |] in
  ignore (Stats.median a);
  check_float "argument unchanged" 9.0 a.(0)

let test_stats_min_max_sum () =
  check_float "min" (-2.0) (Stats.minimum [| 3.0; -2.0; 7.0 |]);
  check_float "max" 7.0 (Stats.maximum [| 3.0; -2.0; 7.0 |]);
  check_float "sum" 8.0 (Stats.sum [| 3.0; -2.0; 7.0 |]);
  check_raises_invalid "min empty" (fun () -> Stats.minimum [||])

let test_stats_ratio_pct () =
  check_float "ratio" 0.5 (Stats.ratio 1 2);
  check_float "ratio zero den" 0.0 (Stats.ratio 5 0);
  check_float "pct" 50.0 (Stats.pct 1 2)

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)
(* ------------------------------------------------------------------ *)

(* Bucket counts in bucket order. *)
let counts h = List.map snd (Histogram.to_list h)

let test_hist_invalid () =
  check_raises_invalid "log2 without buckets" (fun () -> Histogram.log2 ~max_exp:0);
  check_raises_invalid "no edges" (fun () -> Histogram.explicit [||]);
  check_raises_invalid "edges not increasing" (fun () -> Histogram.explicit [| 5; 5 |])

let test_hist_log2 () =
  let h = Histogram.log2 ~max_exp:5 in
  Histogram.add h 0;
  (* v+1 = 1 -> bucket 0 *)
  Histogram.add h 1;
  (* v+1 = 2 -> bucket 1 *)
  Histogram.add h 3;
  (* v+1 = 4 -> bucket 2 *)
  Histogram.add h 1000;
  (* overflow -> last *)
  Alcotest.(check (list int))
    "v=0 in bucket 0, then 1, 3 and the overflow" [ 1; 1; 1; 0; 0; 1 ] (counts h)

let test_hist_explicit () =
  let h = Histogram.explicit [| 10; 100 |] in
  check_int "buckets = edges+1" 3 (Histogram.bucket_count h);
  Histogram.add h 5;
  Histogram.add h 10;
  Histogram.add h 99;
  Histogram.add h 100;
  Alcotest.(check (list int)) "below first edge, middle, last" [ 1; 2; 1 ] (counts h)

let test_hist_add_many_fraction () =
  let h = Histogram.explicit [| 5 |] in
  Histogram.add_many h 1 3;
  Histogram.add_many h 7 1;
  Alcotest.(check (list int)) "counts" [ 3; 1 ] (counts h);
  check_float "cumulative" 1.0 (Histogram.cumulative_fraction_below h 1);
  check_float "cumulative first" 0.75 (Histogram.cumulative_fraction_below h 0)

let test_hist_merge () =
  let a = Histogram.explicit [| 5 |] in
  let b = Histogram.copy_empty a in
  Histogram.add a 1;
  Histogram.add b 1;
  Histogram.add b 6;
  Histogram.merge a b;
  Alcotest.(check (list int)) "merged counts" [ 2; 1 ] (counts a);
  check_int "src untouched" 2 (Histogram.total b);
  check_raises_invalid "mismatched edges" (fun () ->
      Histogram.merge a (Histogram.explicit [| 10 |]));
  check_raises_invalid "mismatched shape" (fun () ->
      Histogram.merge a (Histogram.log2 ~max_exp:1))

let test_hist_labels () =
  let h = Histogram.explicit [| 5 |] in
  Histogram.add h 2;
  let l = Histogram.to_list h in
  check_int "list length" 2 (List.length l);
  check_int "first count" 1 (snd (List.hd l));
  check_bool "labels nonempty" true
    (List.for_all (fun (s, _) -> String.length s > 0) l)

(* ------------------------------------------------------------------ *)
(* Table and Chart                                                    *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ Table.Text "a"; Table.Int 1 ];
  Table.add_separator t;
  Table.add_row t [ Table.Text "bb"; Table.Int 22 ];
  let s = Table.render t in
  check_bool "mentions header" true
    (String.length s > 0
    && String.index_opt s 'n' <> None
    && String.length (String.trim s) > 10)

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  check_raises_invalid "wrong arity" (fun () -> Table.add_row t [ Table.Text "only one" ])

let test_table_cells () =
  check_string "int separators" "1,234,567" (Table.cell_text (Table.Int 1234567));
  check_string "int small" "42" (Table.cell_text (Table.Int 42));
  check_string "negative int" "-1,234" (Table.cell_text (Table.Int (-1234)));
  check_string "float" "3.14" (Table.cell_text (Table.Float (2, 3.14159)));
  check_string "float decimals" "3.1416" (Table.cell_text (Table.Float (4, 3.14159)));
  check_string "pct" "12.3%" (Table.cell_text (Table.Pct (1, 12.345)));
  check_string "text verbatim" "4KB" (Table.cell_text (Table.Text "4KB"))

let test_chart_bars () =
  let s = Chart.bars [ ("x", 10.0); ("y", 5.0) ] in
  check_bool "bars render" true (String.length s > 0);
  let s = Chart.bars [] in
  check_bool "empty ok" true (String.length s >= 0)

(* ------------------------------------------------------------------ *)
(* Memo                                                               *)
(* ------------------------------------------------------------------ *)

let registry_trio name =
  let get suffix =
    Option.value ~default:(-1) (Metrics_registry.find_counter (name ^ suffix))
  in
  (get ".hits", get ".misses", get ".lookups")

(* Boxed floats: one shared by both components, or two equal ones. *)
let test_memo_digest_ignores_sharing () =
  let x = Float.of_string "0.0" in
  let shared = (x, x, [| 1; 2 |]) and unshared = (x, Float.of_string "0.0", [| 1; 2 |]) in
  let a, b, _ = shared and a', b', _ = unshared in
  check_bool "shared components are one block" true (Obj.repr a == Obj.repr b);
  check_bool "unshared components are two" false (Obj.repr a' == Obj.repr b');
  check_bool "marshalling with sharing tells them apart" true
    (Marshal.to_string shared [] <> Marshal.to_string unshared []);
  check_string "equal digests" (Memo.digest unshared) (Memo.digest shared);
  check_bool "unequal content, unequal digests" true
    (Memo.digest shared <> Memo.digest (x, x, [| 2; 1 |]))

let test_memo_race () =
  let m : int array Memo.t = Memo.create "test.memo_race" in
  let builds = Atomic.make 0 in
  let ready = Atomic.make 0 in
  let racer () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Memo.find_or_build m "k" (fun () ->
        Atomic.incr builds;
        Unix.sleepf 0.01;
        Array.make 4 7)
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn racer)) in
  let stored = Memo.find_or_build m "k" (fun () -> Alcotest.fail "nothing stored") in
  check_bool "at least one build" true (Atomic.get builds >= 1);
  List.iteri
    (fun i v ->
      check_bool (Printf.sprintf "domain %d got the stored value" i) true (v == stored))
    results

let test_memo_counters () =
  let name = "test.memo_counters" in
  let m = Memo.create name in
  ignore (Memo.find_or_build m "a" (fun () -> 1));
  ignore (Memo.find_or_build m "a" (fun () -> 2));
  ignore (Memo.find_or_build m "b" (fun () -> 3));
  ignore (Memo.find_or_build m "a" (fun () -> 4));
  let h, mi, l = registry_trio name in
  check_int "hits" 2 h;
  check_int "misses" 2 mi;
  check_int "hits + misses = lookups" l (h + mi);
  let s = Memo.stats m in
  check_int "stats.hits reads the registry" h s.Memo.hits;
  check_int "stats.misses reads the registry" mi s.Memo.misses

let test_memo_clear () =
  let m = Memo.create "test.memo_clear" in
  ignore (Memo.find_or_build m "a" (fun () -> 1));
  ignore (Memo.find_or_build m "b" (fun () -> 2));
  Memo.clear m;
  check_int "a rebuilt after clear" 3 (Memo.find_or_build m "a" (fun () -> 3));
  check_int "b rebuilt after clear" 4 (Memo.find_or_build m "b" (fun () -> 4))

let test_memo_single_flight () =
  let name = "test.memo_single_flight" in
  let m : int array Memo.t = Memo.create name in
  let builds = Atomic.make 0 in
  let ready = Atomic.make 0 in
  let racer () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Memo.find_or_build m "k" (fun () ->
        Atomic.incr builds;
        Unix.sleepf 0.02;
        Array.make 4 7)
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn racer)) in
  check_int "exactly one build" 1 (Atomic.get builds);
  let first = List.hd results in
  List.iteri
    (fun i v -> check_bool (Printf.sprintf "domain %d shares the value" i) true (v == first))
    results;
  let h, mi, l = registry_trio name in
  check_int "one miss" 1 mi;
  check_int "three hits" 3 h;
  check_int "four lookups" 4 l

let test_memo_raise_releases () =
  let name = "test.memo_raise" in
  let m : int Memo.t = Memo.create name in
  (match Memo.find_or_build m "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the build's exception was swallowed"
  | exception Failure msg -> check_string "the builder sees its exception" "boom" msg);
  check_int "the key is free again" 5 (Memo.find_or_build m "k" (fun () -> 5));
  (* A caller waiting on a claim whose build raises claims the key itself. *)
  let claimed = Atomic.make false in
  let failing =
    Domain.spawn (fun () ->
        try
          Memo.find_or_build m "j" (fun () ->
              Atomic.set claimed true;
              Unix.sleepf 0.02;
              failwith "late")
        with Failure _ -> -1)
  in
  while not (Atomic.get claimed) do
    Domain.cpu_relax ()
  done;
  let waiter = Memo.find_or_build m "j" (fun () -> 9) in
  check_int "the failing builder raised" (-1) (Domain.join failing);
  check_int "the waiter built the key after the release" 9 waiter;
  let h, mi, _ = registry_trio name in
  check_int "every build is a miss" 4 mi;
  check_int "no hits" 0 h

let test_memo_build_all () =
  let name = "test.memo_build_all" in
  let m : string Memo.t = Memo.create name in
  ignore (Memo.find_or_build m "a" (fun () -> "A"));
  let h0, mi0, l0 = registry_trio name in
  let calls = ref [] in
  let build claimed =
    calls := claimed :: !calls;
    Array.map (fun i -> "built" ^ string_of_int i) claimed
  in
  let got = Memo.find_or_build_all m [| "a"; "b"; "a"; "c"; "b" |] build in
  check_bool "one build call, first index per absent key" true (!calls = [ [| 1; 3 |] ]);
  check_bool "values by index" true (got = [| "A"; "built1"; "A"; "built3"; "built1" |]);
  check_bool "repeats share the built value" true (got.(1) == got.(4));
  let h, mi, l = registry_trio name in
  check_int "two keys built" 2 (mi - mi0);
  check_int "stored and repeated keys hit" 3 (h - h0);
  check_int "one lookup per key" 5 (l - l0);
  calls := [];
  ignore (Memo.find_or_build_all m [| "c"; "a" |] build);
  check_bool "no build when everything is stored" true (!calls = []);
  (match Memo.find_or_build_all m [| "d"; "e" |] (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "the build's exception was swallowed"
  | exception Failure _ -> ());
  check_string "a raising batch releases its keys" "D"
    (Memo.find_or_build m "d" (fun () -> "D"))

(* ------------------------------------------------------------------ *)
(* Parallel: the persistent pool                                      *)
(* ------------------------------------------------------------------ *)

(* Three levels of fan-out inside one another, each sized differently,
   against plain Array.mapi. *)
let k_len j = 2 + (j mod 3)

let nested_work ~jobs =
  Parallel.map_array ~jobs
    (fun i a ->
      Parallel.map_array ~jobs
        (fun j b ->
          Array.fold_left ( + ) 0
            (Parallel.map_array ~jobs
               (fun k c -> (i * 100) + (j * 10) + k + c)
               (Array.make (k_len j) b)))
        (Array.make (3 + i) a))
    (Array.init 5 Fun.id)

let nested_reference () =
  Array.mapi
    (fun i a ->
      Array.mapi
        (fun j b ->
          Array.fold_left ( + ) 0
            (Array.mapi (fun k c -> (i * 100) + (j * 10) + k + c) (Array.make (k_len j) b)))
        (Array.make (3 + i) a))
    (Array.init 5 Fun.id)

let test_pool_nested () =
  let expect = nested_reference () in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "three nested levels == Array.mapi at %d jobs" jobs)
        true
        (nested_work ~jobs = expect))
    [ 1; 2; 4 ]

let test_pool_nested_exception () =
  let total = 4 * 6 in
  let finished = Atomic.make 0 in
  let outcome =
    try
      ignore
        (Parallel.map_array ~jobs:4
           (fun i () ->
             Parallel.map_array ~jobs:4
               (fun j () ->
                 if i = 1 && (j = 2 || j = 4) then failwith (Printf.sprintf "task %d.%d" i j);
                 Unix.sleepf 0.002;
                 Atomic.incr finished)
               (Array.make 6 ()))
           (Array.make 4 ()));
      None
    with Failure msg -> Some msg
  in
  check_bool "the lowest failing index is re-raised" true (outcome = Some "task 1.2");
  check_int "every sibling finished before the raise" (total - 2) (Atomic.get finished);
  check_bool "the pool serves the next call" true
    (Parallel.map_array ~jobs:4 (fun i x -> i + x) (Array.make 8 1) = Array.init 8 (fun i -> i + 1))

let test_pool_one_job_inline () =
  let fanouts () = Option.value ~default:0 (Metrics_registry.find_counter "parallel.fanouts") in
  let before = fanouts () in
  let main = Domain.self () in
  let domains = Parallel.map_array ~jobs:1 (fun _ () -> Domain.self ()) (Array.make 6 ()) in
  check_int "~jobs:1 counts no fan-out" before (fanouts ());
  check_bool "~jobs:1 runs on the caller" true (Array.for_all (fun d -> d = main) domains);
  ignore (Parallel.map_array ~jobs:2 (fun _ () -> ()) (Array.make 2 ()));
  check_int "~jobs:2 counts one" (before + 1) (fanouts ())

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          case "determinism" test_prng_determinism;
          case "seed sensitivity" test_prng_seed_sensitivity;
          case "split independence" test_prng_split_independent;
          case "int bounds" test_prng_int_bounds;
          case "int invalid" test_prng_int_invalid;
          case "pinned draws" test_prng_pinned_draws;
          case "int allocation-free" test_prng_int_allocation_free;
          case "int_in" test_prng_int_in;
          case "unit_float" test_prng_unit_float;
          case "float bound" test_prng_float_bound;
          case "bernoulli extremes" test_prng_bernoulli_extremes;
          case "bernoulli rate" test_prng_bernoulli_rate;
          case "choose" test_prng_choose;
          case "choose_weighted" test_prng_choose_weighted;
          case "shuffle permutation" test_prng_shuffle_permutation;
          qcheck prop_shuffle_preserves_multiset;
          qcheck prop_int_uniformish;
        ] );
      ( "dist",
        [
          case "constant" test_dist_constant;
          case "uniform bounds" test_dist_uniform_bounds;
          case "zipf mass" test_dist_zipf_mass;
          case "zipf bounds" test_dist_zipf_bounds;
          case "zipf empirical" test_dist_zipf_empirical;
          case "weighted" test_dist_weighted;
          case "scaled" test_dist_scaled;
          case "mean_estimate" test_dist_mean_estimate;
        ] );
      ( "stats",
        [
          case "mean" test_stats_mean;
          case "median" test_stats_median;
          case "min/max/sum" test_stats_min_max_sum;
          case "ratio/pct" test_stats_ratio_pct;
        ] );
      ( "histogram",
        [
          case "invalid shapes" test_hist_invalid;
          case "log2" test_hist_log2;
          case "explicit" test_hist_explicit;
          case "add_many / fraction" test_hist_add_many_fraction;
          case "merge" test_hist_merge;
          case "labels" test_hist_labels;
        ] );
      ( "memo",
        [
          case "digest ignores sharing" test_memo_digest_ignores_sharing;
          case "racing builders share one value" test_memo_race;
          case "registry counters" test_memo_counters;
          case "clear empties the table" test_memo_clear;
          case "single flight: one build, one miss" test_memo_single_flight;
          case "a raising build releases its key" test_memo_raise_releases;
          case "batched claims" test_memo_build_all;
        ] );
      ( "parallel",
        [
          case "nested fan-outs == Array.mapi" test_pool_nested;
          case "nested exception after siblings" test_pool_nested_exception;
          case "one job runs inline" test_pool_one_job_inline;
        ] );
      ( "table+chart",
        [
          case "render" test_table_render;
          case "arity" test_table_arity;
          case "cells" test_table_cells;
          case "bars" test_chart_bars;
        ] );
    ]
