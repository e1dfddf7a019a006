open Helpers

(* ------------------------------------------------------------------ *)
(* Speedup: the paper's simple execution-time model (Section 5.2)     *)
(* ------------------------------------------------------------------ *)

let test_speedup_constants () =
  check_float "data ref ratio" 0.3 Speedup.data_ref_ratio;
  check_float "data miss rate" 0.05 Speedup.data_miss_rate;
  Alcotest.(check (array int)) "penalties" [| 10; 30; 50 |] Speedup.penalties

let test_speedup_cpi_formula () =
  (* CPI per instruction reference = 1 + m*P + 0.3 * (1 + 0.05*P), the
     last term prorating data accesses onto instruction references. *)
  let penalty = 30 in
  let m = 0.02 in
  let expected = 1.0 +. (m *. 30.0) +. (0.3 *. (1.0 +. (0.05 *. 30.0))) in
  check_close 1e-9 "cpi" expected
    (Speedup.cycles_per_instruction ~inst_miss_rate:m ~penalty)

let test_speedup_zero_miss_rate () =
  let cpi0 = Speedup.cycles_per_instruction ~inst_miss_rate:0.0 ~penalty:50 in
  let cpi1 = Speedup.cycles_per_instruction ~inst_miss_rate:0.01 ~penalty:50 in
  check_bool "misses cost cycles" true (cpi1 > cpi0)

let test_speedup_speed_increase () =
  let s =
    Speedup.speed_increase ~base_miss_rate:0.05 ~opt_miss_rate:0.02 ~penalty:30
  in
  check_bool "positive when optimized is better" true (s > 0.0);
  let zero =
    Speedup.speed_increase ~base_miss_rate:0.03 ~opt_miss_rate:0.03 ~penalty:30
  in
  check_close 1e-9 "zero when equal" 0.0 zero;
  let neg =
    Speedup.speed_increase ~base_miss_rate:0.02 ~opt_miss_rate:0.05 ~penalty:30
  in
  check_bool "negative when optimized is worse" true (neg < 0.0)

let test_speedup_monotone_in_penalty () =
  let s p = Speedup.speed_increase ~base_miss_rate:0.05 ~opt_miss_rate:0.02 ~penalty:p in
  check_bool "higher penalty, higher gain" true (s 50 > s 30 && s 30 > s 10)

let test_speedup_paper_magnitude () =
  (* The paper: miss-rate drops like 4% -> 1.5% yield ~10-25% gains at a
     30-cycle penalty. *)
  let s =
    Speedup.speed_increase ~base_miss_rate:0.04 ~opt_miss_rate:0.015 ~penalty:30
  in
  check_bool "order of 10-25%" true (s > 8.0 && s < 35.0)

(* ------------------------------------------------------------------ *)
(* Missmap (Figures 1 and 14)                                         *)
(* ------------------------------------------------------------------ *)

let test_missmap_by_address () =
  (* Three blocks at known positions; bin width 1024. *)
  let positions = [| 0; 1000; 2048 |] in
  let sizes = [| 16; 32; 16 |] in
  let misses = [| 5; 7; 11 |] in
  let bins = Missmap.by_address ~positions ~sizes ~misses ~bin:1024 in
  check_int "bin 0 holds blocks at 0 and 1000" 12 bins.(0);
  check_int "bin 2 holds the third block" 11 bins.(2);
  check_int "bin 1 empty" 0 bins.(1);
  check_int "bins sum to the total misses" 23 (Array.fold_left ( + ) 0 bins)

let test_missmap_peaks () =
  let bins = [| 3; 50; 7; 50; 1 |] in
  (match Missmap.peaks bins ~n:2 with
  | [ (i1, c1); (i2, c2) ] ->
      check_int "top counts" 100 (c1 + c2);
      check_bool "indices are the two 50s" true
        (List.sort compare [ i1; i2 ] = [ 1; 3 ])
  | l -> Alcotest.failf "expected 2 peaks, got %d" (List.length l));
  check_close 1e-9 "peak fraction" (100.0 /. 111.0) (Missmap.peak_fraction bins ~n:2)

let test_missmap_peak_fraction_bounds () =
  let bins = [| 1; 2; 3 |] in
  check_close 1e-9 "all bins = 1" 1.0 (Missmap.peak_fraction bins ~n:10);
  check_close 1e-9 "empty" 0.0 (Missmap.peak_fraction [||] ~n:3)

let () =
  Alcotest.run "metrics"
    [
      ( "speedup",
        [
          case "constants" test_speedup_constants;
          case "cpi formula" test_speedup_cpi_formula;
          case "zero miss rate" test_speedup_zero_miss_rate;
          case "speed increase" test_speedup_speed_increase;
          case "monotone in penalty" test_speedup_monotone_in_penalty;
          case "paper magnitude" test_speedup_paper_magnitude;
        ] );
      ( "missmap",
        [
          case "by_address" test_missmap_by_address;
          case "peaks" test_missmap_peaks;
          case "peak fraction bounds" test_missmap_peak_fraction_bounds;
        ] );
    ]
