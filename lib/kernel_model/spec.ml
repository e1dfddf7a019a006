type t = {
  seed : int;
  leaf_count : int;
  sub_mid_count : int;
  mid_count : int;
  handler_counts : int array;
  cold_count : int;
  zipf_callee : float;
  loop_iters_plain : (int * float) array;
  loop_iters_call : (int * float) array;
}

let default =
  {
    seed = 42;
    leaf_count = 40;
    sub_mid_count = 120;
    mid_count = 260;
    handler_counts = [| 12; 8; 60; 15 |];
    cold_count = 1300;
    zipf_callee = 1.25;
    loop_iters_plain =
      [|
        (2, 0.20); (3, 0.10); (4, 0.15); (6, 0.15); (8, 0.10); (12, 0.10);
        (20, 0.10); (30, 0.05); (60, 0.05);
      |];
    loop_iters_call =
      [|
        (2, 0.25); (3, 0.20); (4, 0.15); (6, 0.15); (8, 0.10); (10, 0.08);
        (15, 0.04); (25, 0.03);
      |];
  }

let small =
  {
    default with
    leaf_count = 12;
    sub_mid_count = 16;
    mid_count = 24;
    handler_counts = [| 4; 3; 8; 3 |];
    cold_count = 60;
  }
