(** Figure 4: loops without procedure calls - distribution of iterations
    per invocation (left) and of the static size of the executed part
    (right).  Union of the four workloads. *)

type result = {
  loop_count : int;
  iters_le_6_pct : float;
  iters_le_25_pct : float;
  max_size_bytes : int;
  iteration_bins : (string * int) list;
  size_bins : (string * int) list;
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
