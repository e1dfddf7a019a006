(** Figure 5: loops with procedure calls - iterations per invocation and
    static size of the executed part including callee descendants. *)

type result = {
  loop_count : int;
  iters_le_10_pct : float;
  median_size_bytes : float;
  max_size_bytes : int;
  iteration_bins : (string * int) list;
  size_bins : (string * int) list;
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
