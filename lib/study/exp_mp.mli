(** Multiprocessor validation (the paper's 4-CPU, one-cache-per-processor
    methodology): per-CPU miss rates under Base and OptS with
    cross-processor interrupt coupling. *)

type row = {
  workload : string;
  base_rates : float array;  (** Per CPU. *)
  opt_rates : float array;
  forced_share : float;
}

val cpus : int

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
