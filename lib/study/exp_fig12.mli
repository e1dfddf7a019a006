(** Figure 12: normalized references (OS vs application) and normalized
    misses under Base / C-H / OptS / OptL / OptA in an 8 KB direct-mapped
    cache with 32-byte lines, with the four-way miss breakdown. *)

type miss_bar = {
  level : Levels.level;
  os_self : int;
  os_cross : int;
  app_cross : int;
  app_self : int;
  total : int;
  normalized : float;  (** Total misses over Base total. *)
}

type row = {
  workload : string;
  os_ref_pct : float;
  bars : miss_bar array;  (** In {!Levels.all} order. *)
}

val compute : Context.t -> row array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
