(** Figure 16: effect of the SelfConfFree-area size.  Layout variants:
    Base, no SelfConfFree area, and cut-offs of 3.0%, 2.0% and 1.0% of the
    loop-adjusted block invocations; caches of 4, 8 and 16 KB
    (direct-mapped, 32-byte lines).  Misses are normalized to Base. *)

type cell = { variant : string; normalized : float; misses : int }

type row = { size_kb : int; workload : string; cells : cell array }

val variants : (string * float option) array
(** (label, cut-off): None = no SelfConfFree area. *)

val scf_area_bytes : Context.t -> (string * int) array
(** The SelfConfFree area size each cut-off produces. *)

val compute : Context.t -> row array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
