(** Hit/miss accounting with the paper's miss taxonomy: misses of each
    domain (OS or application) split into first-time (cold) misses,
    self-interference and cross-interference (evicted by the other
    domain), as in Figures 1 and 12. *)

type t = {
  mutable refs_os : int;  (** OS instruction-word fetches. *)
  mutable refs_app : int;
  mutable os_cold : int;
  mutable os_self : int;
  mutable os_cross : int;
  mutable app_cold : int;
  mutable app_self : int;
  mutable app_cross : int;
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add dst src] accumulates. *)

val refs : t -> int
val os_misses : t -> int
val app_misses : t -> int
val misses : t -> int
val miss_rate : t -> float
(** Total misses over total word fetches. *)

val copy : t -> t
