(** Small numerical helpers for summarizing measurement arrays. *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val median : float array -> float
(** Median (average of middle two for even length); 0. on the empty array.
    Does not modify its argument. *)

val minimum : float array -> float
val maximum : float array -> float
(** @raise Invalid_argument on the empty array. *)

val sum : float array -> float

val ratio : int -> int -> float
(** [ratio num den] as a float; 0. when [den = 0]. *)

val pct : int -> int -> float
(** [pct num den] = 100 * {!ratio}. *)
