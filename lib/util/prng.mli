(** Deterministic pseudo-random number generation.

    The whole reproduction pipeline must be reproducible run-to-run, so we
    implement SplitMix64 explicitly rather than relying on [Random], whose
    sequence is not guaranteed stable across OCaml releases.  A [t] is a
    mutable stream; independent streams are obtained with {!split}. *)

type t

val of_int : int -> t
(** [of_int seed] returns a fresh generator seeded with [seed]. *)

val copy : t -> t
(** [copy g] is a generator with the same state as [g], advancing
    independently afterwards. *)

val split : t -> t
(** [split g] draws from [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of the SplitMix64 stream. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice among the elements.  @raise Invalid_argument on [||]. *)

val choose_weighted : t -> ('a * float) array -> 'a
(** [choose_weighted g choices] picks an element with probability
    proportional to its weight.  Weights must be non-negative and not all
    zero.  @raise Invalid_argument otherwise. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
