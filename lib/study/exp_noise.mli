(** Profile-quality sensitivity (beyond the paper): OptS rebuilt from a
    multiplicatively perturbed profile, evaluated on the clean traces,
    as the perturbation spread grows. *)

val perturb : seed:int -> spread:float -> Profile.t -> Profile.t
(** Every block and arc count multiplied by [exp (u *. spread)], [u]
    uniform in [-1, 1) from a PRNG seeded with [seed]; zero counts stay
    zero. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
