(** Instruction-cache geometry. *)

type policy =
  | Lru  (** Least-recently-used (the paper's assumption). *)
  | Fifo  (** Replace in insertion order; hits do not refresh. *)
  | Random of int
      (** Replace a uniformly random way; the int seeds the generator so
          simulations stay deterministic. *)

type t = {
  size : int;  (** Total bytes; power of two. *)
  assoc : int;  (** Ways; power of two, [1] = direct-mapped. *)
  line : int;  (** Line size in bytes; power of two. *)
  policy : policy;  (** Replacement policy (irrelevant when [assoc = 1]). *)
}

val make : size_kb:int -> ?assoc:int -> ?line:int -> ?policy:policy -> unit -> t
(** Defaults: direct-mapped, 32-byte lines, LRU (the paper's baseline).
    @raise Invalid_argument on non-power-of-two or inconsistent
    geometry. *)

val v : size:int -> assoc:int -> line:int -> t
(** Raw constructor with the same validation; LRU replacement. *)

val with_policy : t -> policy -> t

val policy_to_string : policy -> string

val sets : t -> int

val to_string : t -> string
(** E.g. ["8KB/1way/32B"]. *)
