(** Minimal ASCII bar charts for rendering the paper's figures in
    experiment reports. *)

val bars : ?title:string -> (string * float) list -> string
(** [bars series] renders one horizontal bar per (label, value), scaled to
    the maximum value: the largest bar is 50 characters wide, and each
    value prints with three decimals. *)
