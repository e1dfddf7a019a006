(** Minimal ASCII bar charts for rendering the paper's figures in
    experiment reports. *)

val bars :
  ?width:int -> ?title:string -> ?value_fmt:(float -> string) ->
  (string * float) list -> string
(** [bars series] renders one horizontal bar per (label, value), scaled to
    the maximum value.  [width] is the maximum bar width in characters
    (default 50). *)

val grouped :
  ?width:int -> ?title:string -> group_header:(string -> string) ->
  (string * (string * float) list) list -> string
(** [grouped groups] renders {!bars}-style output with a header line per
    group, all groups sharing one scale. *)
