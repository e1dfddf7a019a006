(** ASCII table rendering for experiment reports. *)

type align = Left | Right

type row = Cells of string list | Separator

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from the
    header. *)

val add_separator : t -> unit
(** Append a horizontal rule between rows. *)

val title : t -> string option

val columns : t -> (string * align) list
(** The header cells with their alignments, in column order. *)

val row_list : t -> row list
(** The accumulated rows in insertion order (snapshot for the structured
    report algebra). *)

val render : t -> string
(** The table as a string (trailing newline included). *)

val print : t -> unit
(** [render] to stdout. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float cell (default 2 decimals). *)

val cell_pct : ?decimals:int -> float -> string
(** Format a percentage cell with a trailing [%]. *)

val cell_i : int -> string
(** Format an int cell with thousands separators. *)
