(** ASCII table rendering for experiment reports. *)

type align = Left | Right

(** A typed cell.  [Float (d, x)] and [Pct (d, x)] carry the decimals
    they render with; [Pct] holds a percentage (0-100), not a fraction. *)
type cell = Int of int | Float of int * float | Pct of int * float | Text of string

type row = Cells of cell list | Separator

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> cell list -> unit
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

val cell_text : cell -> string
(** A cell as the text renderer prints it: [Int] with thousands
    separators ("1,234"), [Float (d, x)] as [%.*f], [Pct (d, x)] the same
    with a trailing [%], [Text] verbatim. *)

val render_rows : ?title:string -> (string * align) list -> row list -> string
(** A table given as its parts (trailing newline included): the renderer
    behind {!render}, for a table that lives on as data, such as a report
    item. *)

val render : t -> string
(** The table as a string (trailing newline included). *)

val print : t -> unit
(** [render] to stdout. *)
