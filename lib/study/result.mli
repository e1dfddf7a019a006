(** Typed experiment reports.

    Every experiment's [compute] produces a {!report}: a section banner
    plus an ordered list of {!item}s — tables, labelled series (rendered
    as ASCII bar charts in text mode), named scalars, free-form notes and
    the paper's reference values.  Three renderers consume the same value:

    - {!render_text} reproduces the classic stdout transcript byte for
      byte (the golden tests in [test/test_golden.ml] prove this for all
      experiments);
    - {!to_json} / {!render} with {!Json} emit a machine-readable
      document that {!of_json} parses back to a structurally equal
      report (QCheck round-trip property in [test/test_report.ml]);
    - {!render} with {!Csv} emits flat comma-separated blocks for
      spreadsheet / plotting consumption.

    The module intentionally shadows [Stdlib.Result] inside the
    [icache_study] namespace; the standard module stays reachable as
    [Stdlib.Result]. *)

type item =
  | Table of {
      title : string option;
      columns : (string * Table.align) list;
      rows : Table.row list;
    }
  | Series of { label : string; points : (string * float) list }
  | Scalar of { label : string; value : float; text : string }
  | Note of string
  | Paper_ref of string

type report = { id : string; section : string; items : item list }

type format = Text | Json | Csv

(** {1 Construction} *)

val report : id:string -> section:string -> item list -> report

val of_table : Table.t -> item
(** Snapshot an imperatively built {!Table.t} as a report item. *)

val series : label:string -> (string * float) list -> item

val scalar : label:string -> value:float -> text:string -> item
(** A named number.  [text] is the exact human-readable line the classic
    transcript printed for it (indentation and newline added by the
    renderer), so text output stays byte-identical while JSON/CSV
    consumers get [label]/[value]. *)

val note : ('a, unit, string, item) format4 -> 'a
(** Printf-style free-form remark. *)

val paper : string -> item
(** The paper's reported value/shape for side-by-side comparison. *)

(** {1 Rendering} *)

val render_text : report -> string
(** Byte-identical to the historical [Report]/[Table.print]/[Chart]
    stdout output for the same content. *)

val render : format -> report -> string

val print : report -> unit
(** [render_text] to stdout (the experiment drivers' [run]). *)

val section_banner : string -> string
(** The ["=== title ==="] banner line group that opens every rendered
    report. *)

(** {1 JSON} *)

val to_json : report -> Json.t

val of_json : Json.t -> (report, string) result
(** Inverse of {!to_json}: [of_json (to_json r) = Ok r] for every report
    whose floats are finite. *)

val format_of_string : string -> (format, string) result
(** ["text" | "json" | "csv"], case-insensitive. *)

val format_to_string : format -> string

val extension : format -> string
(** File extension (without dot) used by [--out] directories. *)
