(** A traced machine's code: the operating-system image plus the
    application images time-sharing it.

    Images are numbered: image 0 is the OS, image [1+k] is [apps.(k)].
    Trace events carry the image index. *)

type t = { os : Model.t; apps : App_model.t array }

val image_count : t -> int

val os_image : int
(** 0. *)

val max_apps : int
(** Image indices above this are reserved for trace markers (5). *)

val graph : t -> int -> Graph.t
(** Graph of an image.  @raise Invalid_argument on a bad index. *)

val arc_prob : t -> int -> float array

val is_os : int -> bool

val make : os:Model.t -> apps:App_model.t array -> t
(** @raise Invalid_argument if there are more than {!max_apps} apps. *)
