type t = { os : Model.t; apps : App_model.t array }

let os_image = 0

let max_apps = 5

let make ~os ~apps =
  if Array.length apps > max_apps then invalid_arg "Program.make: too many app images";
  { os; apps }

let image_count t = 1 + Array.length t.apps

let check t i =
  if i < 0 || i >= image_count t then invalid_arg "Program: bad image index"

let graph t i =
  check t i;
  if i = 0 then t.os.Model.graph else t.apps.(i - 1).App_model.graph

let arc_prob t i =
  check t i;
  if i = 0 then t.os.Model.arc_prob else t.apps.(i - 1).App_model.arc_prob

let is_os i = i = 0
