(* Bars are at most 50 characters wide; values print as [%.3f]. *)
let width = 50

let bars ?title series =
  let buf = Buffer.create 512 in
  (match title with None -> () | Some t -> Buffer.add_string buf (t ^ "\n"));
  let scale = List.fold_left (fun acc (_, v) -> max acc v) 0.0 series in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 series
  in
  List.iter
    (fun (label, v) ->
      let bar_len =
        if scale <= 0.0 then 0
        else int_of_float (Float.round (v /. scale *. float_of_int width))
      in
      let bar_len = if v > 0.0 && bar_len = 0 then 1 else bar_len in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s |%s %.3f\n" label_width label
           (String.make (max 0 bar_len) '#')
           v))
    series;
  Buffer.contents buf
