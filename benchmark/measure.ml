(* Host-time helpers: one monotonic clock for every timing the harness
   takes, process CPU time, and order statistics over repeated samples. *)

(* Seconds on bechamel's monotonic clock (CLOCK_MONOTONIC): immune to
   wall-clock adjustments, unlike Unix.gettimeofday. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* User + system CPU seconds of the whole process, every domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median host seconds of [reps] calls of [f], each preceded by [prepare]
   (untimed). *)
let median_time ?(prepare = ignore) ~reps f =
  median
    (List.init reps (fun _ ->
         prepare ();
         snd (time f)))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
