open Helpers

(* Golden regression tests: every experiment, rendered through the typed
   Result reports and the memoized runner, must match the checked-in
   transcripts byte for byte.  The transcripts were captured from the
   pre-Result printing code, so these tests prove the Text renderer (and
   memoization, and parallelism) never silently changes paper numbers.

   To regenerate after an intended change:
     ICACHE_GOLDEN_WRITE=$PWD/test/golden dune exec test/test_golden.exe
   then inspect the diff and commit the new files. *)

let capture f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "icache_golden" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do incr i done;
  !i

let golden name run () =
  let out = capture (fun () -> run (Lazy.force small_context)) in
  match Sys.getenv_opt "ICACHE_GOLDEN_WRITE" with
  | Some dir ->
      let path = Filename.concat dir (name ^ ".txt") in
      let oc = open_out_bin path in
      output_string oc out;
      close_out oc;
      Printf.eprintf "wrote %s (%d bytes)\n%!" path (String.length out)
  | None ->
      let path = Filename.concat "golden" (name ^ ".txt") in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing %s; regenerate with ICACHE_GOLDEN_WRITE=$PWD/test/golden" path;
      let expect = read_file path in
      if not (String.equal expect out) then begin
        let at = first_diff expect out in
        let context s =
          let lo = max 0 (at - 60) in
          String.sub s lo (min 120 (String.length s - lo))
        in
        Alcotest.failf
          "%s drifted from %s at byte %d (%d vs %d bytes)\n--- golden ---\n%s\n--- got ---\n%s"
          name path at (String.length expect) (String.length out)
          (context expect) (context out)
      end

(* The same run with span tracing enabled.  Tracing must be a pure
   observer: every transcript stays byte-identical to the checked-in
   golden file, which the untraced suite above already equals — so this
   suite proves traced == untraced for all experiments. *)
let traced name run () =
  Trace_log.reset ();
  Trace_log.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace_log.set_enabled false;
      Trace_log.reset ())
    (golden name run)

(* Every number a report shows is a typed cell, so [repro --format json]
   carries it as a JSON number: no table cell or scalar value is a [Text]
   that reads as a plain number.  Labels such as 4KB, 16B or 1way are
   not plain numbers. *)
let plain_number = Str.regexp "^-?[0-9,]+\\(\\.[0-9]+\\)?%?$"

let no_number_in_text (e : Experiments.t) () =
  let r = Experiments.compute e (Lazy.force small_context) in
  let check where = function
    | Table.Text s when Str.string_match plain_number s 0 ->
        Alcotest.failf "%s: %s holds the number %S as text" r.Result.id where s
    | _ -> ()
  in
  List.iter
    (function
      | Result.Table { columns; rows; _ } ->
          List.iteri
            (fun k -> function
              | Table.Separator -> ()
              | Table.Cells cells ->
                  List.iter2
                    (fun (header, _) c -> check (Printf.sprintf "row %d, column %S" k header) c)
                    columns cells)
            rows
      | Result.Scalar { values; _ } ->
          List.iter (fun (label, c) -> check (Printf.sprintf "scalar value %S" label) c) values
      | Result.Series _ | Result.Note _ | Result.Paper_ref _ -> ())
    r.Result.items

let () =
  Alcotest.run "golden"
    [
      ( "experiment-output",
        List.map
          (fun (e : Experiments.t) ->
            case
              (e.Experiments.id ^ " matches checked-in transcript")
              (golden e.Experiments.id (fun ctx -> Result.print (Experiments.compute e ctx))))
          Experiments.all );
      ( "experiment-output-traced",
        List.map
          (fun (e : Experiments.t) ->
            case
              (e.Experiments.id ^ " byte-identical with tracing enabled")
              (traced e.Experiments.id (fun ctx -> Result.print (Experiments.compute e ctx))))
          Experiments.all );
      ( "report-values",
        List.map
          (fun (e : Experiments.t) ->
            case (e.Experiments.id ^ " has no number in a text cell") (no_number_in_text e))
          Experiments.all );
    ]
