type t = { histogram : Histogram.t; last_invocation : int; calls : int }

let default_edges = [| 10; 32; 100; 316; 1000; 3162; 10_000; 31_623; 100_000 |]

let measure ~trace ~graph ~routines =
  let histogram = Histogram.explicit default_edges in
  (* Map tracked routines' entry blocks to a dense slot. *)
  let entry_slot = Hashtbl.create 16 in
  List.iteri
    (fun slot r -> Hashtbl.replace entry_slot (Graph.entry_of graph r) slot)
    routines;
  let n = List.length routines in
  let last_pos = Array.make n (-1) in
  let words = ref 0 in
  let last_inv = ref 0 in
  let calls = ref 0 in
  let flush_invocation () =
    Array.iteri
      (fun slot pos ->
        if pos >= 0 then begin
          incr last_inv;
          last_pos.(slot) <- -1
        end)
      last_pos;
    words := 0
  in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Invocation_start _ -> ()
      | Trace.Invocation_end -> flush_invocation ()
      | Trace.Exec { image; block } ->
          if Program.is_os image then begin
            (match Hashtbl.find_opt entry_slot block with
            | Some slot ->
                incr calls;
                if last_pos.(slot) >= 0 then
                  Histogram.add histogram (!words - last_pos.(slot));
                last_pos.(slot) <- !words
            | None -> ());
            words := !words + Block.instruction_words (Graph.block graph block)
          end);
  flush_invocation ();
  { histogram; last_invocation = !last_inv; calls = !calls }
