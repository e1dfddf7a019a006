(* Text serialization of execution profiles, enabling the paper's actual
   deployment workflow: profile a machine once (possibly merging several
   sessions), archive the profile, and rebuild layouts later without
   re-tracing.

     # icache-opt profile v1
     shape 42392 47978
     invocations 1234
     b 17 4096        (block 17 executed 4096 times)
     a 33 512         (arc 33 taken 512 times)

   Zero entries are omitted; counts are printed with enough precision to
   round-trip averaged (fractional) profiles. *)

let format_version = "icache-opt profile v1"

let write_channel oc ~graph:g (p : Profile.t) =
  Printf.fprintf oc "# %s\n" format_version;
  Printf.fprintf oc "shape %d %d\n" (Graph.block_count g) (Graph.arc_count g);
  Printf.fprintf oc "invocations %.17g\n" p.Profile.invocations;
  Array.iteri
    (fun b w -> if w > 0.0 then Printf.fprintf oc "b %d %.17g\n" b w)
    p.Profile.block;
  Array.iteri
    (fun a w -> if w > 0.0 then Printf.fprintf oc "a %d %.17g\n" a w)
    p.Profile.arc

let to_string ~graph (p : Profile.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" format_version);
  Buffer.add_string buf
    (Printf.sprintf "shape %d %d\n" (Graph.block_count graph) (Graph.arc_count graph));
  Buffer.add_string buf (Printf.sprintf "invocations %.17g\n" p.Profile.invocations);
  Array.iteri
    (fun b w ->
      if w > 0.0 then Buffer.add_string buf (Printf.sprintf "b %d %.17g\n" b w))
    p.Profile.block;
  Array.iteri
    (fun a w ->
      if w > 0.0 then Buffer.add_string buf (Printf.sprintf "a %d %.17g\n" a w))
    p.Profile.arc;
  Buffer.contents buf

let of_string ~graph:g s =
  let blocks = Graph.block_count g and arcs = Graph.arc_count g in
  let block = Array.make blocks 0.0 and arc = Array.make arcs 0.0 in
  let invocations = ref 0.0 in
  let fail lineno msg =
    invalid_arg (Printf.sprintf "Profile_file: line %d: %s" lineno msg)
  in
  let num lineno s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 -> v
    | Some _ -> fail lineno "negative count"
    | None -> fail lineno (Printf.sprintf "bad number %S" s)
  in
  let idx lineno bound s =
    match int_of_string_opt s with
    | Some v when v >= 0 && v < bound -> v
    | Some _ -> fail lineno "index out of range"
    | None -> fail lineno (Printf.sprintf "bad index %S" s)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | [ "shape"; b; a ] ->
            if idx lineno (blocks + 1) b <> blocks || idx lineno (arcs + 1) a <> arcs
            then fail lineno "profile shape does not match the graph"
        | [ "invocations"; n ] -> invocations := num lineno n
        | [ "b"; b; w ] ->
            let b = idx lineno blocks b in
            block.(b) <- block.(b) +. num lineno w
        | [ "a"; a; w ] ->
            let a = idx lineno arcs a in
            arc.(a) <- arc.(a) +. num lineno w
        | _ -> fail lineno "malformed line")
    (String.split_on_char '\n' s);
  Profile.of_counts ~block ~arc ~invocations:!invocations

let save path ~graph p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel oc ~graph p)

let load path ~graph =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let s = really_input_string ic (in_channel_length ic) in
      of_string ~graph s)
