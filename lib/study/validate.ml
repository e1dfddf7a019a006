exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let field conv what name j =
  match Json.member name j with
  | None -> fail "%s: missing %s" what name
  | Some v -> (
      match conv v with Some x -> x | None -> fail "%s %s: wrong type" what name)

let int = field Json.to_int
let num = field Json.to_float
let str = field Json.to_str

let obj what name j =
  match Json.member name j with
  | Some (Json.Obj kvs) -> kvs
  | _ -> fail "%s: missing %s object" what name

let list what name j =
  match Json.member name j with
  | Some (Json.List l) -> l
  | _ -> fail "%s: missing %s list" what name

(* A registry snapshot; returns its counters. *)
let check_metrics mx =
  let counters =
    List.map
      (fun (n, v) ->
        match Json.to_int v with
        | Some i when i >= 0 -> (n, i)
        | Some i -> fail "metrics counter %s: %d < 0" n i
        | None -> fail "metrics counter %s: not an integer" n)
      (obj "metrics" "counters" mx)
  in
  (* Every Memo counts its lookups as a <name>.hits/.misses/.lookups
     trio; check each trio any of the three names announces. *)
  let trio_prefix n =
    List.find_map
      (fun suffix ->
        if String.ends_with ~suffix n then
          Some (String.sub n 0 (String.length n - String.length suffix))
        else None)
      [ ".hits"; ".misses"; ".lookups" ]
  in
  List.iter
    (fun prefix ->
      let value s = List.assoc_opt (prefix ^ s) counters in
      match (value ".hits", value ".misses", value ".lookups") with
      | Some h, Some m, Some l ->
          if h + m <> l then fail "metrics: %s hits %d + misses %d <> lookups %d" prefix h m l
      | _ -> fail "metrics: incomplete %s hits/misses/lookups trio" prefix)
    (List.sort_uniq compare (List.filter_map (fun (n, _) -> trio_prefix n) counters));
  List.iter
    (fun (n, h) ->
      let what = "metrics histogram " ^ n in
      let count = int what "count" h in
      if count < 0 then fail "%s: count %d < 0" what count;
      let p50 = num what "p50" h and p90 = num what "p90" h and p99 = num what "p99" h in
      if not (p50 <= p90 && p90 <= p99) then
        fail "%s: percentiles not monotone (%g/%g/%g)" what p50 p90 p99;
      if count > 0 then begin
        let min = num what "min" h and max = num what "max" h in
        if not (min <= max) then fail "%s: min > max" what;
        if not (min <= p50 && p99 <= max) then
          fail "%s: percentiles %g/%g outside [%g, %g]" what p50 p99 min max
      end)
    (obj "metrics" "histograms" mx);
  counters

let check_run r =
  ignore (int "run" "spec_seed" r, str "run" "spec_digest" r, int "run" "seed" r);
  ignore (str "run" "context_key" r);
  if int "run" "words" r < 1 then fail "run: words < 1";
  if int "run" "jobs" r < 1 then fail "run: jobs < 1";
  let gc = Option.value ~default:Json.Null (Json.member "gc" r) in
  (* A missing or malformed gc object fails on its first field below. *)
  List.iter
    (fun name ->
      let x = num "gc" name gc in
      if not (x >= 0.0) then fail "gc %s: %g < 0" name x)
    [
      "minor_collections"; "major_collections"; "compactions"; "minor_words";
      "promoted_words"; "major_words"; "heap_words"; "top_heap_words";
    ]

let manifest_fields = [ "schema_version"; "run"; "stages"; "batch"; "metrics" ]

(* Returns the number of stages. *)
let check_manifest m =
  (match m with
  | Json.Obj kvs when List.sort compare (List.map fst kvs) = List.sort compare manifest_fields -> ()
  | _ -> fail "manifest: fields must be exactly %s" (String.concat ", " manifest_fields));
  let part name = Option.get (Json.member name m) in
  let version = int "manifest" "schema_version" m in
  if version <> 5 then fail "manifest: schema_version %d, expected 5" version;
  if part "run" <> Json.Null then check_run (part "run");
  let stages = list "manifest" "stages" m in
  let names =
    List.map
      (fun s ->
        let name = str "stage" "name" s in
        let what = "stage " ^ name in
        let count = int what "count" s and seconds = num what "seconds" s in
        if count < 1 then fail "%s: count %d < 1" what count;
        if not (seconds >= 0.0) then fail "%s: seconds %g < 0" what seconds;
        name)
      stages
  in
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "stages: a name appears twice";
  let counters = check_metrics (part "metrics") in
  let batch = part "batch" in
  let b f =
    let v = int "batch" f batch in
    let c = Option.value ~default:0 (List.assoc_opt ("batch." ^ f) counters) in
    if v <> c then fail "batch: %s %d <> metrics counter batch.%s %d" f v f c;
    v
  in
  List.iter (fun f -> ignore (b f)) Manifest.batch_fields;
  if b "cache_hits" + b "simulated" > b "members" then
    fail "batch: cache_hits %d + simulated %d > members %d" (b "cache_hits") (b "simulated")
      (b "members");
  List.length stages

let check_trace doc =
  let ok = function Ok x -> x | Error e -> fail "%s" e in
  let events = ok (Trace_log.of_chrome doc) in
  let spans =
    ok
      (Trace_log.fold_spans
         (fun n (b : Trace_log.event) dur ->
           if dur < 0.0 then
             fail "span %s on track %d: negative duration %g" b.Trace_log.name b.Trace_log.track dur;
           n + 1)
         0 events)
  in
  Option.iter (fun mx -> ignore (check_metrics mx)) (Json.member "metrics" doc);
  let tracks = List.sort_uniq compare (List.map (fun (e : Trace_log.event) -> e.track) events) in
  Printf.sprintf "ok: trace with %d event(s), %d span(s), %d track(s)" (List.length events) spans
    (List.length tracks)

let check_repro doc =
  let reports =
    match Json.member "reports" doc with
    | Some (Json.List l) -> l
    | Some _ -> fail "reports: expected a list"
    | None -> (
        match Result.of_json doc with
        | Ok _ -> [ doc ]
        | Error _ -> fail "document has neither a reports list nor a report shape")
  in
  List.iteri
    (fun i r -> match Result.of_json r with Ok _ -> () | Error e -> fail "report %d: %s" i e)
    reports;
  let n = List.length reports in
  match Json.member "manifest" doc with
  | Some m -> Printf.sprintf "ok: %d report(s), manifest with %d stage(s)" n (check_manifest m)
  | None -> Printf.sprintf "ok: %d report(s), no manifest" n

let json doc =
  try
    Ok
      (if Json.member "traceEvents" doc <> None then check_trace doc
       else if Json.member "schema_version" doc <> None then
         Printf.sprintf "ok: manifest with %d stage(s)" (check_manifest doc)
       else check_repro doc)
  with Invalid msg -> Error msg

let of_string text = Stdlib.Result.bind (Json.of_string text) json
