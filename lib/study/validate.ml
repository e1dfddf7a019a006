(* A registry snapshot; returns its counters. *)
let check_metrics mx =
  let part name = Json.field Json.to_obj "metrics" name mx in
  let counters =
    List.map
      (fun (n, v) ->
        match Json.to_int v with
        | Some i when i >= 0 -> (n, i)
        | Some i -> Json.fail "metrics counter %s: %d < 0" n i
        | None -> Json.fail "metrics counter %s: not an integer" n)
      (part "counters")
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
          if h + m <> l then
            Json.fail "metrics: %s hits %d + misses %d <> lookups %d" prefix h m l
      | _ -> Json.fail "metrics: incomplete %s hits/misses/lookups trio" prefix)
    (List.sort_uniq compare (List.filter_map (fun (n, _) -> trio_prefix n) counters));
  List.iter
    (fun (n, h) ->
      let what = "metrics histogram " ^ n in
      let num f = Json.field Json.to_float what f h in
      let count = Json.field Json.to_int what "count" h in
      if count < 0 then Json.fail "%s: count %d < 0" what count;
      (* Every field of the schema, so trace-summary can print any of them. *)
      ignore (Json.field Json.to_str what "unit" h, num "sum", num "mean");
      let min = num "min" and max = num "max" in
      let p50 = num "p50" and p90 = num "p90" and p99 = num "p99" in
      if not (p50 <= p90 && p90 <= p99) then
        Json.fail "%s: percentiles not monotone (%g/%g/%g)" what p50 p90 p99;
      if count > 0 then begin
        if not (min <= max) then Json.fail "%s: min > max" what;
        if not (min <= p50 && p99 <= max) then
          Json.fail "%s: percentiles %g/%g outside [%g, %g]" what p50 p99 min max
      end)
    (part "histograms");
  counters

let check_run r =
  let int name = Json.field Json.to_int "run" name r in
  ignore (int "spec_seed", Json.field Json.to_str "run" "spec_digest" r, int "seed");
  ignore (Json.field Json.to_str "run" "context_key" r);
  if int "words" < 1 then Json.fail "run: words < 1";
  if int "jobs" < 1 then Json.fail "run: jobs < 1";
  let gc = Json.field Option.some "run" "gc" r in
  List.iter
    (fun name ->
      let x = Json.field Json.to_float "gc" name gc in
      if not (x >= 0.0) then Json.fail "gc %s: %g < 0" name x)
    Manifest.gc_fields

(* Returns the number of stages. *)
let check_manifest m =
  (match m with
  | Json.Obj kvs when List.sort compare (List.map fst kvs) = List.sort compare Manifest.fields -> ()
  | _ -> Json.fail "manifest: fields must be exactly %s" (String.concat ", " Manifest.fields));
  let part name = Option.get (Json.member name m) in
  let version = Json.field Json.to_int "manifest" "schema_version" m in
  if version <> Manifest.schema_version then
    Json.fail "manifest: schema_version %d, expected %d" version Manifest.schema_version;
  if part "run" <> Json.Null then check_run (part "run");
  let stages = Json.field Json.to_list "manifest" "stages" m in
  let names =
    List.map
      (fun s ->
        let name = Json.field Json.to_str "stage" "name" s in
        let what = "stage " ^ name in
        let count = Json.field Json.to_int what "count" s in
        let seconds = Json.field Json.to_float what "seconds" s in
        if count < 1 then Json.fail "%s: count %d < 1" what count;
        if not (seconds >= 0.0) then Json.fail "%s: seconds %g < 0" what seconds;
        name)
      stages
  in
  if List.length (List.sort_uniq compare names) <> List.length names then
    Json.fail "stages: a name appears twice";
  let counters = check_metrics (part "metrics") in
  let b f =
    let v = Json.field Json.to_int "batch" f (part "batch") in
    let c = Option.value ~default:0 (List.assoc_opt ("batch." ^ f) counters) in
    if v <> c then Json.fail "batch: %s %d <> metrics counter batch.%s %d" f v f c;
    v
  in
  List.iter (fun f -> ignore (b f)) Manifest.batch_fields;
  if b "cache_hits" + b "simulated" > b "members" then
    Json.fail "batch: cache_hits %d + simulated %d > members %d" (b "cache_hits") (b "simulated")
      (b "members");
  List.length stages

let check_trace doc =
  let ok = function Ok x -> x | Error e -> Json.fail "%s" e in
  let events = ok (Trace_log.of_chrome doc) in
  let spans =
    ok
      (Trace_log.fold_spans
         (fun n (b : Trace_log.event) dur ->
           if dur < 0.0 then
             Json.fail "span %s on track %d: negative duration %g" b.Trace_log.name
               b.Trace_log.track dur;
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
    | Some _ -> Json.field Json.to_list "document" "reports" doc
    | None -> (
        match Result.of_json doc with
        | Ok _ -> [ doc ]
        | Error _ -> Json.fail "document has neither a reports list nor a report shape")
  in
  List.iteri
    (fun i r -> match Result.of_json r with Ok _ -> () | Error e -> Json.fail "report %d: %s" i e)
    reports;
  let n = List.length reports in
  match Json.member "manifest" doc with
  | Some m -> Printf.sprintf "ok: %d report(s), manifest with %d stage(s)" n (check_manifest m)
  | None -> Printf.sprintf "ok: %d report(s), no manifest" n

let json doc =
  Json.decode (fun () ->
      if Json.member "traceEvents" doc <> None then check_trace doc
      else if Json.member "schema_version" doc <> None then
        Printf.sprintf "ok: manifest with %d stage(s)" (check_manifest doc)
      else check_repro doc)

let of_string text = Stdlib.Result.bind (Json.of_string text) json
