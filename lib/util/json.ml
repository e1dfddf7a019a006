type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)
(* ------------------------------------------------------------------ *)

let float_repr f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    (* Shortest of %.15g/%.16g/%.17g that survives a parse. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(minify = false) v =
  let buf = Buffer.create 1024 in
  let newline indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let sep () = if minify then Buffer.add_char buf ':' else Buffer.add_string buf ": " in
  let rec emit indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
          Buffer.add_string buf "null"
        else Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            emit (indent + 2) item)
          items;
        newline indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            escape_string buf k;
            sep ();
            emit (indent + 2) item)
          fields;
        newline indent;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

(* JSON's number grammar, [-]? (0 | [1-9][0-9]* ) ([.][0-9]+)?
   ([eE][+-]?[0-9]+)?, over a token the scanner took: OCaml's own
   conversions also take [.5], [1.] and [01], which JSON does not have. *)
let number_grammar tok =
  let n = String.length tok and i = ref 0 in
  let eat c = !i < n && tok.[!i] = c && (incr i; true) in
  let digits () =
    let from = !i in
    while !i < n && tok.[!i] >= '0' && tok.[!i] <= '9' do incr i done;
    !i - from
  in
  ignore (eat '-');
  let zero = !i < n && tok.[!i] = '0' in
  let whole = digits () in
  let int_ok = whole = 1 || (whole > 1 && not zero) in
  let frac_ok = (not (eat '.')) || digits () > 0 in
  let exp_ok = (not (eat 'e' || eat 'E')) || (ignore (eat '+' || eat '-'); digits () > 0) in
  int_ok && frac_ok && exp_ok && !i = n

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; loop ()
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '/' -> Buffer.add_char buf '/'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | 'r' -> Buffer.add_char buf '\r'; loop ()
          | 't' -> Buffer.add_char buf '\t'; loop ()
          | 'b' -> Buffer.add_char buf '\b'; loop ()
          | 'f' -> Buffer.add_char buf '\012'; loop ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              (* Exactly four hex digits; the error is at the first other byte. *)
              let code = ref 0 in
              for _ = 1 to 4 do
                let d =
                  match s.[!pos] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape"
                in
                code := (!code lsl 4) lor d;
                advance ()
              done;
              let code = !code in
              (* Encode the code point as UTF-8 (code points we emit are
                 always < 0x20, i.e. single bytes). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              loop ()
          | _ -> fail "unknown escape")
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digit () =
      match peek () with
      | Some ('0' .. '9') -> advance (); true
      | _ -> false
    in
    while digit () do () done;
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      while digit () do () done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        while digit () do () done
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if tok = "" || tok = "-" then fail "expected number";
    if not (number_grammar tok) then begin
      pos := start;
      fail (Printf.sprintf "malformed number %S" tok)
    end;
    match (if !is_float then None else int_of_string_opt tok) with
    | Some i -> Int i
    | None -> Float (float_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_obj = function Obj kvs -> Some kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

let field conv owner name j =
  match member name j with
  | None -> fail "%s: missing %s" owner name
  | Some v -> ( match conv v with Some x -> x | None -> fail "%s %s: wrong type" owner name)

let decode f = try Ok (f ()) with Decode_error msg -> Error msg
