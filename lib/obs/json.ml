(* Minimal JSON: the repo's one and only JSON dialect.  The build
   environment has no JSON library, so this module serves every JSON
   consumer and producer in the tree: the trace exporters and the report
   reader, the bench comparator (bench/compare.ml) and the serve wire
   protocol (lib/serve/protocol.ml). *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

(* ---------------- printing ---------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
        advance ();
        Buffer.contents buf
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'u' ->
           (* \uXXXX: decode the BMP code point to UTF-8 (surrogate pairs
              are not recombined; the exporter never emits them). *)
           advance ();
           let hex = Buffer.create 4 in
           for _ = 1 to 4 do
             Buffer.add_char hex (peek ());
             advance ()
           done;
           pos := !pos - 1;
           (match int_of_string_opt ("0x" ^ Buffer.contents hex) with
            | Some cp when cp < 0x80 -> Buffer.add_char buf (Char.chr cp)
            | Some cp when cp < 0x800 ->
              Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            | Some cp ->
              Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            | None -> fail "bad \\u escape")
         | _ -> fail "unsupported escape");
        advance ();
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while number_char (peek ()) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((key, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------- accessors ---------------- *)

let find_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let member key v =
  match find_opt key v with
  | Some x -> x
  | None -> raise (Parse_error ("missing field " ^ key))

let as_arr = function Arr l -> l | _ -> raise (Parse_error "expected array")
let as_obj = function Obj l -> l | _ -> raise (Parse_error "expected object")
let as_str = function Str s -> s | _ -> raise (Parse_error "expected string")
let as_num = function Num f -> f | _ -> raise (Parse_error "expected number")
let as_int v = int_of_float (as_num v)
