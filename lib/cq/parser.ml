exception Parse_error of string

(* One pass over the string: the lexer produces the next token on
   demand, and an identifier is a span of the input, copied out only the
   first time a variable or relation name is seen. *)

type token =
  | Ident  (* the span [start, pos) of the input *)
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Period
  | Eof

let ident_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> '1'
      | _ -> '0')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) = '1'

let span_equal key s i j =
  String.length key = j - i
  &&
  let k = ref 0 in
  while !k < j - i && key.[!k] = s.[i + !k] do incr k done;
  !k = j - i

(* ---------------- names interned by their span ---------------- *)

(* Open addressing with linear probing: [slots] holds an id + 1, or 0
   when free, and is kept at most half full, so a lookup costs the name's
   length and allocates nothing. *)
type table = {
  mutable keys : string array;  (* [keys.(id)], for [id < count] *)
  mutable count : int;
  mutable slots : int array;
}

(* Array literals are allocated inline, without a call into the runtime. *)
let table () =
  { keys = [| ""; ""; ""; "" |]; count = 0; slots = [| 0; 0; 0; 0; 0; 0; 0; 0 |] }

(* FNV-1a over the span's bytes, with the high bits folded into the low
   ones, which pick the slot. *)
let hash s i j =
  let h = ref 0x811c9dc5 in
  for k = i to j - 1 do
    h := (!h lxor Char.code s.[k]) * 16777619
  done;
  !h lxor (!h lsr 16)

let rec free_slot slots p =
  if slots.(p) = 0 then p else free_slot slots ((p + 1) land (Array.length slots - 1))

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap "" in
  Array.blit t.keys 0 keys 0 t.count;
  let slots = Array.make (2 * cap) 0 in
  for id = 0 to t.count - 1 do
    let k = keys.(id) in
    slots.(free_slot slots (hash k 0 (String.length k) land (2 * cap - 1))) <- id + 1
  done;
  t.keys <- keys;
  t.slots <- slots

(* The id of the name [s.[i .. j-1]], numbered by first occurrence,
   probing from slot [p]. *)
let rec probe t s i j p =
  let e = t.slots.(p) in
  if e = 0 then
    if 2 * (t.count + 1) > Array.length t.slots then begin
      grow t;
      probe t s i j (hash s i j land (Array.length t.slots - 1))
    end
    else begin
      let id = t.count in
      t.keys.(id) <- String.sub s i (j - i);
      t.count <- id + 1;
      t.slots.(p) <- id + 1;
      id
    end
  else if span_equal t.keys.(e - 1) s i j then e - 1
  else probe t s i j ((p + 1) land (Array.length t.slots - 1))

let intern t s i j = probe t s i j (hash s i j land (Array.length t.slots - 1))

(* ---------------- lexer ---------------- *)

type st = {
  s : string;
  mutable pos : int;  (* first byte after the current token *)
  mutable tok : token;
  mutable start : int;  (* first byte of the current [Ident] *)
  vars : table;
  rels : table;
  mutable args : int array;  (* argument buffer for the atom being read *)
  mutable nhead : int;  (* head variables are [0 .. nhead-1] *)
  mutable unseen : int;  (* head variables not yet seen in the body *)
  mutable seen : Bytes.t;
}

let lexical_error i msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" i msg))

let advance st =
  let s = st.s in
  let n = String.length s in
  let i = ref st.pos in
  while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    incr i
  done;
  let i = !i in
  if i >= n then begin
    st.tok <- Eof;
    st.pos <- n
  end
  else
    match s.[i] with
    | '(' -> st.tok <- Lparen; st.pos <- i + 1
    | ')' -> st.tok <- Rparen; st.pos <- i + 1
    | ',' -> st.tok <- Comma; st.pos <- i + 1
    | '.' -> st.tok <- Period; st.pos <- i + 1
    | ':' ->
      if i + 1 < n && s.[i + 1] = '-' then begin
        st.tok <- Turnstile;
        st.pos <- i + 2
      end
      else lexical_error i "expected ':-'"
    | c when is_ident_char c ->
      let j = ref (i + 1) in
      while !j < n && is_ident_char s.[!j] do incr j done;
      st.tok <- Ident;
      st.start <- i;
      st.pos <- !j
    | c -> lexical_error i (Printf.sprintf "unexpected character %C" c)

(* A grammar error.  Every lexical error outranks it, wherever it is in
   the string, so the rest of the input is lexed first: [advance] raises
   on the first lexical error after the current token, and there is none
   before it. *)
let fail st msg =
  while st.tok <> Eof do advance st done;
  raise (Parse_error msg)

(* ---------------- grammar ---------------- *)

(* The variable list after '(', from its [k]-th variable on; returns its
   length.  Head variables seen here are marked (the head itself is read
   while [nhead] is still 0). *)
let rec var_list st k =
  if st.tok <> Ident then fail st "expected a variable name";
  let v = intern st.vars st.s st.start st.pos in
  if v < st.nhead && Bytes.get st.seen v = '\000' then begin
    Bytes.set st.seen v '\001';
    st.unseen <- st.unseen - 1
  end;
  if k = Array.length st.args then begin
    let a = Array.make (2 * k) 0 in
    Array.blit st.args 0 a 0 k;
    st.args <- a
  end;
  st.args.(k) <- v;
  advance st;
  if st.tok = Comma then begin
    advance st;
    var_list st (k + 1)
  end
  else k + 1

(* After '(': the variables and ')'. *)
let args st =
  let k = if st.tok = Rparen then 0 else var_list st 0 in
  if st.tok <> Rparen then fail st "expected ')'";
  advance st;
  Array.sub st.args 0 k

(* Body atoms must have at least one argument (a 0-ary atom constrains
   nothing and [Query.make] requires every variable to occur in the
   body); an empty {e head} is the ordinary Boolean-query syntax. *)
let body_atom st i j args =
  if Array.length args = 0 then
    fail st (Printf.sprintf "atom %s() has no arguments" (String.sub st.s i (j - i)));
  let r = intern st.rels st.s i j in
  { Query.rel = st.rels.keys.(r); args }

(* The relation name [s.[i .. j-1]] has been read. *)
let atom_after_name st i j =
  if st.tok <> Lparen then fail st "expected '('";
  advance st;
  body_atom st i j (args st)

let rec more_atoms st acc =
  if st.tok = Comma then begin
    advance st;
    if st.tok <> Ident then fail st "expected an atom";
    let i = st.start and j = st.pos in
    advance st;
    more_atoms st (atom_after_name st i j :: acc)
  end
  else List.rev acc

(* [true] is the empty body — the form the printer emits for a query
   with no atoms — unless it opens an atom of a relation named "true". *)
let body st =
  match st.tok with
  | Period | Eof -> []
  | Ident ->
    let i = st.start and j = st.pos in
    advance st;
    if st.tok <> Lparen && span_equal "true" st.s i j then []
    else more_atoms st [ atom_after_name st i j ]
  | _ -> fail st "expected an atom"

(* The first atom is read once.  It is the head if ':-' follows and the
   first body atom otherwise; variables are numbered by first occurrence
   either way.  Duplicate head variables are legal: [Q(x,x) :- R(x,y)]
   outputs the tuple [(x,x)], a meaningful shape under bag semantics (and
   the round-trip suite pins that down). *)
let parse s =
  let st =
    { s; pos = 0; tok = Eof; start = 0; vars = table (); rels = table ();
      args = [| 0; 0; 0; 0; 0; 0; 0; 0 |]; nhead = 0; unseen = 0; seen = Bytes.empty }
  in
  advance st;
  let head, atoms =
    match st.tok with
    | Ident ->
      let i = st.start and j = st.pos in
      advance st;
      if st.tok <> Lparen then
        if span_equal "true" s i j then (None, []) else fail st "expected '('"
      else begin
        advance st;
        let a = args st in
        if st.tok = Turnstile then begin
          advance st;
          st.nhead <- st.vars.count;
          st.unseen <- st.vars.count;
          if st.nhead > 0 then st.seen <- Bytes.make st.nhead '\000';
          (Some (Array.to_list a), body st)
        end
        else (None, more_atoms st [ body_atom st i j a ])
      end
    | Period | Eof -> (None, [])
    | _ -> fail st "expected an atom"
  in
  if st.tok = Period then advance st;
  if st.tok <> Eof then fail st "trailing input after query";
  (* The whole string has been lexed, so no lexical error is pending. *)
  if st.unseen > 0 then raise (Parse_error "head variable does not occur in the body");
  let nvars = st.vars.count in
  let names = Array.sub st.vars.keys 0 nvars in
  (* [Query.make] still validates (variable count against [Varset.max_vars],
     consistent arities, …); surface its rejections as parse errors so
     [parse]'s contract — [Parse_error] on any bad input — is accurate. *)
  match Query.make ?head ~nvars ~names atoms with
  | q -> q
  | exception Invalid_argument msg -> raise (Parse_error msg)

let parse_result s =
  match parse s with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
  (* Defense in depth: no current path raises [Invalid_argument] out of
     [parse], but this function is the total entry point the CLI and the
     fuzzer rely on — never raise on a string. *)
  | exception Invalid_argument msg -> Error msg
