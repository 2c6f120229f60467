(* The two-pass query parser, kept as the reference for
   [Bagcqc_cq.Parser]: it tokenizes the whole string into a list, then
   runs a recursive descent over the tokens that parses a speculative
   head and re-parses the first atom as a body atom when no ':-'
   follows.  The [parser] fuzz suite and the parser tests require the
   production parser to return exactly what this one returns, queries
   and error messages alike.  Not used by any decision procedure. *)

open Bagcqc_cq

exception Parse_error of string

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Period
  | Eof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9') || c = '_' || c = '\''

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" !i msg)) in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then begin toks := Lparen :: !toks; incr i end
    else if c = ')' then begin toks := Rparen :: !toks; incr i end
    else if c = ',' then begin toks := Comma :: !toks; incr i end
    else if c = '.' then begin toks := Period :: !toks; incr i end
    else if c = ':' then begin
      if !i + 1 < n && s.[!i + 1] = '-' then begin
        toks := Turnstile :: !toks;
        i := !i + 2
      end
      else fail "expected ':-'"
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      toks := Ident (String.sub s start (!i - start)) :: !toks
    end
    else fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev (Eof :: !toks)

(* Recursive-descent over the token list. *)
let parse input =
  let toks = ref (tokenize input) in
  let peek () = match !toks with t :: _ -> t | [] -> Eof in
  let advance () = match !toks with _ :: r -> toks := r | [] -> () in
  let fail msg = raise (Parse_error msg) in
  let expect t msg =
    if peek () = t then advance () else fail ("expected " ^ msg)
  in
  let vars = Hashtbl.create 16 in
  let var_order = ref [] in
  let var_index name =
    match Hashtbl.find_opt vars name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length vars in
      Hashtbl.add vars name i;
      var_order := name :: !var_order;
      i
  in
  let parse_var_list () =
    (* Inside parens; possibly empty. *)
    if peek () = Rparen then []
    else begin
      let rec loop acc =
        match peek () with
        | Ident v ->
          advance ();
          let acc = var_index v :: acc in
          if peek () = Comma then begin advance (); loop acc end
          else List.rev acc
        | _ -> fail "expected a variable name"
      in
      loop []
    end
  in
  (* Body atoms must have at least one argument (a 0-ary atom constrains
     nothing and [Query.make] requires every variable to occur in the
     body); an empty {e head} is the ordinary Boolean-query syntax. *)
  let parse_atom ~body () =
    match peek () with
    | Ident rel ->
      advance ();
      expect Lparen "'('";
      let args = parse_var_list () in
      expect Rparen "')'";
      if body && args = [] then
        fail (Printf.sprintf "atom %s() has no arguments" rel);
      { Query.rel; args = Array.of_list args }
    | _ -> fail "expected an atom"
  in
  (* Detect an optional head: Ident '(' ... ')' ':-'. *)
  let head =
    let saved = !toks in
    match peek () with
    | Ident _ ->
      (try
         let a = parse_atom ~body:false () in
         if peek () = Turnstile then begin
           advance ();
           Some (Array.to_list a.Query.args)
         end
         else begin
           toks := saved;
           (* Head variables registered speculatively must be forgotten. *)
           Hashtbl.reset vars;
           var_order := [];
           None
         end
       with Parse_error _ ->
         toks := saved;
         Hashtbl.reset vars;
         var_order := [];
         None)
    | _ -> None
  in
  (* Duplicate head variables are legal: [Q(x,x) :- R(x,y)] outputs the
     tuple [(x,x)], a meaningful shape under bag semantics (and the
     round-trip suite pins that down).  Validation of the head against
     the body happens below and in [Query.make]. *)
  let atoms =
    let rec loop acc =
      let a = parse_atom ~body:true () in
      if peek () = Comma then begin
        advance ();
        loop (a :: acc)
      end
      else List.rev (a :: acc)
    in
    (* [true] is the empty body — the form the printer emits for a query
       with no atoms — unless it opens an atom of a relation named
       "true". *)
    match !toks with
    | Ident "true" :: next :: _ when next <> Lparen ->
      advance ();
      []
    | _ -> if peek () = Period || peek () = Eof then [] else loop []
  in
  if peek () = Period then advance ();
  if peek () <> Eof then fail "trailing input after query";
  let nvars = Hashtbl.length vars in
  let names = Array.make nvars "" in
  List.iter (fun name -> names.(Hashtbl.find vars name) <- name) !var_order;
  List.iter
    (fun v ->
      if not (List.exists (fun a -> Array.exists (( = ) v) a.Query.args) atoms)
      then fail "head variable does not occur in the body")
    (Option.value head ~default:[]);
  (* [Query.make] still validates (variable count against [Varset.max_vars],
     consistent arities, …); surface its rejections as parse errors so
     [parse]'s contract — [Parse_error] on any bad input — is accurate. *)
  match Query.make ?head ~nvars ~names atoms with
  | q -> q
  | exception Invalid_argument msg -> fail msg

let parse_result s =
  match parse s with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
  (* Defense in depth: no current path raises [Invalid_argument] out of
     [parse], but this function is the total entry point the CLI and the
     fuzzer rely on — never raise on a string. *)
  | exception Invalid_argument msg -> Error msg
