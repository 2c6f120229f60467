(** Concrete syntax for conjunctive queries.

    Datalog-style:
    {[
      Q(x,z) :- R(x,y), S(y,z), T(z,z).
      Q() :- R(x,y), R(y,x)
      R(x,y), S(y,z)                      (* headless = Boolean *)
    ]}
    Identifiers are made of letters, digits, [_] and ['].  A head is
    optional; an empty head [Q()] is the Boolean query.  [true] as the
    whole body is the empty body (the printer's form for a query with no
    atoms) unless it opens an atom, as in [true(x)].  The trailing period
    is optional.

    Variables are numbered by first occurrence: the head's first, then
    the body's in reading order.

    Parsing is one pass over the string, in time linear in its length
    (variable and relation names are looked up by hashing, never by a
    scan of the names seen so far), and a name is copied out of the
    string only on its first occurrence. *)

exception Parse_error of string
(** Carries a human-readable message.  A lexical error (a character
    outside the syntax, or a [:] not followed by [-]) reads
    ["at offset N: ..."] with the byte offset of the first one in the
    string, and it is reported in preference to any grammar or
    validation error, wherever that occurs.  Other messages carry no
    position: a grammar error names what was expected, and
    {!Query.make}'s rejections keep its message. *)

val parse : string -> Query.t
(** @raise Parse_error on malformed input — including inputs the
    tokenizer and grammar accept but {!Query.make} rejects (too many
    variables, inconsistent relation arities: the first atom whose
    arity differs from its relation's first use is named), a head
    variable that does not occur in the body, and body atoms with no
    arguments.  Duplicate head variables are legal ([Q(x,x) :- R(x,y)]
    outputs the tuple [(x,x)]). *)

val parse_result : string -> (Query.t, string) result
(** Total: returns [Error _] on every malformed input and never raises,
    whatever the string (the differential fuzzer checks exactly that). *)
