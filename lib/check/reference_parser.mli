(** The two-pass query parser (a token list, then a recursive descent
    with a speculative head parse), kept as the reference for
    {!Bagcqc_cq.Parser} in the [parser] fuzz suite and the parser
    tests.  Not used by any decision procedure. *)

val parse_result : string -> (Bagcqc_cq.Query.t, string) result
(** What {!Bagcqc_cq.Parser.parse_result} must return on every string:
    the same query, variable names and head, or the same message. *)
