(* Scenario: a cardinality-safe rewrite checker for a SQL optimizer.

   Under bag semantics (SQL's default), replacing a query Q1 by a cheaper
   query Q2 is only safe for upper-bound purposes when Q1 ⊑ Q2, i.e. the
   rewrite can never under-report and the original can never out-count the
   replacement on ANY database.  Chaudhuri-Vardi raised exactly this
   problem for COUNT-GROUP-BY queries; this example uses the library as
   such an oracle on a small workload of candidate rewrites.

   Run with:  dune exec examples/query_optimizer.exe *)

open Bagcqc_cq
open Bagcqc_core

type candidate = {
  name : string;
  original : string;   (* with head variables: a COUNT-GROUP-BY query *)
  rewrite : string;
  expect : string;     (* documentation only *)
}

let workload =
  [ { name = "drop-redundant-self-join";
      original = "Q(x) :- Orders(x,y), Orders(x,y)";
      rewrite = "Q(x) :- Orders(x,y)";
      expect = "equivalent (duplicate atoms collapse under bag-set semantics)" };
    { name = "widen-join-to-star";
      original = "Q(x) :- Orders(x,y)";
      rewrite = "Q(x) :- Orders(x,y), Orders(x,z)";
      expect = "safe upper bound: deg(x) <= deg(x)^2" };
    { name = "narrow-star-to-join";
      original = "Q(x) :- Orders(x,y), Orders(x,z)";
      rewrite = "Q(x) :- Orders(x,y)";
      expect = "UNSAFE: a customer with 2 orders counts 4 vs 2" };
    { name = "triangle-to-vee";
      original = "Q() :- Follows(x,y), Follows(y,z), Follows(z,x)";
      rewrite = "Q() :- Follows(u,v), Follows(u,w)";
      expect = "safe: #triangles <= #vees (Example 4.3)" };
    { name = "path-extension";
      original = "Q() :- Follows(x,y), Follows(y,z)";
      rewrite = "Q() :- Follows(x,y)";
      expect = "UNSAFE: a long path out-counts its edges" } ]

let () =
  Format.printf "cardinality-safe rewrite checking (bag-set semantics)@.@.";
  List.iter
    (fun c ->
      let q1 = Parser.parse c.original in
      let q2 = Parser.parse c.rewrite in
      let verdict =
        match Containment.decide_with_heads ~max_factors:12 q1 q2 with
        | Containment.Contained _ -> "SAFE      (Q1 \xe2\x8a\x91 Q2 proved)"
        | Containment.Not_contained w ->
          Format.asprintf "UNSAFE    (witness: %d vs %d on a %d-row database)"
            w.Containment.card_p w.Containment.hom2
            (Bagcqc_cq.Database.total_rows
               (Containment.witness_db (fst (Bagcqc_cq.Reductions.booleanize q1 q2)) w))
        | Containment.Unknown { reason = _; _ } -> "UNDECIDED (outside the decidable classes)"
      in
      Format.printf "%-28s %s@.    original: %s@.    rewrite:  %s@.    note:     %s@.@."
        c.name verdict c.original c.rewrite c.expect)
    workload
