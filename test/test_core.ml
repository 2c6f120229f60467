(* Test-suite entry point: registers one Alcotest group per module family. *)

let () =
  Alcotest.run "bagcqc"
    [ ("num", Test_num.suite); ("lp", Test_lp.suite); ("engine", Test_engine.suite); ("obs", Test_obs.suite); ("prom", Test_prom.suite); ("entropy", Test_entropy.suite); ("relation", Test_relation.suite); ("cq", Test_cq.suite); ("roundtrip", Test_roundtrip.suite); ("containment", Test_containment.suite); ("domination", Test_domination.suite); ("reduction", Test_reduction.suite); ("refute", Test_refute.suite); ("dependencies", Test_deps.suite); ("group", Test_group.suite); ("bagdb", Test_bagdb.suite); ("cli", Test_cli.suite); ("transport", Test_transport.suite); ("misc", Test_misc.suite); ("treedec", Test_treedec.suite); ("par", Test_par.suite); ("check", Test_check.suite); ("corpus", Test_corpus.suite); ("serve", Test_serve.suite); ("eq8", Test_eq8.suite) ]
