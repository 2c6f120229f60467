(* The stratified corpus generator behind the sweep harness: quota
   apportionment, byte-level determinism (same seed => identical file),
   the stratification invariants every checked-in corpus relies on
   (declared verdict = oracle verdict, acyclicity/size/arity match the
   stratum), and the JSONL round-trip. *)

open Bagcqc_cq
open Bagcqc_check

let serialize kind ~seed insts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Corpus.header_line kind ~seed ~count:(List.length insts));
  Buffer.add_char buf '\n';
  List.iter
    (fun i ->
      Buffer.add_string buf (Corpus.instance_line i);
      Buffer.add_char buf '\n')
    insts;
  Buffer.contents buf

let test_quotas () =
  List.iter
    (fun kind ->
      let nstrata = List.length (Corpus.strata kind) in
      List.iter
        (fun total ->
          let qs = Corpus.quotas kind ~total in
          let sum = List.fold_left (fun a (_, q) -> a + q) 0 qs in
          Alcotest.(check int)
            (Printf.sprintf "quotas sum to total=%d" total)
            total sum;
          if total >= nstrata then
            List.iter
              (fun (name, q) ->
                Alcotest.(check bool)
                  (Printf.sprintf "stratum %s non-empty at total=%d" name total)
                  true (q >= 1))
              qs)
        [ 1; nstrata; 37; 100; 1000; 10_000 ])
    [ Corpus.Check; Corpus.Iip ]

let test_determinism () =
  List.iter
    (fun (kind, total) ->
      let a = Corpus.generate kind ~seed:5 ~total in
      let b = Corpus.generate kind ~seed:5 ~total in
      Alcotest.(check string)
        (Corpus.kind_name kind ^ ": same seed, same bytes")
        (serialize kind ~seed:5 a)
        (serialize kind ~seed:5 b);
      let c = Corpus.generate kind ~seed:6 ~total in
      Alcotest.(check bool)
        (Corpus.kind_name kind ^ ": different seed, different corpus")
        false
        (String.equal (serialize kind ~seed:5 a) (serialize kind ~seed:6 c)))
    [ (Corpus.Check, 40); (Corpus.Iip, 16) ]

let stratum_parts name = String.split_on_char '/' name

let check_instance_invariants inst =
  let parts = stratum_parts inst.Corpus.stratum in
  (match inst.Corpus.payload with
   | Corpus.Check_pair { q1; q2 } ->
     Alcotest.(check int) "n is Q1's variable count" (Query.nvars q1)
       inst.Corpus.n;
     Alcotest.(check bool) "acyclic flag matches Treedec"
       (Treedec.is_acyclic q2) inst.Corpus.acyclic
   | Corpus.Iip_sides { n; _ } ->
     Alcotest.(check int) "n recorded" n inst.Corpus.n);
  List.iter
    (fun part ->
      match part with
      | "contained" | "not_contained" | "valid" | "invalid" ->
        Alcotest.(check string) "verdict matches stratum" part
          inst.Corpus.verdict
      | "acyclic" ->
        Alcotest.(check bool) "acyclic stratum" true inst.Corpus.acyclic
      | "cyclic" ->
        Alcotest.(check bool) "cyclic stratum" false inst.Corpus.acyclic
      | "small" ->
        Alcotest.(check bool) "small: n <= 2" true (inst.Corpus.n <= 2)
      | "large" ->
        Alcotest.(check bool) "large: n >= 3" true (inst.Corpus.n >= 3)
      | "ternary" ->
        Alcotest.(check int) "ternary: arity 3" 3 inst.Corpus.arity
      | part when String.length part = 2 && part.[0] = 'n' ->
        Alcotest.(check int) "IIP n from stratum"
          (Char.code part.[1] - Char.code '0')
          inst.Corpus.n
      | _ -> ())
    parts

let test_stratification () =
  List.iter
    (fun (kind, total) ->
      let insts = Corpus.generate kind ~seed:11 ~total in
      Alcotest.(check int) "total honoured" total (List.length insts);
      (* ids are positional *)
      List.iteri
        (fun i inst -> Alcotest.(check int) "positional id" i inst.Corpus.id)
        insts;
      (* per-stratum counts equal the quotas *)
      List.iter
        (fun (name, quota) ->
          let got =
            List.length
              (List.filter (fun i -> String.equal i.Corpus.stratum name) insts)
          in
          Alcotest.(check int) ("quota met for " ^ name) quota got)
        (Corpus.quotas kind ~total);
      List.iter check_instance_invariants insts;
      (* the declared verdict is the oracle's verdict (sampled) *)
      List.iteri
        (fun i inst ->
          if i mod 7 = 0 then
            Alcotest.(check string)
              ("oracle agrees on instance " ^ string_of_int i)
              inst.Corpus.verdict
              (Corpus.oracle inst.Corpus.payload))
        insts)
    [ (Corpus.Check, 40); (Corpus.Iip, 16) ]

let with_temp_file f =
  let path = Filename.temp_file "bagcqc_corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_roundtrip () =
  List.iter
    (fun (kind, total) ->
      let insts = Corpus.generate kind ~seed:3 ~total in
      with_temp_file @@ fun path ->
      let oc = open_out_bin path in
      Corpus.write oc kind ~seed:3 insts;
      close_out oc;
      match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok (header, loaded) ->
        Alcotest.(check string) "kind survives" (Corpus.kind_name kind)
          (Corpus.kind_name header.Corpus.h_kind);
        Alcotest.(check int) "seed survives" 3 header.Corpus.h_seed;
        Alcotest.(check int) "count survives" total header.Corpus.h_count;
        (* Loaded instances re-serialize to the identical bytes: parse /
           print is the identity on corpus files. *)
        Alcotest.(check string) "byte-stable reload"
          (serialize kind ~seed:3 insts)
          (serialize kind ~seed:3 loaded))
    [ (Corpus.Check, 24); (Corpus.Iip, 16) ]

let test_load_errors () =
  with_temp_file @@ fun path ->
  let write text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  write "";
  (match Corpus.load path with
   | Error msg ->
     Alcotest.(check bool) "empty file reported" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "empty file must not load");
  write
    (Corpus.header_line Corpus.Check ~seed:1 ~count:1
     ^ "\n{\"id\":0,\"stratum\":\"x\",\"n\":1,\"arity\":2,\"acyclic\":true,"
     ^ "\"verdict\":\"contained\",\"q1\":\"not a query\",\"q2\":\"Q() :- R(x,y)\"}\n");
  (match Corpus.load path with
   | Error msg ->
     Alcotest.(check bool) "line number in the error" true
       (String.length msg > 0
        && String.split_on_char ':' msg |> List.exists (fun s -> s = "2"))
   | Ok _ -> Alcotest.fail "malformed query must not load")

let suite =
  [ Alcotest.test_case "corpus: quotas apportion exactly" `Quick test_quotas;
    Alcotest.test_case "corpus: same seed, byte-identical corpus" `Quick
      test_determinism;
    Alcotest.test_case "corpus: stratification invariants hold" `Quick
      test_stratification;
    Alcotest.test_case "corpus: JSONL round-trip is byte-stable" `Quick
      test_roundtrip;
    Alcotest.test_case "corpus: malformed files produce located errors"
      `Quick test_load_errors ]
