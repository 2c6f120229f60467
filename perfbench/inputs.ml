(* Workload inputs, a pure function of the seed.

   Seed 42 reads the checked-in corpora, whose labels come from the
   engine-matrix audit rather than from the code being measured; any
   other seed regenerates corpora of the same stratum profile with
   [Corpus.generate].  The Shannon n=6 family is always generated here.
   Decisions receive only what a caller would send: query text, or raw
   [(mask, coefficient)] sides. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_check

type check = { q1 : string; q2 : string; label : string }
type iip = { n : int; sides : (Varset.t * Rat.t) list list; label : string }

let checked_in_seed = 42

let corpus kind ~seed ~total ~file =
  if seed = checked_in_seed then
    match Corpus.load file with
    | Ok (_, insts) -> insts
    | Error msg -> failwith msg
  else Corpus.generate kind ~seed ~total

let check_corpus ~seed =
  corpus Corpus.Check ~seed ~total:10_000 ~file:"corpus/check-10k.jsonl"
  |> List.map (fun inst ->
         match inst.Corpus.payload with
         | Corpus.Check_pair { q1; q2 } ->
           { q1 = Query.to_string q1; q2 = Query.to_string q2;
             label = inst.Corpus.verdict }
         | Corpus.Iip_sides _ -> failwith "check corpus holds an IIP instance")
  |> Array.of_list

let iip_corpus ~seed =
  corpus Corpus.Iip ~seed ~total:2_000 ~file:"corpus/iip-2k.jsonl"
  |> List.map (fun inst ->
         match inst.Corpus.payload with
         | Corpus.Iip_sides { n; sides } -> { n; sides; label = inst.Corpus.verdict }
         | Corpus.Check_pair _ -> failwith "iip corpus holds a containment pair")
  |> Array.of_list

(* Two-sided Max-IIPs over [n] variables.  Side 1 is a positive
   combination of 3–6 elemental Shannon inequalities, hence non-negative
   on all of Γn: every instance is valid by construction, and its label
   does not come from the code under test.  Side 2 is another such
   combination minus h(V), which need not be valid on its own, so the Γn
   LP has to find which side carries the proof.  The number of rows per side
   cycles with the index rather than being drawn, so every run holds the
   same mix of sizes: cost grows steeply with side 1's row count, and a
   drawn mix would move the percentiles from seed to seed. *)
let shannon ~seed ~n ~count =
  let elems = Cones.elemental ~n in
  let hv = Linexpr.term (Varset.full n) in
  Array.init count (fun i ->
      let rng = Rng.derive seed i in
      let combo rows =
        List.fold_left
          (fun acc _ ->
            let c = Rat.of_ints (Rng.range rng 1 3) (Rng.range rng 1 2) in
            Linexpr.add acc (Linexpr.scale c (Rng.choose rng elems)))
          Linexpr.zero
          (List.init rows Fun.id)
      in
      let side1 = combo (3 + (i mod 4)) in
      let side2 = Linexpr.sub (combo (3 + (i / 4 mod 4))) hv in
      { n; sides = [ Linexpr.terms side1; Linexpr.terms side2 ]; label = "valid" })
