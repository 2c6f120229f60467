(* The decision pipeline as the benchmark drives it.

   [decide_*] is the production path a caller takes — query text or raw
   sides in, verdict out — and is what the untraced run times.  It hands
   back a re-check closure that the caller runs outside the timed
   region: an exact check of the output that does not trust the LP
   solver or its cache.

   [replay_*] re-runs the same jobs=1 pipeline as separate public calls,
   each wrapped in a ledger span, in the order [Containment.decide] and
   [Maxii.decide] make them:

     Parser.parse, Query.dedup_atoms -> Containment.eq8
       -> Maxii.valid_over Normal -> Containment.witness_from_normal
                                   | Cones.valid_max_cert Gamma *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
open Bagcqc_check

type decided = { verdict : string; recheck : unit -> string option }
(** [recheck ()] is [None] when the output passes its exact check, else
    the reason it does not. *)

(* ---------------- containment ---------------- *)

let check_recheck q1 q2 v () =
  match v with
  | Containment.Contained cert ->
    let ineq = Containment.eq8 q1 q2 in
    if Certificate.proves cert ~n:(Maxii.n_vars ineq) (Maxii.sides ineq) then None
    else Some "certificate does not prove Eq. 8"
  | Containment.Not_contained w -> (
    match Containment.verify_witness q1 q2 w.Containment.p with
    | Some (card, _) when card = w.Containment.card_p -> None
    | _ -> Some "witness fails Containment.verify_witness")
  | Containment.Unknown { reason; _ } -> Some ("unknown: " ^ reason)

let check_verdict = function
  | Containment.Contained _ -> "contained"
  | Containment.Not_contained _ -> "not_contained"
  | Containment.Unknown _ -> "unknown"

let decide_check (c : Inputs.check) =
  let q1 = Parser.parse c.q1 and q2 = Parser.parse c.q2 in
  let v = Containment.decide q1 q2 in
  { verdict = check_verdict v; recheck = check_recheck q1 q2 v }

let replay_check tr (c : Inputs.check) =
  let span layer f = Ledger.span tr layer f in
  let q1, q2 =
    span "cq.parse" (fun () ->
        (Query.dedup_atoms (Parser.parse c.q1), Query.dedup_atoms (Parser.parse c.q2)))
  in
  let ineq = span "core.eq8" (fun () -> Containment.eq8 q1 q2) in
  match span "entropy.normal" (fun () -> Maxii.valid_over Cones.Normal ineq) with
  | Error h -> (
    match span "core.witness" (fun () -> Containment.witness_from_normal q1 q2 h) with
    | Some _ -> ("not_contained", None)
    | None -> ("unknown", None))
  | Ok () -> (
    match
      span "entropy.shannon" (fun () ->
          Cones.valid_max_cert Cones.Gamma ~n:(Maxii.n_vars ineq) (Maxii.sides ineq))
    with
    | Ok (Some cert) -> ("contained", Some cert)
    | Ok None | Error _ -> ("unknown", None))

(* ---------------- Max-IIP ---------------- *)

let iip_recheck ~n sides v () =
  match v with
  | Maxii.Valid cert ->
    if Certificate.proves cert ~n sides then None
    else Some "certificate does not prove the inequality"
  | Maxii.Invalid h ->
    if Polymatroid.is_normal h
       && List.for_all (fun s -> Rat.sign (Polymatroid.eval h s) < 0) sides
    then None
    else Some "refuter is not normal or leaves a side non-negative"
  | Maxii.Unknown _ -> Some "unknown"

let iip_verdict = function
  | Maxii.Valid _ -> "valid"
  | Maxii.Invalid _ -> "invalid"
  | Maxii.Unknown _ -> "unknown"

let decide_iip (i : Inputs.iip) =
  let sides = List.map Corpus.build_side i.sides in
  let v = Maxii.decide (Maxii.general ~n:i.n sides) in
  { verdict = iip_verdict v; recheck = iip_recheck ~n:i.n sides v }

let replay_iip tr (i : Inputs.iip) =
  let span layer f = Ledger.span tr layer f in
  let ii =
    span "entropy.build" (fun () ->
        Maxii.general ~n:i.n (List.map Corpus.build_side i.sides))
  in
  match span "entropy.normal" (fun () -> Maxii.valid_over Cones.Normal ii) with
  | Error _ -> ("invalid", None)
  | Ok () -> (
    match
      span "entropy.shannon" (fun () ->
          Cones.valid_max_cert Cones.Gamma ~n:i.n (Maxii.sides ii))
    with
    | Ok (Some cert) -> ("valid", Some cert)
    | Ok None | Error _ -> ("unknown", None))
