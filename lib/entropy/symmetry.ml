(* Variable-permutation symmetry of a cone query (ISSUE 9 / ROADMAP 3).

   A max-inequality over Γn is invariant under any permutation π of the
   n variables applied to every side: the elemental family is closed
   under renaming, so [valid ~n es] iff [valid ~n (π·es)].  We exploit
   that twice:

   - {e canonicalization}: before solving, rename the instance to the
     lexicographically least member of its orbit.  The lazy driver then
     solves the canonical instance, so all n! symmetric variants of a
     query take the same rounds, cuts and pivots.

   - {e orbit cuts}: the stabilizer of the canonical instance maps
     violated elemental inequalities to violated (or about-to-be
     violated) ones, so the separation loop adds a whole orbit of cuts
     per round instead of rediscovering each image one re-solve at a
     time.

   Both come from one sweep, but not over all n! permutations: each
   variable gets a permutation-invariant {e signature} (how it occurs in
   every side), and only the renamings that list variables in signature
   order are tried — one per ordering of each block of equal
   signatures, usually a single candidate.  Beyond {!max_vars} we fall
   back to the trivial group, which costs only the missed sharing. *)

open Bagcqc_num

type perm = int array

let max_vars = 8

let identity n = Array.init n (fun i -> i)
let is_identity p = Array.for_all (fun x -> p.(x) = x) (identity (Array.length p))

let inverse p =
  let q = Array.make (Array.length p) 0 in
  Array.iteri (fun i x -> q.(x) <- i) p;
  q

let apply_mask p m =
  Varset.fold_elements
    (fun i acc -> Varset.add p.(i) acc)
    m Varset.empty

let apply_expr p e = Linexpr.rename (fun i -> p.(i)) e

let apply_desc p = function
  | Elemental.Mono i -> Elemental.Mono p.(i)
  | Elemental.Submod (i, j, w) ->
    let i' = p.(i) and j' = p.(j) in
    Elemental.Submod (min i' j', max i' j', apply_mask p w)

(* Orbit of a descriptor under a set of permutations, deduplicated and
   in a deterministic order, or [None] once it exceeds [cap] members: a
   stabilizer can hold (n−1)! permutations, and rejecting a large orbit
   must not cost a walk and a sort over all of them. *)
let orbit_desc ~cap perms d =
  let exception Too_big in
  let add acc p =
    let d' = apply_desc p d in
    if List.exists (fun x -> Elemental.desc_compare x d' = 0) acc then acc
    else if List.compare_length_with acc cap >= 0 then raise Too_big
    else d' :: acc
  in
  match List.fold_left add [] perms with
  | orbit -> Some (List.sort Elemental.desc_compare orbit)
  | exception Too_big -> None

(* ---------------- canonicalization ---------------- *)

(* Comparison key of an instance: the multiset of per-side term lists,
   each term list ordered by mask (as [Linexpr.terms] already is) and
   the k keys sorted.  Compared with [Rat.compare] on coefficients —
   never a stringification. *)
let compare_terms a b =
  List.compare
    (fun (m1, c1) (m2, c2) ->
      let c = compare (m1 : int) m2 in
      if c <> 0 then c else Rat.compare c1 c2)
    a b

let key_of es = List.sort compare_terms (List.map Linexpr.terms es)

let compare_key = List.compare compare_terms

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map (fun rest -> x :: rest)
          (permutations (List.filter (fun y -> y <> x) xs)))
      xs

(* Signature of variable [i]: per side, the sorted [(|S|, c_S)] list of
   the terms S ∋ i; then the sides' lists sorted as a multiset.  Renaming
   the instance by π gives π(i) the signature i had, so signatures are
   invariant data of a variable's role. *)
let compare_occ (k1, c1) (k2, c2) =
  let c = compare (k1 : int) k2 in
  if c <> 0 then c else Rat.compare c1 c2

let compare_signature = List.compare (List.compare compare_occ)

let signature es i =
  List.map
    (fun e ->
      List.filter_map
        (fun (s, c) ->
          if Varset.mem i s then Some (Varset.cardinal s, c) else None)
        (Linexpr.terms e)
      |> List.sort compare_occ)
    es
  |> List.sort (List.compare compare_occ)

(* Call [f p] for every renaming [p] (original → canonical variable)
   that places variables in signature order: block b of equal signatures
   fills positions [start_b, start_b + |b|) in any order.  [p] is reused
   between calls; copy it to keep it. *)
let iter_candidates ~n es f =
  let sigs = Array.init n (signature es) in
  let order =
    List.stable_sort
      (fun i j -> compare_signature sigs.(i) sigs.(j))
      (List.init n Fun.id)
  in
  let rec blocks start = function
    | [] -> []
    | i :: _ as vars ->
      let same, rest =
        List.partition (fun j -> compare_signature sigs.(i) sigs.(j) = 0) vars
      in
      (start, same) :: blocks (start + List.length same) rest
  in
  let p = Array.make n 0 in
  let rec go = function
    | [] -> f p
    | (start, vars) :: rest ->
      List.iter
        (fun ordering ->
          List.iteri (fun k v -> p.(v) <- start + k) ordering;
          go rest)
        (permutations vars)
  in
  go (blocks 0 order)

type analysis = {
  n : int;
  to_canon : perm;          (* π : original vars → canonical vars *)
  canonical : Linexpr.t list;  (* π·es, in input side order *)
  stabilizer : perm list;   (* group fixing the canonical multiset *)
}

let trivial ~n es =
  { n; to_canon = identity n; canonical = es; stabilizer = [ identity n ] }

(* Analyses are pure in (n, es) and a serving process decides the same
   handful of instances over and over (repeated queries, bench reps,
   every round of a fuzz shrink), so the sweep is memoized.  Bounded:
   the table is dropped wholesale when it outgrows [memo_cap] — fuzzing
   streams millions of distinct instances through here and must not
   turn the memo into a leak.  The record is immutable and shared. *)
module Akey = struct
  type t = int * Linexpr.t list

  let equal (n1, es1) (n2, es2) =
    n1 = n2 && List.equal Linexpr.equal es1 es2

  let hash (n, es) = Hashtbl.hash (n, List.map Linexpr.hash es)
end

module Atbl = Hashtbl.Make (Akey)

let memo_cap = 4096
let memo_mutex = Mutex.create ()
let memo : analysis Atbl.t = Atbl.create 256

let analyze_uncached ~n es =
  if n < 2 || n > max_vars then trivial ~n es
  else begin
    (* One sweep over the candidates finds both the minimal image and
       every candidate attaining it.  The candidate set is equivariant
       (renaming the instance by σ renames its candidates by σ), so the
       minimal image is still canonical for the whole orbit; and an
       automorphism preserves signatures, so composing it with a
       minimizer yields another candidate — σ·π_min⁻¹ over the
       minimizers σ is therefore the whole stabilizer. *)
    let best_key = ref None in
    let minimizers = ref [] in
    iter_candidates ~n es (fun p ->
        let k = key_of (List.map (apply_expr p) es) in
        let c = match !best_key with None -> -1 | Some b -> compare_key k b in
        if c < 0 then begin
          best_key := Some k;
          minimizers := [ Array.copy p ]
        end
        else if c = 0 then minimizers := Array.copy p :: !minimizers);
    let minimizers = List.rev !minimizers in
    let to_canon =
      match minimizers with
      | p :: _ -> p
      | [] -> identity n (* unreachable: there is always a candidate *)
    in
    let inv = inverse to_canon in
    let stabilizer =
      List.map (fun s -> Array.map (fun i -> s.(inv.(i))) (identity n))
        minimizers
    in
    { n; to_canon;
      canonical = List.map (apply_expr to_canon) es;
      stabilizer }
  end

let analyze ~n es =
  let key = (n, es) in
  Mutex.lock memo_mutex;
  let cached = Atbl.find_opt memo key in
  Mutex.unlock memo_mutex;
  match cached with
  | Some a -> a
  | None ->
    let a = analyze_uncached ~n es in
    Mutex.lock memo_mutex;
    if Atbl.length memo >= memo_cap then Atbl.reset memo;
    Atbl.replace memo key a;
    Mutex.unlock memo_mutex;
    a
