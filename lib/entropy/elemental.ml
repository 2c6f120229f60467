open Bagcqc_num

(* ---------------- implicit (descriptor) view ----------------

   A descriptor names one elemental inequality without materializing its
   [Linexpr]: the lazy separation driver evaluates descriptors directly
   against an LP point (≤ 4 set lookups each), so scanning the whole
   family at n = 7–8 costs thousands of rational additions, not
   thousands of allocated expressions. *)

type desc =
  | Mono of int
  | Submod of int * int * Varset.t

let desc_compare (a : desc) (b : desc) =
  match (a, b) with
  | Mono i, Mono j -> Int.compare i j
  | Mono _, Submod _ -> -1
  | Submod _, Mono _ -> 1
  | Submod (i, j, w), Submod (i', j', w') ->
    let c = Int.compare i i' in
    if c <> 0 then c
    else
      let c = Int.compare j j' in
      if c <> 0 then c else Int.compare w w'

let iter_descs ~n f =
  let full = Varset.full n (* range check, even for n = 0 *) in
  for i = 0 to n - 1 do
    f (Mono i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let rest = Varset.diff full (Varset.of_list [ i; j ]) in
      Varset.iter_subsets rest (fun w -> f (Submod (i, j, w)))
    done
  done

let expr_of_desc ~n = function
  | Mono i ->
    let full = Varset.full n in
    Linexpr.sub (Linexpr.term full) (Linexpr.term (Varset.remove i full))
  | Submod (i, j, w) ->
    Linexpr.mutual (Varset.singleton i) (Varset.singleton j) w

(* [eval_desc h d] is the elemental inequality's left-hand side at the
   set function [h] — exactly [Linexpr.eval h (expr_of_desc ~n d)], but
   allocation-free. *)
let eval_desc ~n h = function
  | Mono i ->
    let full = Varset.full n in
    Rat.sub (h full) (h (Varset.remove i full))
  | Submod (i, j, w) ->
    let iw = Varset.add i w and jw = Varset.add j w in
    Rat.sub
      (Rat.add (h iw) (h jw))
      (Rat.add (h (Varset.add i jw)) (h w))

(* [Varset.subset] also rejects a negative mask, so every mask of a
   well-formed descriptor's row lies in [0, 2ⁿ). *)
let well_formed ~n = function
  | Mono i -> 0 <= i && i < n
  | Submod (i, j, w) ->
    0 <= i && i < j && j < n
    && Varset.subset w (Varset.full n)
    && (not (Varset.mem i w))
    && not (Varset.mem j w)

(* h(S) ≥ 0 as an exact unit-coefficient sum of elemental rows:
     h(S) = Σ_{t} h(i_t | {i_1..i_{t−1}})       (ascending i_t ∈ S)
     h(i | B) = h(i | V∖i) + Σ_j I(i; j | B_j)  (j over V∖B∖{i},
                                                 ascending, B_j growing)
   — Mono and Submod descriptors throughout, possibly with repeats. *)
let nonneg_decomp ~n s =
  let acc = ref [] in
  let prefix = ref Varset.empty in
  for i = 0 to n - 1 do
    if Varset.mem i s then begin
      let b = ref !prefix in
      for j = 0 to n - 1 do
        if j <> i && not (Varset.mem j !b) then begin
          acc := Submod (min i j, max i j, !b) :: !acc;
          b := Varset.add j !b
        end
      done;
      acc := Mono i :: !acc;
      prefix := Varset.add i !prefix
    end
  done;
  !acc

let merge_descs cited =
  (* Sorted, a repeated descriptor is a run: sum it. *)
  let rec merge = function
    | (d, c) :: (d', c') :: rest when desc_compare d d' = 0 ->
      merge ((d, Rat.add c c') :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge (List.sort (fun (d1, _) (d2, _) -> desc_compare d1 d2) cited)

(* Family order: monotonicity ascending in i, then the submodularity
   block in reverse generation order. *)
let generate n =
  let mono = ref [] and submod = ref [] in
  iter_descs ~n (fun d ->
      match d with
      | Mono _ -> mono := d :: !mono
      | Submod _ -> submod := d :: !submod);
  List.rev_append !mono !submod

(* Per-n lazy table; `Varset.full` bounds n at max_vars, so the table
   stays tiny for the life of the process.  Generation happens inside the
   mutex on purpose: when pool workers race on a fresh [n], exactly one
   generates (one miss) and the rest block until the entry lands (hits) —
   the same hit/miss totals a sequential run would record. *)
let table_mutex = Mutex.create ()
let c_hits = Bagcqc_obs.Metrics.counter "elemental.hits"
let c_misses = Bagcqc_obs.Metrics.counter "elemental.misses"

let table : (int, desc list * Linexpr.t list) Hashtbl.t = Hashtbl.create 8

let entry ~n =
  Mutex.lock table_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_mutex) @@ fun () ->
  match Hashtbl.find_opt table n with
  | Some e ->
    Bagcqc_obs.Metrics.bump c_hits;
    e
  | None ->
    ignore (Varset.full n) (* range check, even for n = 0 *);
    Bagcqc_obs.Metrics.bump c_misses;
    let e =
      Bagcqc_obs.Span.with_span ~name:"elemental.generate"
        ~attrs:[ ("n", Bagcqc_obs.Span.Int n) ]
        (fun () ->
          let ds = generate n in
          (ds, List.map (expr_of_desc ~n) ds))
    in
    Hashtbl.add table n e;
    e

let descs ~n = fst (entry ~n)
let list ~n = snd (entry ~n)

let desc_count ~n =
  ignore (Varset.full n);
  if n < 2 then n else n + (n * (n - 1) / 2 * (1 lsl (n - 2)))
