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
  | Mono i, Mono j -> compare i j
  | Mono _, Submod _ -> -1
  | Submod _, Mono _ -> 1
  | Submod (i, j, w), Submod (i', j', w') -> compare (i, j, w) (i', j', w')

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

let generate n =
  let mono = ref [] and submod = ref [] in
  iter_descs ~n (fun d ->
      match d with
      | Mono _ -> mono := expr_of_desc ~n d :: !mono
      | Submod _ -> submod := expr_of_desc ~n d :: !submod);
  (* Historical family order: monotonicity ascending in i, then the
     submodularity block in reverse generation order. *)
  List.rev !mono @ !submod

module Eset = Hashtbl.Make (struct
  type t = Linexpr.t

  let equal = Linexpr.equal
  let hash = Linexpr.hash
end)

(* Per-n lazy table; `Varset.full` bounds n at max_vars, so the table
   stays tiny for the life of the process.  Generation happens inside the
   mutex on purpose: when pool workers race on a fresh [n], exactly one
   generates (one miss) and the rest block until the entry lands (hits) —
   the same hit/miss totals a sequential run would record. *)
let table_mutex = Mutex.create ()
let c_hits = Bagcqc_obs.Metrics.counter "elemental.hits"
let c_misses = Bagcqc_obs.Metrics.counter "elemental.misses"

let table : (int, Linexpr.t list * unit Eset.t) Hashtbl.t = Hashtbl.create 8

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
    let es =
      Bagcqc_obs.Span.with_span ~name:"elemental.generate"
        ~attrs:[ ("n", Bagcqc_obs.Span.Int n) ]
        (fun () -> generate n)
    in
    let set = Eset.create (2 * List.length es) in
    List.iter (fun e -> Eset.replace set e ()) es;
    let e = (es, set) in
    Hashtbl.add table n e;
    e

let list ~n = fst (entry ~n)
let count ~n = List.length (list ~n)

(* Hashed membership: the certificate checker calls this once per
   multiplier, so the old O(|family|) [List.exists] scan made checking a
   λ with k entries O(k·n²·2ⁿ). *)
let is_elemental ~n e = Eset.mem (snd (entry ~n)) e

let desc_count ~n =
  ignore (Varset.full n);
  if n < 2 then n else n + (n * (n - 1) / 2 * (1 lsl (n - 2)))
