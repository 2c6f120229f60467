open Bagcqc_num

type t = {
  n : int;
  cone : string;
  sides : Linexpr.t list;
  lambda : (Elemental.desc * Rat.t) list;
  mu : Rat.t list;
}

let make ~n ~cone ~sides ~lambda ~mu =
  if List.length mu <> List.length sides then
    invalid_arg "Certificate.make: one convex weight per side required";
  { n; cone; sides; lambda; mu }

let n_vars c = c.n
let cone_name c = c.cone
let sides c = c.sides
let lambda c = c.lambda
let convex_weights c = c.mu
let size c = List.length c.lambda

(* Σλ·row − Σμ·side on one dense vector indexed by mask, each row's
   ≤ 4 terms derived from its descriptor here.  Every index is in range
   once the descriptors are well formed and the sides fit in n.  h(∅)
   is identically zero, so the ∅ slot, where rows with W = ∅ (and Mono
   at n = 1) put a term, is cleared rather than required to vanish —
   [Linexpr] never stores that term either. *)
let residual c =
  let full = Varset.full c.n in
  let acc = Array.make (full + 1) Rat.zero in
  let add s x = acc.(s) <- Rat.add acc.(s) x in
  List.iter
    (fun (d, l) ->
      let neg_l = Rat.neg l in
      match (d : Elemental.desc) with
      | Mono i ->
        add full l;
        add (Varset.remove i full) neg_l
      | Submod (i, j, w) ->
        let iw = Varset.add i w and jw = Varset.add j w in
        add iw l;
        add jw l;
        add (Varset.union iw jw) neg_l;
        add w neg_l)
    c.lambda;
  List.iter2
    (fun m e ->
      if not (Rat.is_zero m) then
        let neg_m = Rat.neg m in
        Linexpr.iter (fun s x -> add s (Rat.mul neg_m x)) e)
    c.mu c.sides;
  acc.(Varset.empty) <- Rat.zero;
  acc

let check_explain c =
  Bagcqc_obs.Span.with_span ~name:"certificate.check"
    ~attrs:
      [ ("cone", Bagcqc_obs.Span.Str c.cone);
        ("n", Bagcqc_obs.Span.Int c.n);
        ("size", Bagcqc_obs.Span.Int (List.length c.lambda)) ]
  @@ fun () ->
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let ensure b msg = if b then Ok () else Error msg in
  let* () =
    ensure
      (List.for_all (fun m -> Rat.sign m >= 0) c.mu)
      "negative convex weight"
  in
  let* () =
    ensure
      (Rat.equal (List.fold_left Rat.add Rat.zero c.mu) Rat.one)
      "convex weights do not sum to 1"
  in
  let* () =
    ensure
      (List.for_all (fun (_, l) -> Rat.sign l >= 0) c.lambda)
      "negative elemental multiplier"
  in
  let* () =
    ensure
      (List.for_all (fun (d, _) -> Elemental.well_formed ~n:c.n d) c.lambda)
      "cited inequality is not elemental"
  in
  let* () =
    ensure
      (List.for_all (fun e -> Linexpr.max_var e < c.n) c.sides)
      "side mentions a variable out of range"
  in
  ensure
    (Array.for_all Rat.is_zero (residual c))
    "multipliers do not reproduce the convex combination of the sides"

let check c = Result.is_ok (check_explain c)

(* Multiset equality of expression lists under Linexpr.equal. *)
let multiset_equal xs ys =
  let remove_one e l =
    let rec go acc = function
      | [] -> None
      | x :: rest ->
        if Linexpr.equal x e then Some (List.rev_append acc rest)
        else go (x :: acc) rest
    in
    go [] l
  in
  let rec go xs ys =
    match xs with
    | [] -> ys = []
    | x :: rest ->
      (match remove_one x ys with
       | Some ys' -> go rest ys'
       | None -> false)
  in
  List.length xs = List.length ys && go xs ys

let proves c ~n es = c.n = n && multiset_equal c.sides es && check c

let pp ?(names = Varset.default_name) () fmt c =
  Format.fprintf fmt
    "Farkas certificate over %s (n=%d): %d elemental inequalities@." c.cone
    c.n (List.length c.lambda);
  List.iteri
    (fun l m ->
      Format.fprintf fmt "  mu_%d = %a@." (l + 1) Rat.pp m)
    c.mu;
  List.iter
    (fun (d, l) ->
      Format.fprintf fmt "  %a * [0 <= %a]@." Rat.pp l (Linexpr.pp ~names ())
        (Elemental.expr_of_desc ~n:c.n d))
    c.lambda
