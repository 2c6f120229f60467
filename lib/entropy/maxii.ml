open Bagcqc_num

type form =
  | General of Linexpr.t list
  | Conditional of { q : Rat.t; sides : Cexpr.t list }

(* [plain] is [sides_of_form ~n form], computed once in [make] (or
   handed over by the caller that built it): every cone test reads the
   sides, and the conditional form would otherwise rebuild
   [Cexpr.to_linexpr e − q·h(V)] on each. *)
type t = { n : int; form : form; plain : Linexpr.t list }

let sides_of_form ~n = function
  | General es -> es
  | Conditional { q; sides } ->
    let qhv = Linexpr.term ~coeff:q (Varset.full n) in
    List.map (fun e -> Linexpr.sub (Cexpr.to_linexpr e) qhv) sides

let make_with ~n form plain =
  (match form with
   | Conditional { q; _ } when Rat.sign q <= 0 ->
     invalid_arg "Maxii.make: q must be positive"
   | Conditional _ | General _ -> ());
  let plain =
    match plain, form with
    | None, _ -> sides_of_form ~n form
    | Some plain, Conditional { sides; _ }
      when List.compare_lengths plain sides = 0 ->
      plain
    | Some _, (Conditional _ | General _) ->
      invalid_arg "Maxii.conditional: one plain side per side"
  in
  List.iter
    (fun e ->
      if Linexpr.max_var e >= n then
        invalid_arg "Maxii.make: side mentions a variable out of range")
    plain;
  { n; form; plain }

let make ~n form = make_with ~n form None
let general ~n es = make ~n (General es)
let conditional ?plain ~n ~q sides = make_with ~n (Conditional { q; sides }) plain

let n_vars t = t.n
let form t = t.form
let sides t = t.plain

let is_iip t = List.length (sides t) = 1

type shape = Unconditioned | Simple | Conditional_general | Unrestricted

let shape t =
  match t.form with
  | General _ -> Unrestricted
  | Conditional { sides; _ } ->
    if List.for_all Cexpr.is_unconditioned sides then Unconditioned
    else if List.for_all Cexpr.is_simple sides then Simple
    else Conditional_general

type verdict =
  | Valid of Certificate.t
  | Invalid of Polymatroid.t
  | Unknown of Polymatroid.t

let valid_over cone t = Cones.valid_max cone ~n:t.n (sides t)

let is_valid_over cone t = Cones.valid_max_quick cone ~n:t.n (sides t)

let combine_verdict t normal gamma =
  match normal with
  | Error h_normal -> Invalid h_normal
  | Ok () ->
    (match gamma with
     | Ok (Some cert) -> Valid cert
     | Ok None ->
       (* The Γn backend registers a Farkas builder, so a certificate-less
          Ok cannot be produced by construction. *)
       Bagcqc_error.invariant ~where:"Maxii.combine_verdict"
         "gamma backend returned Ok without a certificate"
     | Error h_gamma ->
       (* Refuted over Γn but not over Nn: Theorem 3.6 proves the two
          cones agree on Unconditioned/Simple forms, so landing here on
          one of those shapes means an LP gave a wrong answer. *)
       (match shape t with
        | Unconditioned | Simple ->
          Bagcqc_error.invariant ~where:"Maxii.combine_verdict"
            "Γn refutes but Nn validates a decidable (Unconditioned or \
             Simple) shape, contradicting Theorem 3.6"
        | Conditional_general | Unrestricted -> ());
       Unknown h_gamma)

let decide t =
  if Bagcqc_par.Pool.(jobs () > 1 && not (inside_task ())) then
    (* Speculate on the two cones concurrently: the Γn certificate work is
       wasted when Nn refutes, but that is the expensive side we would
       otherwise wait on in the common (valid) case.  The verdict is
       identical to the sequential path; only the solve/cache counters may
       differ (the speculative Γn solve). *)
    let normal, gamma =
      Bagcqc_par.Pool.both
        (fun () -> valid_over Cones.Normal t)
        (fun () -> Cones.valid_max_cert Cones.Gamma ~n:t.n (sides t))
    in
    combine_verdict t normal gamma
  else
    (* Cheapest first: Nn is read off its generators (an LP with one row
       per side only as fallback), and a normal refuter is entropic,
       settling the instance outright. *)
    match valid_over Cones.Normal t with
    | Error h_normal -> Invalid h_normal
    | Ok () -> combine_verdict t (Ok ()) (Cones.valid_max_cert Cones.Gamma ~n:t.n (sides t))

let decide_result t = Bagcqc_error.protect (fun () -> decide t)

let decide_many ts =
  (* Batch fan-out: each instance is decided sequentially on its worker
     (the nested [decide] sees [inside_task] and takes the sequential
     path), so per-instance verdicts {e and} counters match a sequential
     run exactly. *)
  Bagcqc_par.Pool.parallel_map_list decide ts

let pp ?(names = Varset.default_name) () fmt t =
  let pp_sides pp_side sides =
    Format.pp_print_string fmt "max(";
    List.iteri
      (fun i s ->
        if i > 0 then Format.pp_print_string fmt ", ";
        pp_side fmt s)
      sides;
    Format.pp_print_string fmt ")"
  in
  match t.form with
  | General es ->
    Format.pp_print_string fmt "0 <= ";
    pp_sides (fun fmt e -> Linexpr.pp ~names () fmt e) es
  | Conditional { q; sides } ->
    let full = Varset.full t.n in
    if not (Rat.equal q Rat.one) then Format.fprintf fmt "%a*" Rat.pp q;
    Format.fprintf fmt "h(%s) <= "
      (String.concat "" (List.map names (Varset.to_list full)));
    pp_sides (fun fmt e -> Cexpr.pp ~names () fmt e) sides
