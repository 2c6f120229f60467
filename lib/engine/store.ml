open Bagcqc_num
open Bagcqc_lp
module Obs = Bagcqc_obs
module Json = Bagcqc_obs.Json

module Table = Hashtbl.Make (struct
  type t = Problem.t

  let equal = Problem.equal
  let hash = Problem.hash
end)

(* Store traffic is part of the cache story [--stats] tells. *)
let c_hits = Obs.Metrics.counter "solver.store.hits"
let c_misses = Obs.Metrics.counter "solver.store.misses"
let c_appends = Obs.Metrics.counter "solver.store.appends"
let c_loaded = Obs.Metrics.counter "solver.store.loaded"
let c_rejected = Obs.Metrics.counter "solver.store.rejected"

(* Entry count of the attached store, maintained at attach/append/detach
   so a metrics scrape never has to take the store mutex. *)
let g_size = Obs.Metrics.gauge "solver.store.size"

type t = {
  path : string;
  m : Mutex.t;
  index : Simplex.outcome Table.t;
  mutable oc : out_channel option;
  mutable needs_newline : bool;
      (* true when the file ends in a truncated tail: the next append
         must first terminate the garbage line so the record after the
         crash point starts clean. *)
  mutable n_loaded : int;
  mutable n_rejected : int;
  mutable n_truncated : int;
}

(* ---------------- per-tag semantic verifiers ---------------- *)

let verifier_mutex = Mutex.create ()
let verifiers : (string, Problem.t -> Rat.t array -> bool) Hashtbl.t =
  Hashtbl.create 4

let register_verifier ~tag f =
  Mutex.lock verifier_mutex;
  let dup = Hashtbl.mem verifiers tag in
  if not dup then Hashtbl.add verifiers tag f;
  Mutex.unlock verifier_mutex;
  if dup then
    invalid_arg ("Store.register_verifier: tag already registered: " ^ tag)

let find_verifier tag =
  Mutex.lock verifier_mutex;
  let v = Hashtbl.find_opt verifiers tag in
  Mutex.unlock verifier_mutex;
  v

(* ---------------- record format ---------------- *)

(* One JSON object per line:
     {"v":1,
      "problem":{"tag":…,"vars":N,"obj":[[col,"rat"],…],
                 "rows":[[[[col,"rat"],…],"le|ge|eq","rat"],…]},
      "outcome":{"value":"rat","point":["rat",…]}}
   Rationals are exact "num/den" strings (Rat.to_string), so the format
   loses nothing; column indices are small integers and survive the
   float-backed JSON numbers exactly. *)

let json_of_rat r = Json.Str (Rat.to_string r)

let json_of_pairs pairs =
  Json.Arr
    (List.map
       (fun (j, c) -> Json.Arr [ Json.Num (float_of_int j); json_of_rat c ])
       pairs)

let op_name = function
  | Simplex.Le -> "le"
  | Simplex.Ge -> "ge"
  | Simplex.Eq -> "eq"

let json_of_problem p =
  Json.Obj
    [ ("tag", Json.Str (Problem.tag p));
      ("vars", Json.Num (float_of_int (Problem.num_vars p)));
      ("obj", json_of_pairs (Problem.objective p));
      ("rows",
       Json.Arr
         (List.map
            (fun (pairs, op, rhs) ->
              Json.Arr [ json_of_pairs pairs; Json.Str (op_name op);
                         json_of_rat rhs ])
            (Problem.rows_list p))) ]

let json_of_entry p v x =
  Json.Obj
    [ ("v", Json.Num 1.0);
      ("problem", json_of_problem p);
      ("outcome",
       Json.Obj
         [ ("value", json_of_rat v);
           ("point", Json.Arr (Array.to_list (Array.map json_of_rat x))) ]) ]

(* Decoding: any malformed shape rejects the whole entry.  [Reject] is
   the local "this record is bad" signal; Json accessor errors and
   [Problem.make]'s own validation ([Invalid_argument] on out-of-range
   columns) funnel into the same rejection. *)
exception Reject

let rat_of_json = function
  | Json.Str s ->
    (match Rat.of_string_opt s with Some r -> r | None -> raise Reject)
  | _ -> raise Reject

let int_of_json = function
  | Json.Num f when Float.is_integer f && Float.abs f <= 1e9 -> int_of_float f
  | _ -> raise Reject

let pairs_of_json = function
  | Json.Arr l ->
    List.map
      (function
        | Json.Arr [ j; c ] -> (int_of_json j, rat_of_json c)
        | _ -> raise Reject)
      l
  | _ -> raise Reject

let op_of_name = function
  | "le" -> Simplex.Le
  | "ge" -> Simplex.Ge
  | "eq" -> Simplex.Eq
  | _ -> raise Reject

let str_of_json = function Json.Str s -> s | _ -> raise Reject

let problem_of_json j =
  let tag = str_of_json (Json.member "tag" j) in
  let num_vars = int_of_json (Json.member "vars" j) in
  let objective = pairs_of_json (Json.member "obj" j) in
  let rows =
    match Json.member "rows" j with
    | Json.Arr l ->
      List.map
        (function
          | Json.Arr [ pairs; Json.Str op; rhs ] ->
            Problem.row (pairs_of_json pairs) (op_of_name op)
              (rat_of_json rhs)
          | _ -> raise Reject)
        l
    | _ -> raise Reject
  in
  Problem.make ~tag ~num_vars ~objective rows

let entry_of_line line =
  match
    (fun () ->
      let j = Json.parse line in
      (match Json.member "v" j with
       | Json.Num 1.0 -> ()
       | _ -> raise Reject);
      let p = problem_of_json (Json.member "problem" j) in
      let o = Json.member "outcome" j in
      let v = rat_of_json (Json.member "value" o) in
      let x =
        match Json.member "point" o with
        | Json.Arr l -> Array.of_list (List.map rat_of_json l)
        | _ -> raise Reject
      in
      (p, v, x))
      ()
  with
  | entry -> Some entry
  | exception (Reject | Json.Parse_error _ | Invalid_argument _) -> None

(* ---------------- verification ---------------- *)

let dot pairs x =
  List.fold_left
    (fun acc (j, c) -> Rat.add acc (Rat.mul c x.(j)))
    Rat.zero pairs

let point_satisfies p v x =
  Array.length x = Problem.num_vars p
  && Array.for_all (fun c -> Rat.sign c >= 0) x
  && List.for_all
       (fun (pairs, op, rhs) ->
         let lhs = dot pairs x in
         match op with
         | Simplex.Le -> Rat.compare lhs rhs <= 0
         | Simplex.Ge -> Rat.compare lhs rhs >= 0
         | Simplex.Eq -> Rat.equal lhs rhs)
       (Problem.rows_list p)
  && Rat.equal v (dot (Problem.objective p) x)

(* Acceptance: the point must verify exactly against the recorded
   problem, and the claim of *optimality* must be provable — trivially
   so for feasibility problems (every feasible point attains the zero
   objective), and by the registered semantic verifier otherwise.  A
   real objective with no verifier is unprovable, hence rejected. *)
let verify_entry p v x =
  point_satisfies p v x
  && (match find_verifier (Problem.tag p) with
      | Some f -> f p x
      | None -> Problem.objective p = [])

(* ---------------- load / open ---------------- *)

let accept t p v x =
  Table.replace t.index p (Simplex.Optimal (v, x));
  t.n_loaded <- t.n_loaded + 1;
  Obs.Metrics.bump c_loaded

let reject t =
  t.n_rejected <- t.n_rejected + 1;
  Obs.Metrics.bump c_rejected

let load t =
  if Sys.file_exists t.path then begin
    let ic = open_in_bin t.path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length text in
    if n > 0 && text.[n - 1] <> '\n' then begin
      t.n_truncated <- 1;
      t.needs_newline <- true
    end;
    let lines = String.split_on_char '\n' text in
    (* Without a trailing newline the final element is the truncated
       tail of an interrupted append: ignore it (crash tolerance). *)
    let complete =
      if t.needs_newline then
        match List.rev lines with _ :: rest -> List.rev rest | [] -> []
      else lines
    in
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match entry_of_line line with
          | Some (p, v, x) when verify_entry p v x -> accept t p v x
          | Some _ | None -> reject t)
      complete
  end

let open_ path =
  let t =
    { path; m = Mutex.create (); index = Table.create 64; oc = None;
      needs_newline = false; n_loaded = 0; n_rejected = 0; n_truncated = 0 }
  in
  load t;
  t.oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path);
  t

let close t =
  Mutex.lock t.m;
  (match t.oc with
   | Some oc ->
     t.oc <- None;
     (try flush oc; close_out_noerr oc with Sys_error _ -> ())
   | None -> ());
  Mutex.unlock t.m

let path t = t.path

let size t =
  Mutex.lock t.m;
  let n = Table.length t.index in
  Mutex.unlock t.m;
  n

let loaded t = t.n_loaded
let rejected t = t.n_rejected
let truncated t = t.n_truncated

(* ---------------- lookup / record ---------------- *)

let copy_outcome = function
  | Simplex.Optimal (v, x) -> Simplex.Optimal (v, Array.copy x)
  | (Simplex.Unbounded | Simplex.Infeasible) as o -> o

let lookup t problem =
  Mutex.lock t.m;
  let found = Table.find_opt t.index problem in
  Mutex.unlock t.m;
  match found with
  | Some o ->
    Obs.Metrics.bump c_hits;
    Some (copy_outcome o)
  | None ->
    Obs.Metrics.bump c_misses;
    None

let record t problem outcome =
  match outcome with
  | Simplex.Unbounded | Simplex.Infeasible ->
    (* No independently checkable proof object exists for these (the
       simplex emits no infeasibility certificate), so they are never
       persisted — see the trust model in the interface. *)
    ()
  | Simplex.Optimal (v, x) ->
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
    (match t.oc with
     | None -> ()
     | Some oc ->
       if not (Table.mem t.index problem) then begin
         Table.replace t.index problem (Simplex.Optimal (v, Array.copy x));
         Obs.Metrics.set_gauge g_size (Table.length t.index);
         if t.needs_newline then begin
           output_char oc '\n';
           t.needs_newline <- false
         end;
         output_string oc (Json.to_string (json_of_entry problem v x));
         output_char oc '\n';
         flush oc;
         Obs.Metrics.bump c_appends
       end)

(* ---------------- compaction ---------------- *)

type compaction = {
  kept : int;
  duplicates : int;
  dropped : int;
  had_truncated_tail : bool;
}

let compact path =
  let text =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    end
    else ""
  in
  let n = String.length text in
  let had_truncated_tail = n > 0 && text.[n - 1] <> '\n' in
  let lines = String.split_on_char '\n' text in
  let complete =
    if had_truncated_tail then
      match List.rev lines with _ :: rest -> List.rev rest | [] -> []
    else lines
  in
  (* Last verified entry per canonical key wins — the same rule [load]'s
     Table.replace applies — while the rewrite keeps keys in first-seen
     order so repeated compactions are stable. *)
  let index : (Rat.t * Rat.t array) Table.t = Table.create 64 in
  let order = ref [] in
  let duplicates = ref 0 and dropped = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match entry_of_line line with
        | Some (p, v, x) when verify_entry p v x ->
          if Table.mem index p then incr duplicates else order := p :: !order;
          Table.replace index p (v, x)
        | Some _ | None -> incr dropped)
    complete;
  let order = List.rev !order in
  let tmp = path ^ ".compact.tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  (match
     List.iter
       (fun p ->
         let v, x = Table.find index p in
         output_string oc (Json.to_string (json_of_entry p v x));
         output_char oc '\n')
       order;
     flush oc
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  { kept = List.length order;
    duplicates = !duplicates;
    dropped = !dropped;
    had_truncated_tail }

(* ---------------- the attached store ---------------- *)

let current : t option ref = ref None

let guard_lifecycle what =
  if Bagcqc_par.Pool.in_parallel_region () then
    invalid_arg
      ("Store." ^ what
       ^ ": cannot change the attached store inside a parallel region")

let attach t =
  guard_lifecycle "attach";
  current := Some t;
  Obs.Metrics.set_gauge g_size (size t)

let detach () =
  guard_lifecycle "detach";
  current := None;
  Obs.Metrics.set_gauge g_size 0

let attached () = !current

let with_store path f =
  let t = open_ path in
  attach t;
  Fun.protect
    ~finally:(fun () ->
      detach ();
      close t)
    f
