(** Exact rational numbers over {!Bigint}.

    Values are kept in lowest terms with a positive denominator, so
    structural equality coincides with numeric equality.  These are the
    scalars of the simplex solver and of all polymatroid computations. *)

type t

val zero : t
val one : t
val minus_one : t
val two : t
val half : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes the fraction [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints a b] is the rational [a/b]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val to_float : t -> float
(** Nearest-float approximation, computed as
    [Bigint.to_float n /. Bigint.to_float d].

    {b Rounding contract.}  Each of the two conversions rounds to
    nearest and the IEEE division rounds the quotient to nearest again,
    so the result is within 2 ulp of the true value — close enough for
    the float probe of the lazy Γn loop, whose verdicts never depend on
    this value (every accepted answer is re-verified in exact
    arithmetic).
    The rounding is {e not} directed: callers must not assume
    [to_float x <= x] or [>= x].  Values beyond the float range come
    back as [infinity]/[-infinity] (consumers with totality obligations,
    e.g. {!Fsimplex}, check finiteness on ingestion); in particular a
    denominator above [2^1024] overflows to [infinity] and the result
    collapses to [0.], so the round-trip law
    [to_float (of_float_dyadic f) = f] holds for every {e normal} finite
    [f] but not for subnormals. *)

val of_float_dyadic : float -> t
(** Exact dyadic conversion: the rational whose value is {e exactly} the
    finite float [f] (every finite IEEE-754 double is [m·2^e] with
    integer [m], so no rounding is involved; denominators are powers of
    two).  Subnormals convert exactly too, though {!to_float} cannot
    round-trip them (see above).
    @raise Invalid_argument on NaN or infinities. *)

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal ["a.b"] forms.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
(** Total variant of {!of_string}: [None] on malformed input (including a
    zero denominator). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Infix operators, for arithmetic-heavy call sites (LP pivoting). *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
