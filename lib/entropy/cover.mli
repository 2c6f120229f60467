(** Shannon certificates by construction for cover sides (DESIGN.md
    §4i): the Γn shortcut {!Cones} tries before the lazy driver
    ({!Separation}).

    A side [Σ c_X·h(X) − m·h(V)] is a {e cover side} when every [c_X]
    with [X ≠ V] is [≥ 0] and either [m ≤ 0] (a non-negative sum) or the
    sets with [c_X ≥ m], kept greedily in [Linexpr.iter] order while each
    adds a variable, cover [V].  Such a side is valid over Γn by
    subadditivity: chaining the kept sets turns it into a non-negative
    sum of elemental inequalities, with the surplus terms expanded by
    {!Elemental.nonneg_decomp}.  A fractional cover (say
    [h(12) + h(23) + h(13) − 2h(123)]) is not a cover side here. *)

val certificate : n:int -> Linexpr.t list -> Certificate.t option
(** [certificate ~n es]: for the first cover side [es_ℓ] in list order,
    the certificate with [μ_ℓ = 1] and the chain's λ, returned only if
    {!Certificate.check} accepts it (and then counted in
    [cone.cover.certs]).  [None] if no side is a cover side or the check
    rejects the construction; the caller then decides [es] another way.
    Never raises on sides whose variables lie below [n]. *)
