(** The dense tableau simplex over exact rationals — the original
    reference implementation, kept as an independent oracle for the
    production exact solver ({!Bagcqc_lp.Simplex.solve}) in the
    [simplex] fuzz suite and the LP agreement tests.  Not used by any
    decision procedure. *)

val solve : Bagcqc_lp.Simplex.problem -> Bagcqc_lp.Simplex.outcome
(** Same contract as {!Bagcqc_lp.Simplex.solve}: every variable
    implicitly non-negative, objective minimized.
    @raise Invalid_argument on malformed rows (as {!Bagcqc_lp.Simplex.solve}). *)
