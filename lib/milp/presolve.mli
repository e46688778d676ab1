(** Bound tightening by interval propagation over equality rows.

    Given a problem in equality standard form and working copies of the
    variable bounds, repeatedly derives implied bounds for every variable
    from each row's residual activity range, rounding integer variables'
    bounds inward. Used by {!Bb} at every node: after a branch fixes part
    of a conservation row (e.g. CoSA's Eq. 3 equalities), propagation
    fixes or tightens the siblings, shrinking the LP and often proving
    infeasibility without a simplex call. *)

type result = {
  feasible : bool;  (** false if some bound interval became empty *)
  tightened : int;  (** number of individual bound changes applied *)
  rounds : int;  (** propagation sweeps executed *)
}

val rows_of : Simplex.problem -> (int array * float array) array
(** Row-major view of the constraint matrix, built once per search and
    reused at every node. Struct-of-arrays: row [i] is [(cols, coeffs)],
    entries in descending column order (the order [tighten] accumulates
    activities in), coefficients in an unboxed float array so the
    propagation loops read them without allocating. *)

val tighten :
  ?max_rounds:int ->
  ?integer:bool array ->
  Simplex.problem ->
  (int array * float array) array ->
  float array ->
  float array ->
  result
(** [tighten p rows lb ub] mutates [lb]/[ub] in place. [integer.(j)] marks
    columns whose bounds may be rounded inward (default: none).
    [max_rounds] defaults to 4. A round evaluates only dirty rows: every
    row in the first round, afterwards a row whose last evaluation changed
    a bound or one of whose columns had a bound changed since. A clean row
    would recompute the same activities bit for bit and derive nothing,
    so skipping it leaves the result and [lb]/[ub] exactly as a full sweep
    would. *)
