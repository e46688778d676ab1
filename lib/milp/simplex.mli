(** Primal and dual simplex for linear programs with bounded variables.

    Solves [minimize c.x  s.t.  A x = b,  lb <= x <= ub] (all rows are
    equalities; {!Bb.relax} adds slacks for inequality rows). The cold path
    is two-phase primal: phase 1 drives artificial variables to zero from
    an all-artificial starting basis; phase 2 optimises the true objective.
    The warm path reoptimizes from an explicit parent {!Basis.t} with a
    bounded-variable dual simplex: after a bound change the parent's
    optimal basis stays dual feasible, so a child LP in branch-and-bound
    typically resolves in a handful of dual pivots. Any numerical trouble
    on the warm path (stale or singular basis, dual stall, cycling) falls
    back to the cold path, so warm starting never makes a solve fail that
    would have succeeded cold.

    The basis inverse is maintained incrementally by an eta-update engine
    ({!Lu}): each pivot applies one product-form eta transformation
    (O(m²)) instead of rebuilding the factorization, and from-scratch
    refactorization only runs when a stability trigger demands it — the
    eta chain hit its length cap, a pivot magnitude fell below the
    stability floor, or a row-residual audit at a deadline checkpoint
    detected drift. The dual pivot loop prices leaving rows with devex
    reference-framework weights.

    Every optimal solve ends by installing the canonical factorization of
    its final basic set, a function of the columns and that set alone: up
    to 32 rows an eta chain from the identity basis that inserts the
    structural columns in ascending order, above that (or when a chain
    pivot is too small) a sorted-order Gauss-Jordan elimination. The
    extracted floats therefore do not depend on the pivot path, which is
    what makes warm and cold solves byte-identical. A warm entry starts
    from the parent's canonical factor, which is bit-valid for the child
    because the basis matrix ignores bounds: a {!session} keeps it in its
    engine for the next solve, and any other warm entry rebuilds it. No
    factor is carried from one solve to another in any other way. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

(** Numerical tolerances of the pivot loop, exposed as one record so the
    exact-arithmetic certifier ([lib/certify]) and the solver share a
    single source of truth. *)
module Tolerances : sig
  type t = {
    feas_tol : float;  (** bound/row feasibility slack *)
    opt_tol : float;  (** reduced-cost optimality threshold *)
    pivot_tol : float;  (** smallest usable pivot magnitude *)
  }

  val default : t
  (** The values the solver itself runs with. *)
end

type problem = {
  nrows : int;
  ncols : int;
  cols : (int array * float array) array;  (** sparse column: row indices, coefficients *)
  cost : float array;
  lb : float array;   (** may be [neg_infinity] *)
  ub : float array;   (** may be [infinity] *)
  rhs : float array;
}

(** An explicit simplex basis, the warm-start currency of branch-and-bound:
    the basic column of every row plus the resting status of every column
    (structural columns first, then one logical column per row). A basis
    taken from an optimal solve remains dual feasible under any variable
    bound change, because reduced costs depend only on the basis and the
    costs — this is the invariant that makes parent-basis reuse sound. *)
module Basis : sig
  type vstat =
    | Vbasic  (** basic in some row *)
    | Vlower  (** nonbasic at its lower bound *)
    | Vupper  (** nonbasic at its upper bound *)
    | Vfree  (** nonbasic free (no finite bound), resting at zero *)

  type t = {
    basic : int array;  (** column basic in row [r], length [nrows] *)
    vstat : vstat array;  (** per-column status, length [ncols + nrows] *)
  }
end

type result = {
  status : status;
  obj : float;          (** meaningful when [status = Optimal] *)
  x : float array;      (** primal values for all columns *)
  iterations : int;
  warm : bool;
      (** the solve was served by dual reoptimization from the supplied
          basis (false for cold solves and warm attempts that fell back) *)
  basis : Basis.t option;
      (** the final basis when [status = Optimal], in the canonical slot
          order; reuse it as [?warm] for a nearby problem (same matrix,
          tightened bounds) *)
}

type session
(** Reusable solver state for a family of LPs that share one constraint
    matrix and one cost vector (physically: the same [cols] and [cost]
    arrays) and differ only in [lb]/[ub] — the nodes of one
    branch-and-bound search. A session owns every buffer a solve needs:
    the basis state, the {!Lu} engine, the column array with its logical
    columns, the phase costs, the canonical weights, and the scratch of
    the canonical epilogue. A solve re-initializes all of it, so results
    are bit-identical to a solve without a session. Beyond removing the
    per-solve allocation, the session keeps two things across solves, and
    neither can change a result. Up to 32 rows it memoizes the canonical
    basis completion per pattern of interior columns, a function of that
    pattern and the shared matrix. And its engine keeps the canonical
    factor the last optimal solve installed, a function of the matrix and
    that basic set: a warm solve from exactly that basis (a
    branch-and-bound plunge child, solved right after its parent) starts
    from it instead of rebuilding it. Not thread-safe: one session serves
    one sequential caller. *)

val session : problem -> session
(** [session p] sizes a session for [p] and for every problem sharing
    [p.cols] and [p.cost]. The pricing loops read columns unchecked, so
    it raises [Invalid_argument] on a malformed [p]: a column with a row
    index outside [\[0, nrows)] or a coefficient count other than its row
    count, or [cols], [cost], [lb], [ub] not of length [ncols] or [rhs]
    not of length [nrows]. *)

val solve_r :
  ?session:session ->
  ?max_iterations:int ->
  ?deadline:Robust.Deadline.t ->
  ?warm:Basis.t ->
  problem ->
  (result, Robust.Failure.t) Stdlib.result
(** Result-returning entry point. Defaults to a generous iteration cap
    scaled with problem size and no deadline. The deadline is polled every
    few dozen pivots, so a solve never overruns its budget by more than a
    handful of iterations. [max_iterations] has no production caller ([Bb]
    runs the default); it stays as the only way to reach [Iteration_limit],
    the status [Bb] drops without proof.

    [warm], when given, must come from an optimal solve of a problem with
    the same constraint matrix (only [lb]/[ub] may differ — exactly the
    branch-and-bound child situation). The solver then installs the parent
    basis and runs dual simplex; on success [result.warm] is [true]. It
    enters from the parent's canonical factor: kept by the [session] when
    the parent was its last solve, rebuilt otherwise; a basis that is not
    in the canonical slot order is factorized in its own order.
    A warm attempt that cannot proceed (dimension mismatch, singular or
    stale basis, dual stall or cycling) silently falls back to the cold
    two-phase primal path, so passing [warm] never changes which statuses
    are reachable. A warm [Infeasible] claim is only made after the basis
    is re-verified dual feasible, so warm starting cannot prune a feasible
    child on drifted numerics.

    [session] supplies the buffers (see {!session}); without one the
    solve builds a throwaway session, which validates [p]. Raises
    [Invalid_argument] when the session was built for a problem with
    other [cols] or [cost] arrays, or when [p]'s [lb], [ub] or [rhs] has
    the wrong length (with {!session}'s message).

    [Error] covers abnormal terminations only — [Singular_basis] (cold
    path), [Deadline_exceeded], [Numerical_instability] (NaN/Inf detected
    in the tableau or objective), and [Injected] faults from
    {!Robust.Fault}; infeasible, unbounded, and iteration-limited solves
    remain ordinary [Ok] statuses. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks bounds and row equalities within [tol] (default
    [1e-6]); used by tests to validate solver output independently. *)
