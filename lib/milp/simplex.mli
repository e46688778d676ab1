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
    detected drift (or on a fixed cadence when [refactor_interval] pins
    one for A/B bisection). Across solves, canonical factorizations are
    reused rather than recomputed: an optimal solve returns its
    {!Factor.t}, which a child LP accepts via [warm_factor] (the basis
    matrix does not depend on variable bounds, so the parent's inverse is
    bit-valid for the child), and a per-domain cache short-circuits the
    canonicalization epilogue's refactorization for bases (up to the
    prefix-chain cutoff) that the domain has already factorized. Bases not
    yet cached are built by canonical prefix-chain factorization —
    eta-extending the deepest cached prefix of the basis set, inserting
    structural columns in a canonically determined order — so small
    node-LP bases almost never pay a
    from-scratch factorization at all. The canonical factor of a basis is
    a function of the basis set alone, and all reuse paths load inverses
    that are bit-identical to recomputation, so warm/cold byte-identity
    and cross-worker determinism are preserved by construction; cache
    state moves wall time only. The dual pivot loop prices leaving rows
    with devex reference-framework weights. *)

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

(** A captured canonical basis factorization — the warm-start currency
    that rides along with {!Basis.t}. Opaque: produced by an optimal solve
    ([result.factor]) and consumed by [solve_r ~warm_factor]. A factor is
    tagged with the physical column array it was factorized from; it is
    bit-valid for any problem sharing that array (branch-and-bound
    children differ only in bounds, which the basis matrix ignores), and
    the solver validates the tag and the basic set before trusting it, so
    a stale factor degrades to an ordinary refactorization rather than a
    wrong answer. *)
module Factor : sig
  type t
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
      (** the final basis when [status = Optimal]; reuse it as [?warm] for
          a nearby problem (same matrix, tightened bounds) *)
  factor : Factor.t option;
      (** canonical factorization of that basis, for [?warm_factor]; [None]
          for non-optimal results *)
}

val queued_factor : Factor.t option -> Factor.t option
(** The factor worth keeping on a branch-and-bound node that waits in the
    queue: the factor itself for bases up to the prefix-chain cutoff,
    [None] above it. Above the cutoff the canonical factor is the
    sorted-order scratch elimination that the node's warm entry recomputes
    bit for bit without it, so dropping it costs one refactorization and
    saves holding one m x m inverse per queued node; it never changes a
    result. *)

type session
(** Reusable solver state for a family of LPs that share one constraint
    matrix and one cost vector (physically: the same [cols] and [cost]
    arrays) and differ only in [lb]/[ub] — the nodes of one
    branch-and-bound search. A session owns every buffer a solve needs:
    the basis state, the {!Lu} engine, the column array with its logical
    columns, the phase costs, the canonical weights, and the scratch of
    the canonical epilogue. A solve re-initializes all of it, so results
    are bit-identical to a solve without a session; the session only
    removes the per-solve allocation. Not thread-safe: one session serves
    one sequential caller. *)

val session : problem -> session
(** [session p] sizes a session for [p] and for every problem sharing
    [p.cols] and [p.cost]. *)

val clear_factor_cache : unit -> unit
(** Drop this domain's cached canonical factorizations. Entries are tagged
    with the physical [cols] array they were computed from, so once the
    search owning that array ends they can never be hit again; clearing
    frees their memory and changes no result or count. *)

val solve_r :
  ?session:session ->
  ?max_iterations:int ->
  ?deadline:Robust.Deadline.t ->
  ?warm:Basis.t ->
  ?warm_factor:Factor.t ->
  ?refactor_interval:int ->
  problem ->
  (result, Robust.Failure.t) Stdlib.result
(** Result-returning entry point. Defaults to a generous iteration cap
    scaled with problem size and no deadline. The deadline is polled every
    few dozen pivots, so a solve never overruns its budget by more than a
    handful of iterations.

    [warm], when given, must come from an optimal solve of a problem with
    the same constraint matrix (only [lb]/[ub] may differ — exactly the
    branch-and-bound child situation). The solver then installs the parent
    basis and runs dual simplex; on success [result.warm] is [true].
    A warm attempt that cannot proceed (dimension mismatch, singular or
    stale basis, dual stall or cycling) silently falls back to the cold
    two-phase primal path, so passing [warm] never changes which statuses
    are reachable. A warm [Infeasible] claim is only made after the basis
    is re-verified dual feasible, so warm starting cannot prune a feasible
    child on drifted numerics.

    [warm_factor] additionally hands the parent's canonical factorization
    down so the warm entry loads it (O(m²)) instead of refactorizing
    (O(m³)). It is validated against the problem and [warm] basis and is
    bit-identical to recomputation, so supplying it never changes any
    result — only wall time. Ignored without [warm].

    [refactor_interval] pins a fixed refactorization cadence (every [n]
    eta updates) in place of the default stability triggers — a
    deterministic knob for A/B bisection of suspected instability.

    [session] supplies the buffers (see {!session}); without one the
    solve builds a throwaway session. Raises [Invalid_argument] when the
    session was built for a problem with other [cols] or [cost] arrays.

    [Error] covers abnormal terminations only — [Singular_basis] (cold
    path), [Deadline_exceeded], [Numerical_instability] (NaN/Inf detected
    in the tableau or objective), and [Injected] faults from
    {!Robust.Fault}; infeasible, unbounded, and iteration-limited solves
    remain ordinary [Ok] statuses. *)

val solve : ?max_iterations:int -> problem -> result
(** Legacy wrapper around {!solve_r} without a deadline; raises
    [Robust.Failure.Error] where [solve_r] would return [Error]. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks bounds and row equalities within [tol] (default
    [1e-6]); used by tests to validate solver output independently. *)
