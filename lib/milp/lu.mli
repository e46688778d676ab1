(** Incremental basis factorization engine for the simplex solver.

    Maintains a dense representation of the basis inverse B⁻¹ across pivots
    using product-form eta updates: each pivot multiplies the inverse by one
    elementary eta matrix (an O(m²) row update) instead of rebuilding the
    whole factorization (O(m³) Gauss-Jordan). The engine keeps two pieces of
    bookkeeping the solver uses to decide when the eta chain has grown
    stale: the chain length since the last refactorization and the smallest
    pivot magnitude absorbed into the chain. {!trigger} turns those into a
    refactorize-now decision: the chain reached its length cap, or it
    absorbed a pivot below the stability floor.

    [refactor] and [update] skip exact zeros: a row operation touches only
    the columns where the pivot row is nonzero (and, in the elimination
    scratch, only those right of the pivot column, the rest never being
    read again). A skipped operation is [x -. f *. 0.] or [0. /. piv],
    which leaves a nonzero [x] as it is, so every nonzero entry of B⁻¹
    comes from the same floating-point operation on the same operands as
    in the dense loops; only the sign of an exact zero may differ. No
    reader can see that sign, because every reader accumulates from +0
    ([ftran], [btran], [apply], the simplex's dual row dot, where a ±0 term
    adds nothing) or tests zeros only by comparison ([<> 0.], magnitudes).
    That is the rule that keeps factorizations bit-compatible with the
    solver's canonical-vertex contract: a kernel that divided by an entry
    of B⁻¹ or copied its sign would break it. *)

exception Singular
(** Raised by {!refactor} when elimination meets a pivot below the supplied
    tolerance: the basis matrix is (numerically) singular. *)

type t
(** A basis factorization of fixed dimension [m]: the dense inverse plus
    eta-chain bookkeeping. Not thread-safe; one engine per in-flight solve. *)

val create : int -> t
(** [create m] is an engine of dimension [m >= 1] holding the zero matrix;
    call {!refactor} or {!load} before using the kernels. *)

val dim : t -> int

val row : t -> int -> float array
(** [row t r] is row [r] of the inverse, borrowed — callers must treat it as
    read-only and must not hold it across a {!refactor} (partial pivoting
    swaps row arrays in place). *)

val refactor :
  t ->
  scratch:float array array ->
  cols:(int array * float array) array ->
  basis:int array ->
  pivot_tol:float ->
  unit
(** Rebuild the inverse from scratch by Gauss-Jordan elimination with
    partial pivoting on the basis matrix (columns [cols.(basis.(r))]),
    using [scratch] (an [m x m] matrix) as elimination workspace, which it
    leaves holding garbage. Each row operation costs the number of
    nonzeros in the pivot row. Resets the eta chain. Raises {!Singular}
    when a pivot magnitude falls below [pivot_tol]. *)

val load : t -> float array array -> unit
(** [load t binv] copies [binv] into the engine and resets the eta chain:
    the solver loads the diagonal inverse of its cold crash basis and the
    identity its canonical chain starts from. *)

val reset : t -> unit
(** [reset t] resets the eta chain and keeps the inverse, which from then
    on counts as a fresh factorization for {!trigger}, {!chain_length} and
    {!min_pivot}, as after {!refactor} or {!load}. *)

val ftran : t -> int array * float array -> float array -> unit
(** [ftran t (rows, coeffs) alpha] computes [alpha = B⁻¹ a] for a sparse
    column [a], exploiting the column's nonzero pattern: O(m · nnz). *)

val btran : t -> float array -> float array -> unit
(** [btran t c y] computes [y = c B⁻¹] for a dense row-indexed vector [c],
    skipping zero entries of [c]: O(nnz(c) · m). *)

val apply : t -> float array -> float array -> unit
(** [apply t v out] computes [out = B⁻¹ v] for a dense [v]: O(m²). *)

val update : t -> pivot_tol:float -> int -> float array -> unit
(** [update t ~pivot_tol r alpha] absorbs one pivot into the inverse: column
    [alpha = B⁻¹ a_enter] replaces the basic column of row [r]. Product-form
    eta update: rows whose [alpha] entry is below [pivot_tol] are skipped,
    and the others are touched only at the nonzeros of row [r] of B⁻¹.
    Records the pivot magnitude for {!trigger}. *)

val chain_length : t -> int
(** Eta updates absorbed since the last {!refactor}, {!load} or {!reset}. *)

val min_pivot : t -> float
(** Smallest [|alpha.(r)|] absorbed since the last refactorization
    ([infinity] for a fresh factorization). *)

(** Why a refactorization is (or is not) due. *)
type trigger =
  | No_refactor
  | Chain  (** eta chain reached the length cap *)
  | Stability  (** an absorbed pivot fell below the stability floor *)

val trigger : t -> trigger
(** Refactorization policy: [Stability] as soon as any absorbed pivot
    magnitude is below {!stability_pivot_floor}, else [Chain] once the
    chain reaches {!eta_chain_cap}. *)

val eta_chain_cap : int
(** Default chain-length cap (64): past this, accumulated eta roundoff
    outweighs the O(m³) cost of a fresh factorization. *)

val stability_pivot_floor : float
(** Pivot magnitudes below this (1e-7) mark the chain numerically suspect
    even when short. *)
