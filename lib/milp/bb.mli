(** Branch-and-bound MILP solver over {!Simplex} LP relaxations.

    The search plunges depth first from a node, into the child on the side
    the LP value rounds to, until the plunge prunes; it then resumes best
    first from a heap ordered by the LP bound. Branching picks the
    fractional integer variable of highest priority, then the most
    fractional one within that priority. Node and time limits make the
    solver anytime: the best incumbent found so far is always returned. *)

type status =
  | Optimal        (** proved optimal within tolerance *)
  | Feasible
      (** an incumbent in hand, but a limit hit or a subtree was dropped
          unexplored (its node LP aborted or hit its iteration limit) *)
  | Infeasible
  | Unbounded
  | No_solution    (** limit hit before any incumbent was found *)

type result = {
  status : status;
  obj : float;             (** objective in the model's own sense *)
  values : float array;    (** one value per model variable *)
  bound : float;
      (** best proven bound on the optimum, in the model's own sense: no
          solution of the model is better. It is the most optimistic of
          the incumbent and the LP bounds of the nodes dropped without
          proof: nodes left open when a limit hit, nodes whose LP
          aborted (see [failures]) or stopped at its iteration limit, and,
          under [gap > 0], nodes pruned only thanks to the gap (so an
          [Optimal] result is within [gap] of it). A search cut short at
          the root has an infinite bound. On [No_solution] it is the bound
          of the dropped and open nodes; on [Infeasible] and [Unbounded]
          it is [nan]. *)
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
  failures : Robust.Failure.t list;
      (** typed failures swallowed during the search (node LPs that aborted
          on a singular basis, NaN corruption, injected faults, or the
          deadline), oldest first, capped at 64 entries. Empty on a clean
          run. When non-empty the search skipped subtrees, so an [Optimal]
          claim is downgraded to [Feasible]. *)
}

val solve :
  ?node_limit:int ->
  ?time_limit:float ->
  ?deadline:Robust.Deadline.t ->
  ?priority:float array ->
  ?gap:float ->
  ?warm_start:float array ->
  ?warm_lp:bool ->
  Lp.model ->
  result
(** Defaults: [node_limit = 200_000], [time_limit = 60.] seconds,
    [gap = 0.], integrality to 1e-6. The effective wall-clock budget
    is the tighter of [time_limit] (relative) and [deadline] (absolute);
    it is propagated into every node's simplex solve, so a single long LP
    cannot blow the budget. [solve] never raises: node LPs that fail with
    a typed error are pruned and reported via [failures]. [priority]
    (indexed by variable) biases the branching rule: among fractional
    integer variables the highest priority wins, most-fractional breaking
    ties. [gap] is an absolute optimality tolerance: nodes whose LP bound
    is within [gap] of the incumbent are pruned (the returned solution is
    then optimal within [gap]). [warm_start], when feasible for the model,
    seeds the incumbent so the search starts with an upper bound (a MIP
    start). [warm_lp] (default [true]) reoptimizes each child node's LP
    with dual simplex from its parent's optimal basis instead of solving
    cold; thanks to vertex canonicalization in the solver this is exactly
    behaviour-preserving — same tree, same node counts, bit-identical
    schedules — so the toggle exists only for benchmarking. *)

val check_feasible : ?tol:float -> Lp.model -> float array -> bool
(** Whether an assignment satisfies all bounds, integrality, and
    constraints of the model (used for warm starts and in tests). *)

val value : result -> Lp.var -> float
(** Convenience accessor into [values]. *)

val relax : Lp.model -> Simplex.problem
(** The LP relaxation in equality standard form (slack variables appended
    after the structural ones). Exposed for tests. *)
