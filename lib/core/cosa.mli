(** CoSA: one-shot DNN scheduling by constrained optimization.

    The public entry point of the library. {!schedule} formulates the
    layer/architecture pair as a MIP (Section III of the paper), solves it
    with the bundled branch-and-bound solver, and decodes the solution into
    a valid {!Mapping.t} — no iterative search, no simulation feedback. *)

type weights = Cosa_formulation.weights = { w_util : float; w_comp : float; w_traf : float }

val default_weights : weights

val calibrate : Spec.t -> weights
(** The paper's micro-benchmark procedure: weight the traffic objective by
    the architecture's cycles-per-word to cycles-per-MAC ratio so that
    [w_T * Traf] and [w_C * Comp] are commensurable (Section III-D4). *)

type objective_breakdown = Cosa_objective.t = {
  util : float;  (** Eq. 5 value (to be maximised) *)
  comp : float;  (** Eq. 6 value *)
  traf : float;  (** Eq. 11 value *)
  total : float;  (** Eq. 12 composite *)
}

type strategy =
  | Auto  (** joint MIP and two-stage decomposition, best Eq.-12 value wins *)
  | Joint  (** the paper's single joint MIP only *)
  | Two_stage  (** tiling/spatial MIP, then exact permutation sub-solve *)
  | Heuristic
      (** skip the MIP rungs entirely: serve the best valid sampled mapping
          (the degradation ladder's rung 2). The deadline-pressure strategy —
          a few milliseconds instead of a solve — used by the daemon's
          admission controller when the remaining SLO budget cannot fit a
          MIP rung. *)

val strategy_to_string : strategy -> string

type source =
  | Milp_joint  (** the paper's one-shot joint MIP *)
  | Milp_two_stage  (** tiling MIP + exact permutation sub-solve *)
  | Heuristic_sampler  (** random valid-mapping sampler, best-of-N *)
  | Trivial  (** the all-DRAM fallback schedule *)

val source_to_string : source -> string

type certify_mode = Certify.Certificate.mode =
  | Off  (** no certification; trust the float pipeline *)
  | Warn  (** certify and record the verdict, but keep the candidate *)
  | Strict  (** a failed certificate rejects the rung; the ladder descends *)

val certify_mode_to_string : certify_mode -> string

type certification =
  | Cert_skipped  (** certification mode was [Off] *)
  | Cert_ok  (** the returned schedule passed exact-arithmetic certification *)
  | Cert_failed of string list
      (** violated constraints (with exact residuals); only reachable in
          [Warn] mode, or in [Strict] mode on the bottom (trivial) rung *)

val certification_to_string : certification -> string

type result = {
  mapping : Mapping.t;
  objective : objective_breakdown;
  solver_status : Milp.Bb.status;
  solve_time : float;  (** seconds, formulation + solve + decode *)
  nodes : int;
  repaired : bool;  (** decode needed the capacity repair pass *)
  used_joint : bool;  (** the returned mapping came from the joint MIP *)
  source : source;  (** the degradation-ladder rung that produced [mapping] *)
  certification : certification;
      (** exact-arithmetic verdict on the returned schedule: the solver's
          claimed LP solution replayed against the model (MIP rungs) and an
          independent recheck of the decoded mapping (all rungs) *)
  fallback_chain : Robust.Failure.t list;
      (** why each failed rung fell through, in ladder order, with runs of
          identical causes collapsed. Empty exactly when no rung failed. *)
}

val schedule :
  ?weights:weights ->
  ?strategy:strategy ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?deadline:Robust.Deadline.t ->
  ?heuristic_retries:int ->
  ?certify:certify_mode ->
  ?warm_start:bool ->
  Spec.t ->
  Layer.t ->
  result
(** Produce a schedule in one shot. [schedule] never raises and the
    returned mapping is always valid on the architecture: on any typed
    failure (solver abort, blown deadline, decode failure, injected fault)
    it descends the degradation ladder

    {v MIP (joint and/or two-stage) -> heuristic sampler -> all-DRAM v}

    recording each rung's failure in [fallback_chain]. The wall-clock
    budget is the tighter of [time_limit] (relative, default 4 s, covering
    the whole call) and [deadline] (absolute); it is enforced down to the
    simplex pivot loop, so even a single LP solve cannot blow the budget.
    [heuristic_retries] (default 3) bounds the seed-perturbed sampler
    retries on the heuristic rung. [warm_start] (default [true]) toggles
    LP warm starting inside branch-and-bound: child nodes reoptimize from
    the parent's simplex basis with dual simplex instead of solving cold.
    It only changes how fast nodes solve, never which schedule wins — the
    escape hatch exists for benchmarking and bisection.

    Every rung's candidate additionally passes through the exact-arithmetic
    certification layer ({!Certify}) according to [certify] (default
    [Warn]): MIP solutions are replayed against the LP model and the
    decoded mapping is independently rechecked, both in rational
    arithmetic. Under [Strict] a candidate whose certificate fails is
    rejected — the violation joins [fallback_chain] as
    {!Robust.Failure.Certification_failed} and the ladder descends — so
    the returned schedule is certified valid whenever
    [result.certification = Cert_ok]. *)

val breakdown_of_mapping : ?weights:weights -> Spec.t -> Mapping.t -> objective_breakdown
(** Evaluate the paper's three objective terms on {e any} concrete mapping
    (used by the Fig. 8 experiment to compare schedulers in objective
    space). *)

val trivial_mapping : Spec.t -> Layer.t -> Mapping.t
(** The always-valid schedule that keeps every loop temporal at DRAM. *)
