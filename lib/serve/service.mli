(** Domain-parallel batch scheduling over the certified schedule cache.

    [schedule_network] serves a whole network in one call: entries are
    deduplicated by content fingerprint (shape-equal layers share one
    solve), the {!Schedule_cache} is probed per distinct shape (falling
    through to a warm peer when one is given), misses are solved
    concurrently on a {!Pool} of OCaml 5 domains, and results are expanded
    by each shape's summed repeat count into repetition-weighted network
    totals. An optional fusion stage adds a certified cross-layer plan on
    top. Per-layer failures are typed and isolated: one layer blowing its
    budget degrades that layer (or marks it failed), never the batch. *)

type config = {
  arch : Spec.t;
  weights : Cosa.weights;
  strategy : Cosa.strategy;
  certify : Cosa.certify_mode;
  node_limit : int;  (** per-attempt branch-and-bound node budget *)
  time_limit : float;  (** per-layer budget (seconds) *)
  deadline : Robust.Deadline.t;  (** batch-wide absolute deadline *)
  jobs : int;  (** domain-pool width; 1 = inline *)
  warm_start : bool;
      (** LP warm starting inside branch-and-bound (parent-basis dual
          simplex); on by default, off is an escape hatch for bisection *)
}

val config :
  ?weights:Cosa.weights ->
  ?strategy:Cosa.strategy ->
  ?certify:Cosa.certify_mode ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?deadline:Robust.Deadline.t ->
  ?jobs:int ->
  ?warm_start:bool ->
  Spec.t ->
  config
(** Defaults mirror {!Cosa.schedule} ([strategy Auto], [certify Warn],
    [node_limit 50_000], [time_limit 4.], no deadline, [jobs 1]); absent
    [weights] are calibrated from the architecture.

    Determinism note: results are bit-deterministic across [jobs] counts
    and runs whenever solves terminate on optimality or the node budget
    rather than a wall-clock cutoff — choose [node_limit] (deterministic)
    as the binding budget and keep [time_limit]/[deadline] as safety nets
    when reproducibility matters. *)

type origin = Cache_memory | Cache_disk | Cache_peer | Solved of Cosa.source

val origin_to_string : origin -> string

type fuse_mode = Fuse_off | Fuse_chains | Fuse_auto

val fuse_mode_to_string : fuse_mode -> string

val request_fingerprint : config -> Layer.t -> Fingerprint.t
(** The base-strategy content fingerprint a request for this layer resolves
    to under this config — the key full-quality solves are stored under.
    Used to route per-shard admission statistics and to predict shard
    placement in tests. *)

type served = {
  mapping : Mapping.t;
  objective : Cosa.objective_breakdown;
  origin : origin;
  verdict : string;  (** certification verdict token: ok / skipped / failed *)
  solve_time : float;  (** this request's wall time for the shape; ~0 on hits *)
  fallback_chain : Robust.Failure.t list;  (** empty for cache hits *)
}

type layer_report = {
  layer : Layer.t;
  repeats : int;  (** summed over shape-equal entries *)
  served : (served, Robust.Failure.t) result;
  latency : float;  (** per instance, model cycles; 0 when failed *)
  energy_pj : float;
}

type report = {
  network_name : string;
  layers : layer_report list;  (** one per distinct shape, network order *)
  instances : int;
  distinct : int;
  served_from_cache : int;
  failed : int;
  total_latency : float;  (** repetition-weighted cycles *)
  total_energy_pj : float;
  solve_p50 : float;  (** per-shape serve-time percentiles (seconds) *)
  solve_p95 : float;
  cache_stats : Schedule_cache.stats option;  (** [None] without a cache *)
  wall_time : float;  (** of the per-layer stage; fusion planning excluded *)
  fusion : Fuse.Plan.network_plan option;  (** [None] iff [Fuse_off] *)
}

val schedule_network :
  ?tier:Schedule_cache.t ->
  ?remote:
    (arch:Spec.t -> layer:Layer.t -> Fingerprint.t -> Schedule_cache.entry option) ->
  ?count_miss:bool ->
  ?rung:Robust.Ladder.rung ->
  ?fuse:fuse_mode ->
  ?max_group:int ->
  config ->
  Network.t ->
  report
(** Never raises. Without [tier] nothing is cached. Cache traffic runs on
    the calling domain; the pool runs nothing but [Cosa.schedule]. Freshly
    solved schedules are stored back unless their certificate failed.

    [remote] is a warm-peer lookup consulted behind every local miss, for
    each key probed, with no shard lock held. Contract: it returns only
    records it has re-certified in exact arithmetic. A record it returns is
    stored into [tier] (write-through) and served as [Cache_peer]. It is
    consulted only when [tier] is given.

    [count_miss:false] (default [true]) books no cache miss — for the
    daemon's connection-thread fast path, whose misses the solver path
    re-probes.

    [rung] is the per-request degradation override used by the daemon's
    SLO-aware admission controller: it pins this request's solve strategy
    to the given ladder rung ([Joint]/[Two_stage]/[Heuristic]), leaving the
    config — and therefore the base cache key — untouched. Under any
    override the base-strategy cache key is probed first (a cached
    full-quality schedule beats a degraded solve), then the rung's own key;
    fresh degraded results are stored under the rung's key only.
    [Cache_probe] never solves: misses come back as typed
    [Robust.Failure.Deadline_exceeded] layer failures.

    [fuse] (default [Fuse_off]) runs the fusion planner over the derived
    chains as a purely additive second stage: the per-layer report is the
    same in every mode. [Fuse_chains] serves every certified fused group
    (at most [max_group] members); [Fuse_auto] additionally demotes
    fusions that do not beat the independent baseline. Fused groups are
    content-addressed by {!Fuse.Chain.group_hash}. A group that cannot be
    fused — injected fault, MIP failure, or certification failure —
    degrades to the certified per-layer answer with typed provenance. *)

val report_to_string : report -> string
(** The per-layer table and totals, then the fusion plan when present. *)
