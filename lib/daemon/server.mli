(** The persistent scheduling daemon: a Unix-domain-socket (plus optional
    TCP) server with a bounded request queue, SLO-aware admission
    ({!Admission}), typed backpressure, graceful drain, and crash-safe
    cache persistence.

    Threading: systhreads on one OCaml domain — an accept loop (which also
    ticks injected housekeeping such as peer health probes), one thread
    per connection, and a single solver thread. Injecting a
    {!Serve.Schedule_cache} (as [cosa_cli serve] does) unlocks the cache
    fast path, where connection threads answer pure cache hits inline and
    only misses reach the solver thread. Without one the server creates
    its own one-shard cache and every request, hit or miss, queues for the
    solver thread; the soak's load step requests only cached layers and
    relies on that queueing to provoke typed rejections, which is why this
    mode stays. Parallelism inside a solve comes from {!Serve.Service}'s
    domain pool, driven by the solver thread. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** additional TCP listener (bind host, port) speaking the same
          protocol — the multi-host transport *)
  service : Serve.Service.config;
      (** base architecture/strategy/budgets; per-request deadlines and
          rung overrides are applied on top *)
  admission : Admission.config;
  cache_dir : string option;  (** enables the persistent disk tier *)
  cache_capacity : int;
  default_budget_s : float;  (** budget for requests that carry none *)
  tier : Serve.Schedule_cache.t option;
      (** injected cache, probed inline by connection threads; absent =
          the server's own one-shard cache, hits queue like misses *)
  remote_probe :
    (arch:Spec.t ->
    layer:Layer.t ->
    Serve.Fingerprint.t ->
    Serve.Schedule_cache.entry option)
      option;
      (** warm-peer lookup behind local misses on the solver path
          ({!Serve.Service.schedule_network}'s [?remote]). Contract:
          implementations re-certify every record in exact arithmetic
          before returning it; verified entries are stored back into the
          local cache and served as [Cache_peer]. *)
  housekeeping : (unit -> unit) option;
      (** ticked by the accept loop every select round (~50ms); cluster
          deployments drive peer health checks from here *)
  read_deadline_s : float;
      (** per-connection receive deadline; a peer stalling mid-frame this
          long poisons the connection. [<= 0] disables. *)
  write_deadline_s : float;
      (** per-connection send deadline (SO_SNDTIMEO): a client that stops
          reading makes the response write fail after this long and the
          connection is treated as dead, instead of pinning its thread
          (and the drain) in a blocked write. [<= 0] disables. *)
  drain_deadline_s : float;
      (** graceful-drain backstop: if the drain has not quiesced after
          this long, still-busy connections are force-shutdown (re-armed
          per interval) so SIGTERM cannot hang on a wedged client.
          [<= 0] waits indefinitely. *)
  idle_timeout_s : float;
      (** reap connections idle (no frame) this long; [<= 0] disables *)
  tmp_sweep_age_s : float;
      (** stale temp-file sweep age threshold for the server-owned cache
          ([0.] = sweep all, the historical behavior) *)
  fault_crash_exit : bool;
      (** honor the [net.peer_crash] fault site with a process exit(42)
          mid-response — chaos harnesses only *)
  flight_capacity : int;
      (** flight-recorder ring size: the last N per-request records
          readable through the Stats frame (min 16; always on, not gated
          on the telemetry sink) *)
  stats_extra : (string * (unit -> string)) list;
      (** extra named JSON sections appended to the [Stats_full]
          snapshot; cluster wiring injects ["shards"] and ["peers"]
          here. Thunks must return valid JSON and be safe to call from a
          connection thread. *)
}

val config :
  ?admission:Admission.config ->
  ?cache_dir:string ->
  ?cache_capacity:int ->
  ?default_budget_s:float ->
  ?tcp:string * int ->
  ?tier:Serve.Schedule_cache.t ->
  ?remote_probe:
    (arch:Spec.t ->
    layer:Layer.t ->
    Serve.Fingerprint.t ->
    Serve.Schedule_cache.entry option) ->
  ?housekeeping:(unit -> unit) ->
  ?read_deadline_s:float ->
  ?write_deadline_s:float ->
  ?drain_deadline_s:float ->
  ?idle_timeout_s:float ->
  ?tmp_sweep_age_s:float ->
  ?fault_crash_exit:bool ->
  ?flight_capacity:int ->
  ?stats_extra:(string * (unit -> string)) list ->
  socket_path:string ->
  Serve.Service.config ->
  config
(** Defaults: no TCP listener, no injected tier/peers/housekeeping,
    [read_deadline_s 30.], [write_deadline_s 30.], [drain_deadline_s 30.],
    [idle_timeout_s 300.], [tmp_sweep_age_s 0.],
    [fault_crash_exit false], [flight_capacity 256], no extra stats
    sections. *)

type stats = {
  mutable received : int;
  mutable admitted : int;
  mutable served : int;
  mutable failed : int;
  mutable rejected_queue_full : int;
  mutable rejected_quota : int;
  mutable rejected_shedding : int;
  mutable rejected_deadline : int;
      (** unmeetable at admission, plus admitted requests whose budget
          the queue wait consumed (re-checked at dequeue), plus
          cache-only probes that missed *)
  mutable max_queue_depth : int;
  mutable fastpath_served : int;
      (** cache hits answered inline on connection threads (requires an
          injected cache) *)
  mutable reaped : int;  (** idle connections closed by the reaper *)
  mutable persisted : int;  (** cache records written by the drain *)
}

type t

val create : config -> t

val run : t -> unit
(** Serve on the calling thread until {!shutdown}, then drain: stop
    accepting, answer everything queued or in flight, persist the
    schedule cache (crash-safe writes), close connections, return. *)

val start : t -> Thread.t
(** [run] on a background thread; {!shutdown} then [Thread.join] the
    result to stop. *)

val shutdown : t -> unit
(** Request a graceful drain. One atomic store — safe from a signal
    handler; the accept loop notices within one select tick. *)

val draining : t -> bool

val wait_ready : t -> unit
(** Block until the listening sockets are bound (at most once per [t]). *)

val stats : t -> stats
(** A consistent snapshot. *)

val tier : t -> Serve.Schedule_cache.t
(** The server's cache (injected or its own) — exposed for drain/restart
    tests. *)

val process_request : t -> Protocol.request -> Protocol.response
(** The full admission + serve path, bypassing the socket — what a
    connection thread runs per frame. Exposed for in-process harnesses
    (the soak bench drives overload through it without socket limits);
    requires {!run}/{!start} to be active so the solver thread exists.
    Mints a request id when the request carries [0L], binds it to the
    calling thread ([Telemetry.Trace.with_request]) for the duration,
    and writes a flight-recorder record on every outcome. *)

val stats_payload : t -> Protocol.stats_scope -> string
(** The Stats frame payload: the versioned JSON snapshot
    ([Stats_full]), the flight-recorder ring as a JSON array
    ([Stats_flight]), or Prometheus text ([Stats_prometheus]).
    Strictly read-only — reads the cache's stats and hit rates only
    (never [find], so no miss is booked), copies the stats mirrors under the lock, and never touches
    the solver thread; answering a stats query cannot perturb admission
    pricing or hit-rate accounting. *)
