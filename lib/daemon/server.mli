(** The persistent scheduling daemon: a Unix-domain-socket (plus optional
    TCP) server with a bounded request queue, SLO-aware admission
    ({!Admission}), typed backpressure, graceful drain, and crash-safe
    cache persistence.

    Threading: systhreads on one OCaml domain — an accept loop, one thread
    per connection, and a single solver thread. Connection threads probe
    the injected {!Serve.Schedule_cache} inline and answer hits without
    queueing; only misses reach the solver thread. Parallelism inside a
    solve comes from {!Serve.Service}'s domain pool, driven by the solver
    thread. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** additional TCP listener (bind host, port) speaking the same
          protocol *)
  service : Serve.Service.config;
      (** base architecture/strategy/budgets; per-request deadlines and
          rung overrides are applied on top *)
  admission : Admission.config;
  default_budget_s : float;  (** budget for requests that carry none *)
  tier : Serve.Schedule_cache.t;
      (** the schedule cache, owned by the caller: probed inline by
          connection threads, stored into by the solver thread, persisted
          by the drain *)
  read_deadline_s : float;
      (** per-connection receive deadline; a client stalling mid-frame
          this long poisons the connection. [<= 0] disables. *)
  idle_timeout_s : float;
      (** reap connections idle (no frame) this long; [<= 0] disables *)
  flight_capacity : int;
      (** flight-recorder ring size: the last N per-request records
          readable through the Stats frame (min 16; always on, not gated
          on the telemetry sink) *)
}

val config :
  ?admission:Admission.config ->
  ?default_budget_s:float ->
  ?tcp:string * int ->
  ?read_deadline_s:float ->
  ?idle_timeout_s:float ->
  ?flight_capacity:int ->
  tier:Serve.Schedule_cache.t ->
  socket_path:string ->
  Serve.Service.config ->
  config
(** Defaults: no TCP listener, [read_deadline_s 30.],
    [idle_timeout_s 300.], [flight_capacity 256]. Two bounds are fixed
    at 30 s: the per-connection send deadline (SO_SNDTIMEO: a client that
    stops reading fails its response write and is treated as dead,
    instead of pinning its thread and the drain in a blocked write), and
    the drain backstop (if the drain has not quiesced by then, still-busy
    connections are force-shutdown, re-armed per interval, so SIGTERM
    cannot hang on a wedged client). *)

(** The one count of every request outcome. Always on; the Prometheus
    frame renders each field as [cosa_daemon_<field>] (the reaper's as
    [cosa_daemon_conns_reaped]). *)
type stats = {
  mutable received : int;
  mutable admitted : int;
  mutable served : int;
  mutable failed : int;
      (** [Failed] answers: an unknown layer, network or arch, a layer
          the service could not serve, or an internal error *)
  mutable rejected_queue_full : int;
  mutable rejected_quota : int;
  mutable rejected_shedding : int;
  mutable rejected_deadline : int;
      (** unmeetable at admission, plus admitted requests whose budget
          the queue wait consumed (re-checked at dequeue) or whose
          probe-rung serve missed, plus cache-only probes that missed *)
  mutable max_queue_depth : int;
  mutable fastpath_served : int;
      (** cache hits answered inline on connection threads *)
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

val process_request : t -> Protocol.request -> Protocol.response
(** The full admission + serve path, bypassing the socket — what a
    connection thread runs per frame. Exposed for in-process harnesses
    (the soak bench drives overload through it without socket limits);
    requires {!run}/{!start} to be active so the solver thread exists.
    Mints a request id when the request carries [0L], binds it to the
    calling thread ([Telemetry.Trace.with_request]) for the duration,
    and writes a flight-recorder record on every outcome. *)

val mint_req_id : unit -> int64
(** A fresh nonzero request id, unique across processes and restarts: the
    pid, the clock and a process-local counter through a 64-bit mixer. The
    daemon mints one for each request that arrives with [0L]; clients mint
    their own to grep it in the flight recorder. *)

val stats_payload : t -> Protocol.stats_scope -> string
(** The Stats frame payload: the versioned JSON snapshot
    ([Stats_full], with the cache's per-shard counters under
    ["shards"]), the flight-recorder ring as a JSON array
    ([Stats_flight]), or Prometheus text ([Stats_prometheus]).
    Strictly read-only — reads the cache's stats and hit rates only
    (never [find], so no miss is booked), copies the stats mirrors
    under the lock, and never touches the solver thread; answering a
    stats query cannot perturb admission pricing or hit-rate
    accounting. *)
