(* The persistent scheduling daemon.

   One process, listening sockets (a Unix-domain socket, plus an optional
   TCP listener for multi-host deployments speaking the same protocol),
   and three kinds of thread sharing a single OCaml domain:

   - the accept loop ([run]'s own thread), which also ticks housekeeping
     (drain detection, idle-connection reaping, injected cluster chores
     such as peer health probes) on a short select timeout;
   - one connection thread per client, reading length-prefixed request
     frames, running admission, and writing responses — connections are
     cheap because they spend their lives blocked in [read];
   - one solver thread, which runs every queued request. Solve fan-out
     inside a network request still uses the domain pool, spawned from
     the solver thread.

   The cache: an injected [Serve.Schedule_cache] (what `cosa_cli serve`
   does) unlocks the cache fast path, where a connection thread answers a
   pure cache probe inline, so hits no longer serialize through the
   solver thread, which only ever sees misses. Without one the server
   creates its own one-shard cache and every request, hit or miss, queues
   for the solver thread: the soak's load step relies on cached requests
   queueing to provoke typed rejections. An injected [remote_probe] is
   handed to [Serve.Service.schedule_network ?remote] on the solver path;
   the prober owns re-certification, so a peer can cost a counted miss but
   never a wrong serve.

   All shared state (queue, admission, stats, connection registry) lives
   under one mutex. Overload never goes silent: every path out of
   admission is a typed [Rejected] frame, and a request that was
   admitted but starved in the queue past its deadline is re-checked at
   dequeue and answered [Deadline_unmeetable] rather than started
   doomed.

   Graceful drain ([shutdown], wired to SIGTERM/SIGINT by the CLI): stop
   accepting, answer queued and in-flight requests, persist the schedule
   cache to disk (crash-safe writes), then close connections and return
   from [run]. A later cold start serves the drained schedules from the
   disk tier after exact-arithmetic re-verification — the crash-recovery
   path and the clean-restart path are the same code. [shutdown] only
   flips an atomic flag, so it is safe to call from a signal handler;
   the accept loop notices within one select tick and does the actual
   teardown from normal thread context. *)

(* Telemetry: the daemon's observable surface. Counters for admission
   verdicts and the rung distribution, a gauge for queue depth, and
   end-to-end latency histograms. Zero-cost while the sink is off. *)
let m_received = Telemetry.Metrics.counter "daemon.received"
let m_admitted = Telemetry.Metrics.counter "daemon.admitted"
let m_rej_queue = Telemetry.Metrics.counter "daemon.rejected.queue_full"
let m_rej_quota = Telemetry.Metrics.counter "daemon.rejected.quota"
let m_rej_shed = Telemetry.Metrics.counter "daemon.rejected.shedding"
let m_rej_deadline = Telemetry.Metrics.counter "daemon.rejected.deadline"
let m_failed = Telemetry.Metrics.counter "daemon.failed"
let m_fastpath = Telemetry.Metrics.counter "daemon.fastpath_served"
let m_reaped = Telemetry.Metrics.counter "daemon.conns_reaped"
let g_queue_depth = Telemetry.Metrics.gauge "daemon.queue_depth"

let h_e2e =
  Telemetry.Metrics.histogram ~buckets:Telemetry.Metrics.duration_buckets "daemon.e2e_s"

let h_queue_wait =
  Telemetry.Metrics.histogram ~buckets:Telemetry.Metrics.duration_buckets
    "daemon.queue_wait_s"

let rung_counter = function
  | Robust.Ladder.Joint -> Telemetry.Metrics.counter "daemon.rung.joint"
  | Robust.Ladder.Two_stage -> Telemetry.Metrics.counter "daemon.rung.two_stage"
  | Robust.Ladder.Heuristic -> Telemetry.Metrics.counter "daemon.rung.heuristic"
  | Robust.Ladder.Cache_probe -> Telemetry.Metrics.counter "daemon.rung.cache_probe"

type config = {
  socket_path : string;
  tcp : (string * int) option;  (* extra TCP listener: (bind host, port) *)
  service : Serve.Service.config;  (* base arch/strategy/budgets/pool width *)
  admission : Admission.config;
  cache_dir : string option;
  cache_capacity : int;
  default_budget_s : float;  (* for requests that carry no budget *)
  tier : Serve.Schedule_cache.t option;
      (* injected cache; enables the conn-thread cache fast path. Absent:
         the server owns a one-shard cache and every request queues. *)
  remote_probe :
    (arch:Spec.t -> layer:Layer.t -> Serve.Fingerprint.t -> Serve.Schedule_cache.entry option)
      option;
      (* warm-peer lookup behind local misses on the solver path; the
         prober must re-certify before returning an entry *)
  housekeeping : (unit -> unit) option;  (* ticked by the accept loop *)
  read_deadline_s : float;  (* per-connection receive deadline; <= 0 = none *)
  write_deadline_s : float;
      (* per-connection send deadline (SO_SNDTIMEO); <= 0 = none. A client
         that stops reading blocks its connection thread in the response
         write with [busy] set; without a bound the drain loop would wait
         on it forever. A timed-out write is a dead connection. *)
  drain_deadline_s : float;
      (* graceful-drain backstop: after this long without quiescing,
         force-shutdown still-busy connections so their threads fail out
         of blocked writes; <= 0 = wait indefinitely *)
  idle_timeout_s : float;  (* reap connections idle this long; <= 0 = never *)
  tmp_sweep_age_s : float;  (* stale-temp-file sweep threshold for the own cache *)
  fault_crash_exit : bool;
      (* honor the net.peer_crash fault site with a process exit — only
         ever set by chaos harnesses, so an ordinary --fault-seed run
         cannot kill the daemon *)
  flight_capacity : int;  (* flight-recorder ring: last N request records *)
  stats_extra : (string * (unit -> string)) list;
      (* extra named JSON sections for the Stats frame (cluster wiring
         injects "shards" / "peers" here); each thunk must return valid
         JSON and be safe to call from a connection thread *)
}

let config ?(admission = Admission.default_config ()) ?cache_dir
    ?(cache_capacity = 256) ?(default_budget_s = 30.) ?tcp ?tier ?remote_probe
    ?housekeeping ?(read_deadline_s = 30.) ?(write_deadline_s = 30.)
    ?(drain_deadline_s = 30.) ?(idle_timeout_s = 300.)
    ?(tmp_sweep_age_s = 0.) ?(fault_crash_exit = false)
    ?(flight_capacity = 256) ?(stats_extra = []) ~socket_path service =
  {
    socket_path;
    tcp;
    service;
    admission;
    cache_dir;
    cache_capacity;
    default_budget_s;
    tier;
    remote_probe;
    housekeeping;
    read_deadline_s;
    write_deadline_s;
    drain_deadline_s;
    idle_timeout_s;
    tmp_sweep_age_s;
    fault_crash_exit;
    flight_capacity = max 16 flight_capacity;
    stats_extra;
  }

(* Plain mirrors of the telemetry counters: the metrics sink is off by
   default, and tests and the drain report need the numbers regardless. *)
type stats = {
  mutable received : int;
  mutable admitted : int;
  mutable served : int;
  mutable failed : int;
  mutable rejected_queue_full : int;
  mutable rejected_quota : int;
  mutable rejected_shedding : int;
  mutable rejected_deadline : int;
  mutable max_queue_depth : int;
  mutable fastpath_served : int;  (* cache hits answered on the conn thread *)
  mutable reaped : int;  (* idle connections closed by the reaper *)
  mutable persisted : int;  (* cache records written at drain *)
}

(* Single-assignment reply slot a connection thread blocks on while the
   solver works its job. *)
type reply = {
  rm : Mutex.t;
  rc : Condition.t;
  mutable resp : Protocol.response option;
}

type job = {
  net : Network.t;
  service : Serve.Service.config;  (* arch-resolved; budget applied at dequeue *)
  rung : Robust.Ladder.rung;  (* admission-time selection (upper bound) *)
  deadline : Robust.Deadline.t;  (* absolute: arrival + budget *)
  arrival : float;
  est_cost : float;  (* admission estimate, for queue-delay accounting *)
  req_id : int64;  (* rebound on the solver thread: the request context is
                      per-systhread, and the peer probe runs over there *)
  hop : int;
  reply : reply;
}

type conn = { fd : Unix.file_descr; mutable busy : bool; mutable last : float }

(* One flight-recorder record: the per-request story an operator reads
   back through the Stats frame. Always on — unlike trace/metrics it is
   not gated on the telemetry sink, because the ring is fixed-size and a
   record is a handful of immutable fields written under the lock the
   request already holds for its stats updates. *)
type flight_entry = {
  f_id : int64;
  f_hop : int;
  f_client : string;
  f_target : string;  (* "layer:NAME" / "network:NAME" *)
  f_cache_only : bool;
  f_rung_admitted : string;  (* admission-time rung; "" if never admitted *)
  f_rung_served : string;  (* rung actually served; "" unless Scheduled *)
  f_origin : string;  (* first served layer's origin; "" otherwise *)
  f_verdict : string;  (* scheduled / rejected:<reason> / failed *)
  f_queue_wait_s : float;
  f_serve_s : float;
  f_ts : float;  (* arrival, epoch seconds *)
}

type t = {
  cfg : config;
  cache : Serve.Schedule_cache.t;  (* injected, or the server's own *)
  fast_ok : bool;  (* the cache was injected: conn threads probe it inline *)
  adm : Admission.t;
  lock : Mutex.t;
  qc : Condition.t;  (* wakes the solver: work queued or draining *)
  queue : job Queue.t;
  mutable pending_cost : float;  (* summed est_cost of queued jobs *)
  mutable running_until : float;  (* est. completion of the in-solve job *)
  stop : bool Atomic.t;  (* the only field a signal handler touches *)
  conns : (int, conn) Hashtbl.t;
  mutable conn_seq : int;
  stats : stats;
  flight : flight_entry option array;  (* ring, guarded by [lock] *)
  mutable flight_pos : int;  (* total records; next slot = pos mod len *)
  ready : Semaphore.Binary.t;  (* posted once the sockets are listening *)
}

let create cfg =
  let cache, fast_ok =
    match cfg.tier with
    | Some cache -> (cache, true)
    | None ->
      ( Serve.Schedule_cache.create ?dir:cfg.cache_dir
          ~tmp_sweep_age_s:cfg.tmp_sweep_age_s ~capacity:cfg.cache_capacity (),
        false )
  in
  {
    cfg;
    cache;
    fast_ok;
    adm = Admission.create cfg.admission;
    lock = Mutex.create ();
    qc = Condition.create ();
    queue = Queue.create ();
    pending_cost = 0.;
    running_until = 0.;
    stop = Atomic.make false;
    conns = Hashtbl.create 16;
    conn_seq = 0;
    stats =
      {
        received = 0;
        admitted = 0;
        served = 0;
        failed = 0;
        rejected_queue_full = 0;
        rejected_quota = 0;
        rejected_shedding = 0;
        rejected_deadline = 0;
        max_queue_depth = 0;
        fastpath_served = 0;
        reaped = 0;
        persisted = 0;
      };
    flight = Array.make (max 16 cfg.flight_capacity) None;
    flight_pos = 0;
    ready = Semaphore.Binary.make false;
  }

let stats t = Mutex.protect t.lock (fun () -> { t.stats with served = t.stats.served })
let tier t = t.cache

(* Async-signal-safe: one atomic store, no locks. *)
let shutdown t = Atomic.set t.stop true
let draining t = Atomic.get t.stop

(* Block until the listening sockets are bound — spares tests and the soak
   harness a connect-retry loop against a server thread still starting. *)
let wait_ready t = Semaphore.Binary.acquire t.ready

(* ---- request resolution ----------------------------------------------- *)

let resolve t (req : Protocol.request) =
  match List.assoc_opt req.Protocol.arch Spec.variants with
  | None -> Error ("unknown architecture " ^ req.Protocol.arch)
  | Some arch ->
    let base = t.cfg.service in
    let service =
      if arch.Spec.aname = base.Serve.Service.arch.Spec.aname then base
      else { base with Serve.Service.arch; weights = Cosa.calibrate arch }
    in
    (match req.Protocol.target with
     | Protocol.Layer name ->
       (match Zoo.find name with
        | l ->
          Ok
            ( service,
              { Network.nname = name;
                entries = [ { Network.layer = l; repeats = 1 } ] } )
        | exception Not_found -> Error ("unknown layer " ^ name))
     | Protocol.Network name ->
       (match Network.find name with
        | Some n -> Ok (service, n)
        | None -> Error ("unknown network " ^ name)))

(* The hit rate admission prices a request against: a single-layer
   request's owner shard, or the aggregate for whole networks. *)
let admission_hit_rate t (service : Serve.Service.config) (net : Network.t) =
  match net.Network.entries with
  | [ { Network.layer; _ } ] ->
    Serve.Schedule_cache.shard_hit_rate t.cache
      (Serve.Schedule_cache.shard_index t.cache
         (Serve.Service.request_fingerprint service layer))
  | _ -> Serve.Schedule_cache.hit_rate t.cache

(* ---- solver thread ---------------------------------------------------- *)

(* Callers hold [t.lock]. *)
let reject_stat t (reason : Protocol.reject_reason) =
  (match reason with
   | Protocol.Queue_full ->
     t.stats.rejected_queue_full <- t.stats.rejected_queue_full + 1;
     Telemetry.Metrics.incr m_rej_queue
   | Protocol.Quota_exceeded ->
     t.stats.rejected_quota <- t.stats.rejected_quota + 1;
     Telemetry.Metrics.incr m_rej_quota
   | Protocol.Shedding ->
     t.stats.rejected_shedding <- t.stats.rejected_shedding + 1;
     Telemetry.Metrics.incr m_rej_shed
   | Protocol.Deadline_unmeetable ->
     t.stats.rejected_deadline <- t.stats.rejected_deadline + 1;
     Telemetry.Metrics.incr m_rej_deadline);
  Protocol.Rejected reason

let layer_payload (service : Serve.Service.config)
    (lr : Serve.Service.layer_report) =
  match lr.Serve.Service.served with
  | Error _ -> None
  | Ok s ->
    let meta =
      {
        Mapping_io.weights =
          Some
            ( service.Serve.Service.weights.Cosa.w_util,
              service.Serve.Service.weights.Cosa.w_comp,
              service.Serve.Service.weights.Cosa.w_traf );
        strategy = Cosa.strategy_to_string service.Serve.Service.strategy;
        source = Serve.Service.origin_to_string s.Serve.Service.origin;
        verdict = s.Serve.Service.verdict;
        objective =
          Some
            ( s.Serve.Service.objective.Cosa.util,
              s.Serve.Service.objective.Cosa.comp,
              s.Serve.Service.objective.Cosa.traf,
              s.Serve.Service.objective.Cosa.total );
        solve_time = s.Serve.Service.solve_time;
      }
    in
    Some
      {
        Protocol.name = lr.Serve.Service.layer.Layer.name;
        repeats = lr.Serve.Service.repeats;
        origin = Serve.Service.origin_to_string s.Serve.Service.origin;
        verdict = s.Serve.Service.verdict;
        record = Mapping_io.record_to_string meta s.Serve.Service.mapping;
      }

let scheduled_of_report ~rung ~arrival ~queue_wait (service : Serve.Service.config)
    (report : Serve.Service.report) =
  Protocol.Scheduled
    {
      Protocol.rung;
      layers = List.filter_map (layer_payload service) report.Serve.Service.layers;
      total_latency = report.Serve.Service.total_latency;
      total_energy_pj = report.Serve.Service.total_energy_pj;
      queue_wait_s = queue_wait;
      serve_s = Robust.Deadline.now () -. arrival;
    }

let serve_job t (job : job) =
  let start = Robust.Deadline.now () in
  let queue_wait = start -. job.arrival in
  Telemetry.Metrics.observe h_queue_wait queue_wait;
  let remaining = Robust.Deadline.remaining job.deadline in
  (* Re-select at dequeue: the wait may have eaten the budget. The
     admission rung is an upper bound — dequeue can only degrade further
     (monotonic backpressure), never upgrade. *)
  let reselected =
    Mutex.protect t.lock (fun () ->
        let hit_rate = Serve.Schedule_cache.hit_rate t.cache in
        let budget = (Admission.config t.adm).Admission.safety *. remaining in
        match Robust.Ladder.select ~budget (Admission.estimates t.adm ~hit_rate) with
        | None -> None
        | Some r ->
          Some
            (if Robust.Ladder.rank r < Robust.Ladder.rank job.rung then r
             else job.rung))
  in
  match reselected with
  | None -> Mutex.protect t.lock (fun () -> reject_stat t Protocol.Deadline_unmeetable)
  | Some rung ->
    Telemetry.Metrics.incr (rung_counter rung);
    (* The request deadline caps the serve; the server's configured
       per-layer limit still applies — a generous SLO must not talk a
       joint solve into grinding for the whole budget. *)
    let service =
      { job.service with
        Serve.Service.deadline = job.deadline;
        time_limit = Float.min job.service.Serve.Service.time_limit remaining }
    in
    let report =
      Serve.Service.schedule_network ~tier:t.cache ?remote:t.cfg.remote_probe ~rung
        service job.net
    in
    let dt = Robust.Deadline.now () -. start in
    (* Feed the estimator the cost of what actually ran: a live solve is
       evidence about the rung; an all-cache serve is probe-cost
       evidence, whatever rung was nominally selected. *)
    let live_solves =
      report.Serve.Service.distinct - report.Serve.Service.served_from_cache
      - report.Serve.Service.failed
    in
    Mutex.protect t.lock (fun () ->
        Admission.observe t.adm
          (if live_solves > 0 then rung else Robust.Ladder.Cache_probe)
          dt;
        if report.Serve.Service.failed > 0 then
          match rung with
          | Robust.Ladder.Cache_probe ->
            (* cache-only probe missed: certified answer or typed no *)
            reject_stat t Protocol.Deadline_unmeetable
          | _ ->
            t.stats.failed <- t.stats.failed + 1;
            Telemetry.Metrics.incr m_failed;
            let first_failure =
              List.find_map
                (fun (lr : Serve.Service.layer_report) ->
                  match lr.Serve.Service.served with
                  | Error f -> Some (Robust.Failure.to_string f)
                  | Ok _ -> None)
                report.Serve.Service.layers
            in
            Protocol.Failed (Option.value first_failure ~default:"layer failure")
        else begin
          t.stats.served <- t.stats.served + 1;
          scheduled_of_report ~rung ~arrival:job.arrival ~queue_wait service report
        end)

let solver_loop t =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not (Atomic.get t.stop) do
      Condition.wait t.qc t.lock
    done;
    if Queue.is_empty t.queue then
      (* draining and nothing left: exit *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      t.pending_cost <- Float.max 0. (t.pending_cost -. job.est_cost);
      t.running_until <- Robust.Deadline.now () +. job.est_cost;
      Telemetry.Metrics.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
      Mutex.unlock t.lock;
      let resp =
        (* re-bind the request context here: the connection thread's
           binding does not follow the job across threads, and the solver
           path is where spans, log lines and outbound peer probes live *)
        try
          Telemetry.Trace.with_request ~id:job.req_id ~hop:job.hop (fun () ->
              serve_job t job)
        with e ->
          Mutex.protect t.lock (fun () ->
              t.stats.failed <- t.stats.failed + 1;
              Telemetry.Metrics.incr m_failed);
          Protocol.Failed ("internal error: " ^ Printexc.to_string e)
      in
      Mutex.protect t.lock (fun () -> t.running_until <- 0.);
      Telemetry.Metrics.observe h_e2e (Robust.Deadline.now () -. job.arrival);
      Mutex.protect job.reply.rm (fun () ->
          job.reply.resp <- Some resp;
          Condition.signal job.reply.rc);
      next ()
    end
  in
  next ()

(* ---- connection handling ---------------------------------------------- *)

(* Cache fast path: a pure local cache probe on the calling (connection)
   thread. Only taken when the cache was injected ([fast_ok]); never
   consults peers (a [cache_only] request from a peer must not cascade)
   and never solves. Probes book no miss ([count_miss:false]): a
   fast-path miss on an ordinary request is re-probed by the solver path,
   so booking it here too would count two (or, across the rung-key walk,
   more) misses per request and deflate the hit rate admission prices
   against. A missed [cache_only] peer probe books no miss at all — it is
   answered with a typed rejection without reaching the solver path, and
   peer traffic should not skew the window that prices *local* admission.
   Fast-path hits always count. *)
let try_fast_path t (service : Serve.Service.config) net ~arrival ~budget =
  if not t.fast_ok then None
  else begin
    let scfg =
      { service with Serve.Service.deadline = Robust.Deadline.at (arrival +. budget) }
    in
    let report =
      Serve.Service.schedule_network ~tier:t.cache ~count_miss:false
        ~rung:Robust.Ladder.Cache_probe scfg net
    in
    if report.Serve.Service.failed > 0 then None
    else begin
      let dt = Robust.Deadline.now () -. arrival in
      Mutex.protect t.lock (fun () ->
          t.stats.served <- t.stats.served + 1;
          t.stats.fastpath_served <- t.stats.fastpath_served + 1;
          Admission.observe t.adm Robust.Ladder.Cache_probe dt);
      Telemetry.Metrics.incr m_fastpath;
      Telemetry.Metrics.incr (rung_counter Robust.Ladder.Cache_probe);
      Telemetry.Metrics.observe h_e2e dt;
      Some
        (scheduled_of_report ~rung:Robust.Ladder.Cache_probe ~arrival
           ~queue_wait:0. scfg report)
    end
  end

(* Either answered inline (fast-path cache hit / rejection / resolution
   failure) or admitted — in which case the connection thread parks on
   the reply slot. [admitted_rung] reports the admission-time rung back
   to the flight recorder. *)
let handle_request t (admitted_rung : string ref) (req : Protocol.request) =
  let arrival = Robust.Deadline.now () in
  Mutex.protect t.lock (fun () ->
      t.stats.received <- t.stats.received + 1;
      Telemetry.Metrics.incr m_received);
  match resolve t req with
  | Error msg -> Protocol.Failed msg
  | Ok (service, net) ->
    let budget =
      if req.Protocol.budget_s > 0. && Float.is_finite req.Protocol.budget_s then
        req.Protocol.budget_s
      else t.cfg.default_budget_s
    in
    (* A cached answer is correct even while draining, so the fast path
       runs before the shedding check. *)
    (match try_fast_path t service net ~arrival ~budget with
     | Some resp ->
       admitted_rung := Robust.Ladder.to_string Robust.Ladder.Cache_probe;
       resp
     | None when req.Protocol.cache_only && t.fast_ok ->
       (* peer probe missed the injected cache: typed miss, no queueing *)
       Mutex.protect t.lock (fun () -> reject_stat t Protocol.Deadline_unmeetable)
     | None ->
       let admitted =
         Mutex.protect t.lock (fun () ->
             if Atomic.get t.stop then `Done (reject_stat t Protocol.Shedding)
             else begin
               let queue_delay =
                 t.pending_cost +. Float.max 0. (t.running_until -. arrival)
               in
               let hit_rate = admission_hit_rate t service net in
               match
                 Admission.decide t.adm ~now:arrival ~client:req.Protocol.client
                   ~budget_s:budget ~queue_depth:(Queue.length t.queue)
                   ~queue_delay_s:queue_delay ~hit_rate
               with
               | Error reason -> `Done (reject_stat t reason)
               | Ok selected ->
                 (* a cache-only request on the server's own cache still
                    goes through the queue, but pinned to the probe rung *)
                 let rung =
                   if req.Protocol.cache_only then Robust.Ladder.Cache_probe
                   else selected
                 in
                 admitted_rung := Robust.Ladder.to_string rung;
                 let est_cost =
                   List.fold_left
                     (fun acc (e : Robust.Ladder.estimate) ->
                       if Robust.Ladder.equal e.Robust.Ladder.rung rung then
                         e.Robust.Ladder.cost_s
                       else acc)
                     0.
                     (Admission.estimates t.adm ~hit_rate)
                 in
                 let job =
                   {
                     net;
                     service;
                     rung;
                     deadline = Robust.Deadline.at (arrival +. budget);
                     arrival;
                     est_cost;
                     req_id = req.Protocol.req_id;
                     hop = req.Protocol.hop;
                     reply =
                       { rm = Mutex.create (); rc = Condition.create (); resp = None };
                   }
                 in
                 Queue.push job t.queue;
                 t.pending_cost <- t.pending_cost +. est_cost;
                 t.stats.admitted <- t.stats.admitted + 1;
                 Telemetry.Metrics.incr m_admitted;
                 let depth = Queue.length t.queue in
                 if depth > t.stats.max_queue_depth then
                   t.stats.max_queue_depth <- depth;
                 Telemetry.Metrics.set_gauge g_queue_depth (float_of_int depth);
                 Condition.signal t.qc;
                 `Admitted job
             end)
       in
       (match admitted with
        | `Done resp -> resp
        | `Admitted job ->
          Mutex.protect job.reply.rm (fun () ->
              while job.reply.resp = None do
                Condition.wait job.reply.rc job.reply.rm
              done;
              Option.get job.reply.resp)))

(* ---- request ids and the flight recorder ------------------------------- *)

(* Minting for requests that arrive with id 0 ("server assigns").
   Uniqueness across processes and restarts comes from mixing the pid,
   the arrival clock and a process-local counter through a 64-bit
   finalizer — no RNG, so deterministic harnesses stay deterministic. *)
let req_seq = Atomic.make 1

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mint_req_id () =
  let c = Atomic.fetch_and_add req_seq 1 in
  let t_us = Int64.of_float (Robust.Deadline.now () *. 1e6) in
  let id = mix64 (Int64.logxor t_us (Int64.of_int ((Unix.getpid () lsl 24) lxor c))) in
  if id = 0L then 1L else id

let target_string = function
  | Protocol.Layer n -> "layer:" ^ n
  | Protocol.Network n -> "network:" ^ n

let flight_of_response (req : Protocol.request) ~arrival ~admitted resp =
  let verdict, rung_served, origin, queue_wait, serve_s =
    match resp with
    | Protocol.Scheduled s ->
      let origin =
        match s.Protocol.layers with
        | (l : Protocol.served_layer) :: _ -> l.Protocol.origin
        | [] -> ""
      in
      ( "scheduled", Robust.Ladder.to_string s.Protocol.rung, origin,
        s.Protocol.queue_wait_s, s.Protocol.serve_s )
    | Protocol.Rejected r ->
      ( "rejected:" ^ Protocol.reject_reason_to_string r, "", "", 0.,
        Robust.Deadline.now () -. arrival )
    | Protocol.Failed _ -> ("failed", "", "", 0., Robust.Deadline.now () -. arrival)
    | Protocol.Stats _ -> ("stats", "", "", 0., 0.)  (* never reaches the recorder *)
  in
  {
    f_id = req.Protocol.req_id;
    f_hop = req.Protocol.hop;
    f_client = req.Protocol.client;
    f_target = target_string req.Protocol.target;
    f_cache_only = req.Protocol.cache_only;
    f_rung_admitted = admitted;
    f_rung_served = rung_served;
    f_origin = origin;
    f_verdict = verdict;
    f_queue_wait_s = queue_wait;
    f_serve_s = serve_s;
    f_ts = arrival;
  }

let record_flight t entry =
  Mutex.protect t.lock (fun () ->
      t.flight.(t.flight_pos mod Array.length t.flight) <- Some entry;
      t.flight_pos <- t.flight_pos + 1)

(* The full per-request path: mint an id if the client did not, bind it
   to this thread for the duration (so every span, counter instant, log
   line and outbound peer probe below carries it), serve, then write the
   flight-recorder record and the structured serve/reject/fail event. *)
let process_request t (req : Protocol.request) =
  let req =
    if req.Protocol.req_id = 0L then { req with Protocol.req_id = mint_req_id () }
    else req
  in
  let arrival = Robust.Deadline.now () in
  Telemetry.Trace.with_request ~id:req.Protocol.req_id ~hop:req.Protocol.hop
    (fun () ->
      let admitted_rung = ref "" in
      let resp = handle_request t admitted_rung req in
      let entry = flight_of_response req ~arrival ~admitted:!admitted_rung resp in
      record_flight t entry;
      (match resp with
       | Protocol.Scheduled _ ->
         Telemetry.Log.info "daemon.serve"
           [ ("target", entry.f_target); ("rung", entry.f_rung_served);
             ("origin", entry.f_origin);
             ("serve_s", Printf.sprintf "%.6f" entry.f_serve_s) ]
       | Protocol.Rejected r ->
         Telemetry.Log.warn "daemon.reject"
           [ ("target", entry.f_target);
             ("reason", Protocol.reject_reason_to_string r) ]
       | Protocol.Failed msg ->
         Telemetry.Log.error "daemon.fail"
           [ ("target", entry.f_target); ("error", msg) ]
       | Protocol.Stats _ -> ());
      resp)

(* ---- the Stats frame ---------------------------------------------------- *)

let flight_entries t =
  Mutex.protect t.lock (fun () ->
      let len = Array.length t.flight in
      let n = t.flight_pos in
      let first = if n <= len then 0 else n - len in
      let out = ref [] in
      for i = n - 1 downto first do
        match t.flight.(i mod len) with Some e -> out := e :: !out | None -> ()
      done;
      !out)

let flight_json t =
  let esc = Telemetry.Trace.json_escape in
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":\"%s\",\"hop\":%d,\"client\":\"%s\",\"target\":\"%s\",\
            \"cache_only\":%b,\"rung_admitted\":\"%s\",\"rung_served\":\"%s\",\
            \"origin\":\"%s\",\"verdict\":\"%s\",\"queue_wait_s\":%.6f,\
            \"serve_s\":%.6f,\"ts\":%.6f}"
           (Telemetry.Trace.request_id_hex e.f_id)
           e.f_hop (esc e.f_client) (esc e.f_target) e.f_cache_only
           (esc e.f_rung_admitted) (esc e.f_rung_served) (esc e.f_origin)
           (esc e.f_verdict) e.f_queue_wait_s e.f_serve_s e.f_ts))
    (flight_entries t);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Versioned JSON snapshot for [Stats_full]. Strictly read-only: the
   stats mirrors are copied under the lock, the cache is consulted
   through its stats and hit rate only (never [find], so no miss is ever
   booked), the admission estimator is introspected without
   touching its windows, and nothing signals the solver thread. A stats
   query therefore cannot perturb admission pricing, hit-rate accounting
   or the queue — asserted by test. *)
let stats_payload t scope =
  match scope with
  | Protocol.Stats_prometheus ->
    (* The registry only records while the span sink is armed; the
       always-on stats mirror is authoritative for the daemon's own
       counters. Splice it over the registry values so a scrape of an
       untraced daemon still carries the operational numbers. *)
    let st, queue_depth, conns =
      Mutex.protect t.lock (fun () ->
          ( { t.stats with served = t.stats.served },
            Queue.length t.queue,
            Hashtbl.length t.conns ))
    in
    let snap = Telemetry.Metrics.snapshot () in
    let live_counters =
      [ ("daemon.received", st.received); ("daemon.admitted", st.admitted);
        ("daemon.served", st.served); ("daemon.failed", st.failed);
        ("daemon.rejected.queue_full", st.rejected_queue_full);
        ("daemon.rejected.quota", st.rejected_quota);
        ("daemon.rejected.shedding", st.rejected_shedding);
        ("daemon.rejected.deadline", st.rejected_deadline);
        ("daemon.fastpath_served", st.fastpath_served);
        ("daemon.conns_reaped", st.reaped);
        ("daemon.persisted", st.persisted) ]
    in
    let live_gauges =
      [ ("daemon.queue_depth", float_of_int queue_depth);
        ("daemon.connections", float_of_int conns);
        ("daemon.max_queue_depth", float_of_int st.max_queue_depth);
        ("cache.hit_rate", Serve.Schedule_cache.hit_rate t.cache) ]
    in
    let merge live registry =
      List.sort compare
        (live @ List.filter (fun (n, _) -> not (List.mem_assoc n live)) registry)
    in
    Telemetry.Export.prometheus
      {
        snap with
        Telemetry.Metrics.counters = merge live_counters snap.Telemetry.Metrics.counters;
        gauges = merge live_gauges snap.Telemetry.Metrics.gauges;
      }
  | Protocol.Stats_flight -> flight_json t
  | Protocol.Stats_full ->
    let st, queue_depth, conns, flight_total, admission =
      Mutex.protect t.lock (fun () ->
          ( { t.stats with served = t.stats.served },
            Queue.length t.queue,
            Hashtbl.length t.conns,
            t.flight_pos,
            Admission.introspect t.adm ))
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"snapshot_version\":1,\"protocol_version\":%d,\"now\":%.6f,\
          \"pid\":%d,\"draining\":%b"
         Protocol.version (Robust.Deadline.now ()) (Unix.getpid ())
         (Atomic.get t.stop));
    Buffer.add_string buf
      (Printf.sprintf
         ",\"daemon\":{\"received\":%d,\"admitted\":%d,\"served\":%d,\
          \"failed\":%d,\"rejected\":{\"queue_full\":%d,\"quota\":%d,\
          \"shedding\":%d,\"deadline\":%d},\"max_queue_depth\":%d,\
          \"fastpath_served\":%d,\"reaped\":%d,\"persisted\":%d,\
          \"queue_depth\":%d,\"connections\":%d}"
         st.received st.admitted st.served st.failed st.rejected_queue_full
         st.rejected_quota st.rejected_shedding st.rejected_deadline
         st.max_queue_depth st.fastpath_served st.reaped st.persisted
         queue_depth conns);
    Buffer.add_string buf ",\"admission\":[";
    List.iteri
      (fun i (rung, samples, cost_s) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "{\"rung\":\"%s\",\"samples\":%d,\"cost_s\":%.6f}"
             (Robust.Ladder.to_string rung) samples cost_s))
      admission;
    Buffer.add_char buf ']';
    Buffer.add_string buf
      (Printf.sprintf ",\"cache\":{\"hit_rate\":%.6f,%s}"
         (Serve.Schedule_cache.hit_rate t.cache)
         (Serve.Schedule_cache.counters_json (Serve.Schedule_cache.stats t.cache)));
    List.iter
      (fun (name, thunk) ->
        let payload = try thunk () with _ -> "null" in
        Buffer.add_string buf
          (Printf.sprintf ",\"%s\":%s" (Telemetry.Trace.json_escape name) payload))
      t.cfg.stats_extra;
    Buffer.add_string buf
      (Printf.sprintf ",\"metrics\":%s"
         (Telemetry.Export.metrics_json (Telemetry.Metrics.snapshot ())));
    Buffer.add_string buf
      (Printf.sprintf ",\"flight_total\":%d,\"flight\":%s" flight_total
         (flight_json t));
    Buffer.add_char buf '}';
    Buffer.contents buf

(* Response write with the network fault plane. Sites fire only when a
   chaos harness armed them (and [net.peer_crash] additionally requires
   the config opt-in), so production writes cost four disarmed checks. *)
let write_response t fd resp =
  let payload = Protocol.encode_response resp in
  if Robust.Fault.fire "net.slow_peer" then Thread.delay 0.25;
  if Robust.Fault.fire "net.conn_reset" then begin
    (* cut the connection instead of answering: the client sees EOF/reset *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    false
  end
  else if t.cfg.fault_crash_exit && Robust.Fault.fire "net.peer_crash" then begin
    (* torn frame, then the whole process dies mid-response *)
    (try Protocol.write_torn_frame fd payload with Unix.Unix_error _ -> ());
    Stdlib.exit 42
  end
  else if Robust.Fault.fire "net.partial_frame" then begin
    (* header promises the full frame; half the payload arrives, then the
       connection stalls and closes — the classic torn write *)
    (try Protocol.write_torn_frame fd payload with Unix.Unix_error _ -> ());
    Thread.delay 0.05;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    false
  end
  else
    try
      Protocol.write_frame fd payload;
      true
    with Unix.Unix_error _ -> false

let conn_loop t id conn =
  (* The receive deadline makes [read_frame_timeout] surface idleness at
     frame boundaries (for the reaper) and stalls mid-frame (poisoned
     connection) without a watchdog thread. *)
  if t.cfg.read_deadline_s > 0. then
    (try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO t.cfg.read_deadline_s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
  (* The send deadline bounds response writes: a client that stops
     reading makes the write raise EAGAIN after the deadline, which
     [write_response] reports as a dead connection. Without it the
     connection thread would block in [write_frame] with [busy] set and
     the drain loop could never quiesce. *)
  if t.cfg.write_deadline_s > 0. then
    (try Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO t.cfg.write_deadline_s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
  let rec loop () =
    let event =
      if t.cfg.read_deadline_s > 0. then Protocol.read_frame_timeout conn.fd
      else
        match Protocol.read_frame conn.fd with
        | Ok (Some payload) -> `Frame payload
        | Ok None -> `Eof
        | Error msg -> `Error msg
    in
    match event with
    | `Eof | `Error _ -> ()  (* clean close or dead/hostile/stalled peer *)
    | `Idle ->
      if
        t.cfg.idle_timeout_s > 0.
        && Robust.Deadline.now () -. conn.last > t.cfg.idle_timeout_s
      then begin
        Mutex.protect t.lock (fun () -> t.stats.reaped <- t.stats.reaped + 1);
        Telemetry.Metrics.incr m_reaped;
        Telemetry.Log.info "daemon.reap"
          [ ("idle_s", Printf.sprintf "%.1f" (Robust.Deadline.now () -. conn.last)) ]
      end
      else loop ()
    | `Frame payload ->
      conn.last <- Robust.Deadline.now ();
      conn.busy <- true;
      let resp =
        match Protocol.decode_incoming payload with
        | Error msg ->
          Telemetry.Log.warn "daemon.malformed" [ ("error", msg) ];
          Protocol.Failed ("malformed request: " ^ msg)
        | Ok (Protocol.Stats_query scope) ->
          (* answered inline on this connection thread: read-only, never
             queued, never counted as a request *)
          Protocol.Stats (stats_payload t scope)
        | Ok (Protocol.Req req) -> process_request t req
      in
      let alive = write_response t conn.fd resp in
      conn.busy <- false;
      if alive then loop ()
  in
  (try loop () with _ -> ());
  conn.busy <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.conns id)

(* ---- lifecycle -------------------------------------------------------- *)

let tcp_listener host port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt sock Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ ->
      (match Unix.gethostbyname host with
       | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
         Unix.inet_addr_loopback
       | he -> he.Unix.h_addr_list.(0))
  in
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 64;
  sock

(* Run the daemon on the calling thread until a drain completes. Binds
   the sockets (replacing any stale file), serves until [shutdown], then
   drains: stop accepting, answer everything queued or in flight,
   persist the cache, close connections, return. *)
let run t =
  (* A client vanishing mid-response must cost one failed write, not the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX t.cfg.socket_path);
  Unix.listen sock 64;
  let tcp_sock = Option.map (fun (h, p) -> tcp_listener h p) t.cfg.tcp in
  let socks = sock :: Option.to_list tcp_sock in
  let solver = Thread.create solver_loop t in
  Semaphore.Binary.release t.ready;
  Telemetry.Log.info "daemon.start"
    (("socket", t.cfg.socket_path)
     ::
     (match t.cfg.tcp with
      | Some (h, p) -> [ ("tcp", Printf.sprintf "%s:%d" h p) ]
      | None -> []));
  let accept_from s =
    match Unix.accept s with
    | fd, _ ->
      let conn = { fd; busy = false; last = Robust.Deadline.now () } in
      let id =
        Mutex.protect t.lock (fun () ->
            t.conn_seq <- t.conn_seq + 1;
            Hashtbl.replace t.conns t.conn_seq conn;
            t.conn_seq)
      in
      ignore (Thread.create (conn_loop t id) conn)
    | exception Unix.Unix_error _ -> ()  (* incl. EINTR: retry next tick *)
  in
  let accept_one () =
    match Unix.select socks [] [] 0.05 with
    | [], _, _ -> ()
    | ready, _, _ -> List.iter accept_from ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while not (Atomic.get t.stop) do
    (try accept_one () with Unix.Unix_error _ -> ());
    match t.cfg.housekeeping with
    | Some tick -> ( try tick () with _ -> ())
    | None -> ()
  done;
  (* Drain: no new connections; existing connections get [Shedding] for
     new requests (admission checks the flag); queued and in-flight work
     still gets answered. A connection stays [busy] from frame read to
     response write, so "queue empty and nobody busy" means every
     admitted request has been answered. *)
  List.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) socks;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Telemetry.Log.info "daemon.drain"
    [ ("queued", string_of_int (Mutex.protect t.lock (fun () -> Queue.length t.queue))) ];
  (* Drain backstop: a connection can stay [busy] past any reasonable
     bound only when its client stopped reading (the response write is
     additionally bounded by SO_SNDTIMEO) or its reply is stuck behind a
     wedged solve. After [drain_deadline_s] without quiescing,
     force-shutdown the busy connections' sockets: their blocked writes
     fail immediately, the threads clear [busy] and deregister, and the
     drain completes instead of hanging SIGTERM forever. Re-armed per
     interval in case a connection goes busy after the first sweep. *)
  let drain_start = Robust.Deadline.now () in
  let next_force = ref (drain_start +. t.cfg.drain_deadline_s) in
  let rec drain () =
    let quiesced =
      Mutex.protect t.lock (fun () ->
          Condition.broadcast t.qc;
          Queue.is_empty t.queue
          && Hashtbl.fold (fun _ c acc -> acc && not c.busy) t.conns true)
    in
    if not quiesced then begin
      if t.cfg.drain_deadline_s > 0. && Robust.Deadline.now () >= !next_force then begin
        next_force := Robust.Deadline.now () +. t.cfg.drain_deadline_s;
        let stuck =
          Mutex.protect t.lock (fun () ->
              Hashtbl.fold (fun _ c acc -> if c.busy then c.fd :: acc else acc)
                t.conns [])
        in
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          stuck
      end;
      Thread.delay 0.01;
      drain ()
    end
  in
  drain ();
  Thread.join solver;
  let written = Serve.Schedule_cache.persist t.cache in
  Mutex.protect t.lock (fun () -> t.stats.persisted <- written);
  Telemetry.Log.info "daemon.drained"
    [ ("served", string_of_int t.stats.served);
      ("failed", string_of_int t.stats.failed);
      ("persisted", string_of_int written) ];
  (* Idle connections: shut them down; their threads wake from [read]
     with EOF and deregister themselves. *)
  let fds =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns [])
  in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds

(* Run on a background thread; [shutdown] + [Thread.join] to stop. *)
let start t = Thread.create run t
