(* The warm-peer tier: a static list of peer daemons whose caches are
   worth probing before paying for a live solve.

   Health: each peer is probed periodically (a cheap connect — a peer
   that accepts connections can answer cache probes; protocol-level
   failures are caught and counted per request). A peer failing
   [eject_after] consecutive times is ejected; ejected peers are re-
   probed under exponential backoff and re-admitted on the first success.
   [tick] drives all of this and is called from the daemon's accept loop,
   so health costs no extra thread.

   Trust: a peer's answer is *evidence, never authority* — exactly the
   discipline the disk tier applies to cache files. Before a returned
   record is served or stored back, [probe] re-parses it, checks its
   provenance meta against the local request fingerprint (a peer running
   a different objective config is rejected, not stored under our key),
   re-checks the layer shape, and re-certifies the mapping in exact
   arithmetic via [Certify.Mapping_cert]. A lying, corrupt, stale, or
   differently-configured peer therefore costs a counted reject
   ([cluster.peer_rejects_cert]) and degrades to an ordinary miss — it
   can never place a wrong schedule in the local cache or in a
   response.

   Probes send [cache_only] requests, which a peer answers from its own
   local tier or rejects — it never solves on our behalf and never
   cascades to *its* peers, so a probe is cheap and cycles are
   impossible. *)

let m_probes = Telemetry.Metrics.counter "cluster.peer_probes"
let m_hits = Telemetry.Metrics.counter "cluster.peer_hits"
let m_misses = Telemetry.Metrics.counter "cluster.peer_misses"
let m_rejects = Telemetry.Metrics.counter "cluster.peer_rejects_cert"
let m_ejections = Telemetry.Metrics.counter "cluster.peer_ejections"

type config = {
  probe_interval_s : float;  (* health-check cadence per healthy peer *)
  probe_timeout_s : float;  (* connect + exchange budget per probe *)
  probe_budget_s : float;  (* SLO budget carried by cache probes *)
  eject_after : int;  (* consecutive failures before ejection *)
  readmit_backoff_s : float;  (* initial re-admission backoff *)
  readmit_backoff_max_s : float;
}

let default_config ?(probe_interval_s = 2.) ?(probe_timeout_s = 0.5)
    ?(probe_budget_s = 1.) ?(eject_after = 3) ?(readmit_backoff_s = 1.)
    ?(readmit_backoff_max_s = 30.) () =
  {
    probe_interval_s;
    probe_timeout_s;
    probe_budget_s;
    eject_after;
    readmit_backoff_s;
    readmit_backoff_max_s;
  }

type peer = {
  ep : Daemon.Client.endpoint;
  mutable healthy : bool;
  mutable consec_fails : int;
  mutable next_probe : float;  (* absolute Robust.Deadline.now time *)
  mutable backoff : float;
  mutable probes : int;
  mutable hits : int;
  mutable rejects : int;
}

type stats = {
  peers : int;
  healthy : int;
  probes : int;
  hits : int;
  rejects_cert : int;
  ejections : int;
}

type t = {
  cfg : config;
  all : peer list;
  lock : Mutex.t;
  mutable ejections : int;
}

let create ?(config = default_config ()) endpoints =
  {
    cfg = config;
    all =
      List.map
        (fun ep ->
          {
            ep;
            healthy = true;
            consec_fails = 0;
            next_probe = 0.;  (* probe on the first tick *)
            backoff = config.readmit_backoff_s;
            probes = 0;
            hits = 0;
            rejects = 0;
          })
        endpoints;
    lock = Mutex.create ();
    ejections = 0;
  }

let healthy_endpoints t =
  Mutex.protect t.lock (fun () ->
      List.filter_map (fun (p : peer) -> if p.healthy then Some p.ep else None) t.all)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        peers = List.length t.all;
        healthy = List.length (List.filter (fun (p : peer) -> p.healthy) t.all);
        probes = List.fold_left (fun a (p : peer) -> a + p.probes) 0 t.all;
        hits = List.fold_left (fun a (p : peer) -> a + p.hits) 0 t.all;
        rejects_cert = List.fold_left (fun a (p : peer) -> a + p.rejects) 0 t.all;
        ejections = t.ejections;
      })

(* Per-peer health/backoff state as a JSON array — the "peers" section
   of the daemon's Stats frame. Read-only under the lock. *)
let stats_json t =
  Mutex.protect t.lock (fun () ->
      let buf = Buffer.create 256 in
      Buffer.add_char buf '[';
      List.iteri
        (fun i (p : peer) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"endpoint\":\"%s\",\"healthy\":%b,\"consec_fails\":%d,\
                \"backoff_s\":%.3f,\"probes\":%d,\"hits\":%d,\"rejects\":%d}"
               (Telemetry.Trace.json_escape
                  (Daemon.Client.endpoint_to_string p.ep))
               p.healthy p.consec_fails p.backoff p.probes p.hits p.rejects))
        t.all;
      Buffer.add_char buf ']';
      Buffer.contents buf)

(* Callers hold [t.lock]. *)
let note_failure t (p : peer) now =
  p.consec_fails <- p.consec_fails + 1;
  if p.healthy && p.consec_fails >= t.cfg.eject_after then begin
    p.healthy <- false;
    p.backoff <- t.cfg.readmit_backoff_s;
    t.ejections <- t.ejections + 1;
    Telemetry.Metrics.incr m_ejections;
    Telemetry.Log.warn "cluster.peer_eject"
      [ ("endpoint", Daemon.Client.endpoint_to_string p.ep);
        ("consec_fails", string_of_int p.consec_fails) ]
  end;
  if p.healthy then p.next_probe <- now +. t.cfg.probe_interval_s
  else begin
    p.next_probe <- now +. p.backoff;
    p.backoff <- Float.min t.cfg.readmit_backoff_max_s (p.backoff *. 2.)
  end

let note_success t (p : peer) now =
  if not p.healthy then begin
    p.healthy <- true;
    Telemetry.Log.info "cluster.peer_readmit"
      [ ("endpoint", Daemon.Client.endpoint_to_string p.ep) ]
  end;
  p.consec_fails <- 0;
  p.backoff <- t.cfg.readmit_backoff_s;
  p.next_probe <- now +. t.cfg.probe_interval_s

(* Cheap liveness check: can we open a connection? *)
let check_ep cfg ep =
  match Daemon.Client.connect_ep ~timeout_s:cfg.probe_timeout_s ep with
  | Ok c ->
    Daemon.Client.close c;
    true
  | Error _ -> false

(* Health tick — called from the daemon's accept loop. Collects due
   peers under the lock, probes them outside it (network I/O must not
   hold the lock), then records outcomes. *)
let tick t =
  let now = Robust.Deadline.now () in
  let due =
    Mutex.protect t.lock (fun () -> List.filter (fun (p : peer) -> p.next_probe <= now) t.all)
  in
  List.iter
    (fun p ->
      let ok = check_ep t.cfg p.ep in
      Mutex.protect t.lock (fun () ->
          let now = Robust.Deadline.now () in
          if ok then note_success t p now else note_failure t p now))
    due

(* Verify a peer's scheduled response for [layer] against [arch] and the
   local request fingerprint [fp]. The record round-trips through
   [Mapping_io] (the peer's bytes are not trusted to parse), its
   provenance meta must name the weights/strategy of the key it will be
   stored under, the layer shape must match, and the mapping must
   re-certify in exact arithmetic.

   The meta check closes a config-skew hole: the wire request carries no
   objective config (a peer answers under its own), and the verified
   entry is stored into the local tier under [fp] — whose canonical form
   covers weights/strategy/certify. A peer calibrated differently would
   otherwise poison the local memory tier (served as-is, meta and all)
   with schedules whose meta contradicts their cache key. The record
   does not carry a certify mode, but that dimension is established
   locally: the mapping is re-certified here in exact arithmetic, which
   is at least as strong as any requested mode. *)
let meta_matches_fp fp (meta : Mapping_io.meta) =
  match meta.Mapping_io.weights with
  | None -> false  (* no provenance: cannot tie the record to our key *)
  | Some w ->
    Serve.Fingerprint.covers fp ~weights:w ~strategy:meta.Mapping_io.strategy

let verify_response ~arch ~layer ~fp (s : Daemon.Protocol.scheduled) =
  match s.Daemon.Protocol.layers with
  | [ l ] ->
    (match Mapping_io.record_of_string l.Daemon.Protocol.record with
     | Error _ -> `Reject
     | Ok (meta, mapping) ->
       if not (meta_matches_fp fp meta) then `Reject
       else if Layer.key mapping.Mapping.layer <> Layer.key layer then `Reject
       else (
         match Certify.Mapping_cert.check arch mapping with
         | Certify.Certificate.Certified ->
           (* we just certified it ourselves: the verdict is ours now *)
           `Entry
             {
               Serve.Schedule_cache.meta = { meta with Mapping_io.verdict = "ok" };
               mapping;
             }
         | Certify.Certificate.Violated _ -> `Reject
         | exception Robust.Failure.Error _ -> `Reject))
  | _ -> `Reject  (* a single-layer probe answered with anything else *)

(* The wire protocol names architectures by their [Spec.variants] key
   (what servers resolve), not the display name — recover it from the
   spec's canonical contents. *)
let variant_name arch =
  let key = Spec.key arch in
  match List.find_opt (fun (_, a) -> Spec.key a = key) Spec.variants with
  | Some (name, _) -> name
  | None -> arch.Spec.aname

(* The daemon's [remote_probe] hook: ask healthy peers (in order) for
   this fingerprint's layer, verify, and hand back a servable entry.
   Transport failures feed the health state; typed rejections are honest
   misses. *)
let probe t ~arch ~layer (fp : Serve.Fingerprint.t) =
  let eps =
    Mutex.protect t.lock (fun () -> List.filter (fun (p : peer) -> p.healthy) t.all)
  in
  (* Propagate the originating request's trace id (hop + 1): the peer
     records the probe in its own trace/log/flight recorder under the
     same id, stitching the cross-host causal chain. Outside a request
     context (warm-up, tests) the id is 0 and the peer mints its own. *)
  let req_id, hop =
    match Telemetry.Trace.current_request () with
    | Some (id, h) -> (id, min 255 (h + 1))
    | None -> (0L, 1)
  in
  let req =
    {
      Daemon.Protocol.client = "peer";
      budget_s = t.cfg.probe_budget_s;
      arch = variant_name arch;
      target = Daemon.Protocol.Layer layer.Layer.name;
      cache_only = true;
      req_id;
      hop;
    }
  in
  let rec ask = function
    | [] -> None
    | (p : peer) :: rest ->
      Telemetry.Metrics.incr m_probes;
      Mutex.protect t.lock (fun () -> p.probes <- p.probes + 1);
      (match Daemon.Client.one_shot_ep ~timeout_s:t.cfg.probe_timeout_s p.ep req with
       | Error _ ->
         Mutex.protect t.lock (fun () ->
             note_failure t p (Robust.Deadline.now ()));
         ask rest
       | Ok (Daemon.Protocol.Rejected _) | Ok (Daemon.Protocol.Failed _)
       | Ok (Daemon.Protocol.Stats _) ->
         (* a live peer without the record: honest miss (an out-of-band
            Stats frame here would be a confused peer — same treatment) *)
         Telemetry.Metrics.incr m_misses;
         ask rest
       | Ok (Daemon.Protocol.Scheduled s) ->
         (match verify_response ~arch ~layer ~fp s with
          | `Entry entry ->
            Telemetry.Metrics.incr m_hits;
            Mutex.protect t.lock (fun () -> p.hits <- p.hits + 1);
            Some entry
          | `Reject ->
            Telemetry.Metrics.incr m_rejects;
            Mutex.protect t.lock (fun () -> p.rejects <- p.rejects + 1);
            Telemetry.Log.warn "cluster.peer_reject_cert"
              [ ("endpoint", Daemon.Client.endpoint_to_string p.ep);
                ("layer", layer.Layer.name) ];
            ask rest))
  in
  (* The span carries the ambient request id, so a cross-host probe shows
     up in the originating request's causal chain. *)
  Telemetry.Trace.with_span ~cat:"cluster" "cluster.peer_probe" (fun () -> ask eps)
