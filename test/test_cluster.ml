(* Tests for the fault-tolerant cluster tier: content-addressed shard
   placement, per-shard crash-safe persistence and independent recovery,
   the configurable stale-temp sweep, solve determinism through the
   thread-safe sharded tier, and the health-checked warm-peer tier with
   its verify-before-serve discipline. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module P = Daemon.Protocol

let arch = Spec.baseline
let weights = Cosa.calibrate arch

(* Small distinct layers: fingerprints differ, solves are fast. *)
let layers =
  List.map
    (fun (name, p, q, c, k) ->
      Layer.create ~name ~r:1 ~s:1 ~p ~q ~c ~k ~n:1 ())
    [ ("cl_a", 4, 4, 8, 8); ("cl_b", 4, 4, 4, 8); ("cl_c", 8, 8, 4, 4);
      ("cl_d", 8, 4, 8, 4); ("cl_e", 4, 8, 8, 4); ("cl_f", 8, 8, 8, 8);
      ("cl_g", 4, 4, 8, 4); ("cl_h", 8, 4, 4, 8) ]

let fp layer =
  Serve.Fingerprint.make ~weights ~strategy:Cosa.Two_stage ~certify:Cosa.Warn
    arch layer

let entry_of layer =
  { Serve.Schedule_cache.meta = Mapping_io.default_meta;
    mapping = Cosa.trivial_mapping arch layer }

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

(* ---- shard placement and aggregate stats ------------------------------ *)

let test_shard_placement () =
  let c1 = Serve.Schedule_cache.create ~capacity:64 ~shards:4 () in
  let c2 = Serve.Schedule_cache.create ~capacity:64 ~shards:4 () in
  check_int "shard count" 4 (Serve.Schedule_cache.shard_count c1);
  let idxs = List.map (fun l -> Serve.Schedule_cache.shard_index c1 (fp l)) layers in
  (* content-addressed: every instance (every host) agrees on the owner *)
  List.iter2
    (fun l i ->
      check_int "placement deterministic across instances" i
        (Serve.Schedule_cache.shard_index c2 (fp l));
      check_bool "owner in range" true (i >= 0 && i < 4))
    layers idxs;
  check_bool "keys spread across shards" true
    (List.length (List.sort_uniq compare idxs) >= 2);
  List.iter (fun l -> Serve.Schedule_cache.store c1 (fp l) (entry_of l)) layers;
  List.iter
    (fun l ->
      match Serve.Schedule_cache.find c1 ~arch ~layer:l (fp l) with
      | Some (_, Serve.Schedule_cache.Memory) -> ()
      | _ -> Alcotest.fail "stored entry not found in memory")
    layers;
  (* the aggregate view is exactly the sum of the per-shard counters *)
  let agg = Serve.Schedule_cache.stats c1 in
  let sum f =
    List.fold_left
      (fun a i -> a + f (Serve.Schedule_cache.shard_stats c1 i))
      0 [ 0; 1; 2; 3 ]
  in
  check_int "hits aggregate" agg.Serve.Schedule_cache.hits
    (sum (fun s -> s.Serve.Schedule_cache.hits));
  check_int "stores aggregate" agg.Serve.Schedule_cache.stores
    (sum (fun s -> s.Serve.Schedule_cache.stores));
  check_int "all stores counted" (List.length layers)
    agg.Serve.Schedule_cache.stores

(* ---- per-shard persistence, recovery, corruption isolation ------------ *)

let shard_file dir i l =
  Filename.concat
    (Filename.concat dir (Printf.sprintf "shard-%02d" i))
    (Serve.Fingerprint.hash (fp l) ^ ".cosa")

let test_shard_persist_recover () =
  let dir = temp_dir "cosa_cluster" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = Serve.Schedule_cache.create ~dir ~capacity:64 ~shards:4 () in
      List.iter (fun l -> Serve.Schedule_cache.store c (fp l) (entry_of l)) layers;
      (* store writes through: the record is already in the owner shard's
         subdirectory, so even a SIGKILL loses nothing *)
      List.iter
        (fun l ->
          let i = Serve.Schedule_cache.shard_index c (fp l) in
          check_bool ("record in owning shard: " ^ l.Layer.name) true
            (Sys.file_exists (shard_file dir i l)))
        layers;
      (* a fresh instance over the same directory recovers every shard *)
      let c2 = Serve.Schedule_cache.create ~dir ~capacity:64 ~shards:4 () in
      List.iter
        (fun l ->
          match Serve.Schedule_cache.find c2 ~arch ~layer:l (fp l) with
          | Some (_, Serve.Schedule_cache.Disk) -> ()
          | Some (_, Serve.Schedule_cache.Memory) ->
            Alcotest.fail "fresh instance should hit the disk tier"
          | None -> Alcotest.fail "disk recovery missed an entry")
        layers;
      (* corrupting one record costs that key only; its reject is counted
         on the owning shard and every other key still verifies *)
      let victim = List.hd layers in
      let vi = Serve.Schedule_cache.shard_index c (fp victim) in
      let oc = open_out (shard_file dir vi victim) in
      output_string oc "not a schedule record";
      close_out oc;
      let c3 = Serve.Schedule_cache.create ~dir ~capacity:64 ~shards:4 () in
      (match Serve.Schedule_cache.find c3 ~arch ~layer:victim (fp victim) with
       | None -> ()
       | Some _ -> Alcotest.fail "corrupted record must not be served");
      check_int "reject counted on the owning shard" 1
        (Serve.Schedule_cache.shard_stats c3 vi).Serve.Schedule_cache.disk_rejects;
      List.iter
        (fun l ->
          if l != victim then
            match Serve.Schedule_cache.find c3 ~arch ~layer:l (fp l) with
            | Some _ -> ()
            | None -> Alcotest.fail "corruption leaked beyond its key")
        layers)

(* ---- configurable stale-temp sweep ------------------------------------ *)

let test_tmp_sweep_age () =
  let dir = temp_dir "cosa_sweep" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let touch name =
        let p = Filename.concat dir name in
        let oc = open_out p in
        output_string oc "partial write";
        close_out oc;
        p
      in
      let old_tmp = touch "aaaa.cosa.1.0.tmp" in
      let fresh_tmp = touch "bbbb.cosa.2.0.tmp" in
      let past = Unix.time () -. 7200. in
      Unix.utimes old_tmp past past;
      (* threshold 1h: the stale temp goes, the live writer's is spared *)
      ignore (Serve.Schedule_cache.create ~dir ~tmp_sweep_age_s:3600. ~capacity:4 ());
      check_bool "stale temp swept" false (Sys.file_exists old_tmp);
      check_bool "fresh temp spared" true (Sys.file_exists fresh_tmp);
      (* default threshold 0: sweep everything (historical behavior) *)
      ignore (Serve.Schedule_cache.create ~dir ~capacity:4 ());
      check_bool "default sweeps everything" false (Sys.file_exists fresh_tmp))

(* ---- determinism through the thread-safe sharded tier ----------------- *)

let test_jobs_determinism () =
  let net =
    { Network.nname = "cl_net";
      entries =
        List.filteri (fun i _ -> i < 4) layers
        |> List.map (fun l -> { Network.layer = l; repeats = 1 }) }
  in
  let run jobs =
    let sh = Serve.Schedule_cache.create ~capacity:64 ~shards:4 () in
    let cfg =
      Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000
        ~time_limit:60. ~jobs arch
    in
    let r =
      Serve.Service.schedule_network ~tier:sh cfg net
    in
    List.map
      (fun (lr : Serve.Service.layer_report) ->
        match lr.Serve.Service.served with
        | Ok s -> Mapping_io.to_string s.Serve.Service.mapping
        | Error _ -> Alcotest.fail "solve failed")
      r.Serve.Service.layers
  in
  List.iter2
    (check_string "jobs=1 and jobs=4 byte-identical")
    (run 1) (run 4)

(* ---- peer health: ejection and backoff re-admission ------------------- *)

let alloc_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let test_peer_health () =
  let port = alloc_port () in
  let cfg =
    Cluster.Peers.default_config ~probe_interval_s:0.01 ~probe_timeout_s:0.2
      ~eject_after:2 ~readmit_backoff_s:0.02 ~readmit_backoff_max_s:0.1 ()
  in
  let t =
    Cluster.Peers.create ~config:cfg [ Daemon.Client.Tcp ("127.0.0.1", port) ]
  in
  check_int "starts healthy" 1 (Cluster.Peers.stats t).Cluster.Peers.healthy;
  (* nothing listens on the port: consecutive probe failures eject *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec eject () =
    Cluster.Peers.tick t;
    if (Cluster.Peers.stats t).Cluster.Peers.healthy = 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "dead peer never ejected"
    else begin
      Thread.delay 0.02;
      eject ()
    end
  in
  eject ();
  let s = Cluster.Peers.stats t in
  check_int "ejection counted" 1 s.Cluster.Peers.ejections;
  check_bool "ejected peer offers no endpoints" true
    (Cluster.Peers.healthy_endpoints t = []);
  (* bring the endpoint up: the backoff re-probe re-admits it *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 8;
  Fun.protect ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 5. in
      let rec readmit () =
        Cluster.Peers.tick t;
        if (Cluster.Peers.stats t).Cluster.Peers.healthy = 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "peer never re-admitted"
        else begin
          Thread.delay 0.02;
          readmit ()
        end
      in
      readmit ())

(* ---- peer trust: verify-before-serve ---------------------------------- *)

(* A minimal fake peer speaking protocol v2 on a Unix socket: one frame
   per connection, response chosen by the test. *)
let fake_peer respond =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosa_fake_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            let c, _ = Unix.accept fd in
            (try
               match P.read_frame c with
               | Ok (Some payload) ->
                 (match P.decode_request payload with
                  | Ok req -> P.write_frame c (P.encode_response (respond req))
                  | Error _ -> ())
               | _ -> ()
             with _ -> ());
            try Unix.close c with Unix.Unix_error _ -> ()
          done
        with _ -> ())
      ()
  in
  let shutdown () =
    Atomic.set stop true;
    (* poison connection so the accept loop observes the flag *)
    (try
       let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.connect c (Unix.ADDR_UNIX path);
       Unix.close c
     with Unix.Unix_error _ -> ());
    Thread.join th;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Sys.remove path with Sys_error _ -> ()
  in
  (path, shutdown)

let scheduled ~name record =
  P.Scheduled
    { P.rung = Robust.Ladder.Joint;
      layers =
        [ { P.name; repeats = 1; origin = "cache(mem)"; verdict = "ok"; record } ];
      total_latency = 1.; total_energy_pj = 1.; queue_wait_s = 0.; serve_s = 0. }

let with_fake_peer respond f =
  let path, shutdown = fake_peer respond in
  Fun.protect ~finally:shutdown
    (fun () ->
      let t = Cluster.Peers.create [ Daemon.Client.Unix_path path ] in
      f t)

(* Provenance meta naming the same objective config as [fp] above — what
   an honest, identically-configured peer's records carry. *)
let good_meta =
  { Mapping_io.default_meta with
    Mapping_io.weights =
      Some (weights.Cosa.w_util, weights.Cosa.w_comp, weights.Cosa.w_traf);
    strategy = Cosa.strategy_to_string Cosa.Two_stage }

let test_peer_verification () =
  let target = List.hd layers in
  let other = List.nth layers 2 in
  let record_of l =
    Mapping_io.record_to_string good_meta (Cosa.trivial_mapping arch l)
  in
  (* honest peer: the record parses, matches the layer, and certifies *)
  with_fake_peer
    (fun req -> scheduled ~name:req.P.client (record_of target))
    (fun t ->
      (match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
       | Some entry ->
         check_string "verdict is ours after re-certification" "ok"
           entry.Serve.Schedule_cache.meta.Mapping_io.verdict;
         check_bool "mapping certifies" true
           (Certify.Mapping_cert.check arch entry.Serve.Schedule_cache.mapping
           = Certify.Certificate.Certified)
       | None -> Alcotest.fail "honest peer answer rejected");
      let s = Cluster.Peers.stats t in
      check_int "hit counted" 1 s.Cluster.Peers.hits;
      check_int "no cert rejects" 0 s.Cluster.Peers.rejects_cert);
  (* lying peer, unparseable record: counted reject, never a serve *)
  with_fake_peer
    (fun req -> scheduled ~name:req.P.client "not a schedule record")
    (fun t ->
      (match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
       | None -> ()
       | Some _ -> Alcotest.fail "garbage record must not be served");
      check_int "cert reject counted" 1
        (Cluster.Peers.stats t).Cluster.Peers.rejects_cert);
  (* lying peer, valid record for the wrong layer: shape check rejects *)
  with_fake_peer
    (fun req -> scheduled ~name:req.P.client (record_of other))
    (fun t ->
      (match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
       | None -> ()
       | Some _ -> Alcotest.fail "wrong-layer record must not be served");
      check_int "shape reject counted" 1
        (Cluster.Peers.stats t).Cluster.Peers.rejects_cert);
  (* live peer without the record: an honest miss, not a reject *)
  with_fake_peer
    (fun _ -> P.Rejected P.Deadline_unmeetable)
    (fun t ->
      (match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
       | None -> ()
       | Some _ -> Alcotest.fail "rejection is not an answer");
      let s = Cluster.Peers.stats t in
      check_int "no cert reject on honest miss" 0 s.Cluster.Peers.rejects_cert;
      check_int "peer stays healthy" 1 s.Cluster.Peers.healthy)

(* A peer running a different objective config returns records that
   parse, shape-match, and even certify — but whose provenance meta
   contradicts the cache key they would be stored under. They must be
   rejected, or one skewed peer poisons the whole local memory tier. *)
let test_peer_config_skew_rejected () =
  let target = List.hd layers in
  let record_with meta =
    Mapping_io.record_to_string meta (Cosa.trivial_mapping arch target)
  in
  let expect_reject what meta =
    with_fake_peer
      (fun req -> scheduled ~name:req.P.client (record_with meta))
      (fun t ->
        (match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
         | None -> ()
         | Some _ -> Alcotest.fail (what ^ " must not be served"))
        ;
        check_int (what ^ " counted as cert reject") 1
          (Cluster.Peers.stats t).Cluster.Peers.rejects_cert)
  in
  (* control: identical config is accepted (the check is not vacuous) *)
  with_fake_peer
    (fun req -> scheduled ~name:req.P.client (record_with good_meta))
    (fun t ->
      match Cluster.Peers.probe t ~arch ~layer:target (fp target) with
      | Some _ -> ()
      | None -> Alcotest.fail "matching-config record rejected");
  expect_reject "weights-skewed record"
    { good_meta with
      Mapping_io.weights =
        Some (weights.Cosa.w_util +. 0.5, weights.Cosa.w_comp, weights.Cosa.w_traf) };
  expect_reject "strategy-skewed record"
    { good_meta with Mapping_io.strategy = Cosa.strategy_to_string Cosa.Joint };
  expect_reject "provenance-free record" Mapping_io.default_meta

(* End to end through the daemon: a corrupted peer response is a counted
   miss, and the request degrades to a live (still certified) solve. *)
let test_corrupt_peer_degrades_to_live_solve () =
  with_fake_peer
    (fun req ->
      let name =
        match req.P.target with P.Layer n | P.Network n -> n
      in
      scheduled ~name "corrupt bytes from a lying peer")
    (fun peers ->
      let sock =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "cosa_clsrv_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
      in
      let service =
        Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000
          ~time_limit:0.6 Spec.baseline
      in
      let admission =
        Daemon.Admission.default_config ~queue_capacity:4 ~time_limit:0.6 ()
      in
      let server =
        Daemon.Server.create
          (Daemon.Server.config ~admission ~default_budget_s:10.
             ~remote_probe:(fun ~arch ~layer fp ->
               Cluster.Peers.probe peers ~arch ~layer fp)
             ~tier:(Serve.Schedule_cache.create ~capacity:256 ())
             ~socket_path:sock service)
      in
      let thread = Daemon.Server.start server in
      Daemon.Server.wait_ready server;
      Fun.protect
        ~finally:(fun () ->
          Daemon.Server.shutdown server;
          Thread.join thread)
        (fun () ->
          match
            Daemon.Client.one_shot sock
              { P.client = ""; budget_s = 10.; arch = "baseline";
                target = P.Layer "3_56_64_64_1"; cache_only = false; req_id = 0L;
                hop = 0 }
          with
          | Ok (P.Scheduled s) ->
            (match s.P.layers with
             | [ l ] ->
               check_bool "not served from the corrupt peer" true
                 (l.P.origin <> "cache(peer)");
               check_string "live solve still certifies" "ok" l.P.verdict
             | _ -> Alcotest.fail "expected one layer")
          | _ -> Alcotest.fail "expected a live-solved Scheduled");
      check_bool "corrupt peer answer counted as cert reject" true
        ((Cluster.Peers.stats peers).Cluster.Peers.rejects_cert >= 1))

(* ---- request-id propagation across hops -------------------------------- *)

(* One wire request id must thread client -> daemon -> warm-peer probe:
   the daemon serves under the client's id, the outbound probe carries
   (id, hop+1) on the wire, and the same 16-hex-digit rendering shows up
   in the trace export, the structured event log, and the daemon's
   flight recorder. *)
let test_request_id_propagation () =
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Telemetry.Trace.reset ();
  Telemetry.Log.set ~level:Telemetry.Log.Debug Telemetry.Log.Memory;
  let probe_seen = ref None in
  let path, shutdown_peer =
    fake_peer (fun req ->
        probe_seen := Some (req.P.req_id, req.P.hop);
        (* honest miss: the daemon solves locally and still serves *)
        P.Rejected P.Deadline_unmeetable)
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown_peer ();
      Telemetry.Log.set Telemetry.Log.Null;
      Telemetry.Sink.set Telemetry.Sink.Null)
    (fun () ->
      let peers = Cluster.Peers.create [ Daemon.Client.Unix_path path ] in
      let sock =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "cosa_reqid_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
      in
      let service =
        Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000
          ~time_limit:0.6 arch
      in
      let admission =
        Daemon.Admission.default_config ~queue_capacity:4 ~time_limit:0.6 ()
      in
      let server =
        Daemon.Server.create
          (Daemon.Server.config ~admission ~default_budget_s:10.
             ~remote_probe:(fun ~arch ~layer fp ->
               Cluster.Peers.probe peers ~arch ~layer fp)
             ~tier:(Serve.Schedule_cache.create ~capacity:256 ())
             ~socket_path:sock service)
      in
      let thread = Daemon.Server.start server in
      Daemon.Server.wait_ready server;
      let id = 0x00ab_cdef_0123_4567L in
      let hex = Telemetry.Trace.request_id_hex id in
      Fun.protect
        ~finally:(fun () ->
          Daemon.Server.shutdown server;
          Thread.join thread)
        (fun () ->
          (match
             Daemon.Client.one_shot sock
               { P.client = ""; budget_s = 10.; arch = "baseline";
                 target = P.Layer "3_56_64_64_1"; cache_only = false;
                 req_id = id; hop = 0 }
           with
           | Ok (P.Scheduled _) -> ()
           | _ -> Alcotest.fail "expected a Scheduled response");
          (* the outbound peer probe carried the same id, one hop deeper *)
          (match !probe_seen with
           | Some (pid, phop) ->
             check_bool "peer probe carries the id" true (pid = id);
             check_int "peer probe hop incremented" 1 phop
           | None -> Alcotest.fail "warm peer was never probed");
          (* flight recorder: the daemon's record of this request *)
          let flight = Daemon.Server.stats_payload server P.Stats_flight in
          check_bool "flight recorder carries the id" true (contains flight hex);
          (* trace export: at least one event tagged with the id *)
          check_bool "trace events tagged with the id" true
            (List.exists
               (fun (e : Telemetry.Trace.event) ->
                 List.assoc_opt "req" e.Telemetry.Trace.args = Some hex)
               (Telemetry.Trace.events ()));
          (* structured event log: the serve line carries the id *)
          check_bool "event log carries the id" true
            (List.exists
               (fun line -> contains line hex && contains line "daemon.serve")
               (Telemetry.Log.captured ()))))

(* ---- peek probes and miss accounting ---------------------------------- *)

(* The daemon's connection-thread fast path peeks the tier before the
   solver path probes it authoritatively: a peek miss must not be booked
   (or every missing request would count 2+ misses and deflate the
   hit-rate window admission prices against), while hits always count. *)
let test_peek_no_miss_accounting () =
  let sh = Serve.Schedule_cache.create ~capacity:16 ~shards:2 () in
  let l = List.hd layers in
  (match Serve.Schedule_cache.find ~count_miss:false sh ~arch ~layer:l (fp l) with
   | None -> ()
   | Some _ -> Alcotest.fail "empty cache cannot hit");
  check_int "peek miss not booked" 0
    (Serve.Schedule_cache.stats sh).Serve.Schedule_cache.misses;
  (match Serve.Schedule_cache.find sh ~arch ~layer:l (fp l) with
   | None -> ()
   | Some _ -> Alcotest.fail "empty cache cannot hit");
  check_int "authoritative miss booked" 1
    (Serve.Schedule_cache.stats sh).Serve.Schedule_cache.misses;
  Serve.Schedule_cache.store sh (fp l) (entry_of l);
  (match Serve.Schedule_cache.find ~count_miss:false sh ~arch ~layer:l (fp l) with
   | Some _ -> ()
   | None -> Alcotest.fail "stored entry must peek");
  check_int "peek hit booked" 1
    (Serve.Schedule_cache.stats sh).Serve.Schedule_cache.hits;
  check_int "hit books no miss" 1
    (Serve.Schedule_cache.stats sh).Serve.Schedule_cache.misses

(* ---- client: bounded connect, terminal protocol errors ---------------- *)

(* A black-holed peer must cost at most the connect budget, not the
   kernel's ~minutes TCP timeout — this is what keeps a dead peer from
   stalling the daemon's accept loop and solver thread for whole probe
   cycles. Simulate the black hole locally: a listener whose accept
   queue is saturated drops further SYNs, so an unbounded connect hangs
   in retransmission. Only boundedness is asserted — some network
   fabrics complete the handshake anyway, which is also a fast return. *)
let test_connect_timeout_bounded () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* saturate the accept queue with connections nobody will accept *)
  let stuffers =
    List.init 8 (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock s;
        (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with
         | Unix.Unix_error
             ( ( Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN
               | Unix.ECONNREFUSED ),
               _, _ ) -> ());
        s)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
        stuffers;
      Unix.close srv)
    (fun () ->
      Thread.delay 0.05;
      let t0 = Unix.gettimeofday () in
      (match
         Daemon.Client.connect_ep ~timeout_s:0.3
           (Daemon.Client.Tcp ("127.0.0.1", port))
       with
       | Ok c -> Daemon.Client.close c
       | Error _ -> ());
      check_bool "connect bounded by the budget" true
        (Unix.gettimeofday () -. t0 < 5.));
  (* the non-blocking path still completes a legitimate connect *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Fun.protect ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match
        Daemon.Client.connect_ep ~timeout_s:1. (Daemon.Client.Tcp ("127.0.0.1", port))
      with
      | Ok c -> Daemon.Client.close c
      | Error msg -> Alcotest.fail ("bounded connect to live listener: " ^ msg))

(* A server speaking the wrong protocol version answers every exchange
   with an undecodable (but well-framed) response. That is a permanent
   property of the peer: failover must surface it immediately instead of
   burning every retry and backoff against it. *)
let test_failover_protocol_error_terminal () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosa_badver_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let conns = Atomic.make 0 in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            let c, _ = Unix.accept fd in
            if not (Atomic.get stop) then Atomic.incr conns;
            (try
               match P.read_frame c with
               | Ok (Some _) ->
                 (* right magic, wrong version: decodes to a typed
                    expected-vs-got protocol error on the client *)
                 P.write_frame c (Bytes.of_string "\xC5\x63junk")
               | _ -> ()
             with _ -> ());
            try Unix.close c with Unix.Unix_error _ -> ()
          done
        with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (try
         let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.connect c (Unix.ADDR_UNIX path);
         Unix.close c
       with Unix.Unix_error _ -> ());
      Thread.join th;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match
        Daemon.Client.request_failover ~retries:3 ~backoff_s:0.001 ~timeout_s:2.
          ~endpoints:[ Daemon.Client.Unix_path path ]
          { P.client = ""; budget_s = 1.; arch = "baseline";
            target = P.Layer "cl_a"; cache_only = false; req_id = 0L; hop = 0 }
      with
      | Ok _ -> Alcotest.fail "undecodable response must not yield Ok"
      | Error msg ->
        check_bool "error names the version mismatch" true
          (contains msg "version mismatch");
        check_bool "error marked terminal" true (contains msg "not retried");
        check_int "exactly one exchange: no retries burned" 1 (Atomic.get conns))

let suite =
  ( "cluster",
    [
      Alcotest.test_case "shard placement + aggregate stats" `Quick
        test_shard_placement;
      Alcotest.test_case "per-shard persist/recover/corruption" `Quick
        test_shard_persist_recover;
      Alcotest.test_case "stale-temp sweep age threshold" `Quick
        test_tmp_sweep_age;
      Alcotest.test_case "jobs=1 = jobs=4 through sharded tier" `Slow
        test_jobs_determinism;
      Alcotest.test_case "peer ejection + re-admission" `Slow test_peer_health;
      Alcotest.test_case "peer answers verified before serve" `Quick
        test_peer_verification;
      Alcotest.test_case "config-skewed peer records rejected" `Quick
        test_peer_config_skew_rejected;
      Alcotest.test_case "corrupt peer -> counted miss + live solve" `Slow
        test_corrupt_peer_degrades_to_live_solve;
      Alcotest.test_case "request id threads client->daemon->peer" `Slow
        test_request_id_propagation;
      Alcotest.test_case "peek probes book no misses" `Quick
        test_peek_no_miss_accounting;
      Alcotest.test_case "connect bounded by timeout" `Quick
        test_connect_timeout_bounded;
      Alcotest.test_case "protocol errors terminal in failover" `Quick
        test_failover_protocol_error_terminal;
    ] )
