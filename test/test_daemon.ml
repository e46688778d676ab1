(* Tests for the scheduling daemon: wire protocol totality and roundtrips,
   SLO-aware admission (budget-band rung selection, quotas, shedding,
   queue bounds — table-driven and property-based), and a live
   socket-level end-to-end exchange with graceful drain. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module P = Daemon.Protocol
module A = Daemon.Admission
module L = Robust.Ladder

(* ---- protocol --------------------------------------------------------- *)

let sample_request =
  { P.client = "tenant-a"; budget_s = 0.75; arch = "baseline";
    target = P.Layer "3_56_64_64_1"; cache_only = false;
    req_id = 0x0123_4567_89ab_cdefL; hop = 2 }

let test_request_roundtrip () =
  match P.decode_request (P.encode_request sample_request) with
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)
  | Ok r ->
    check_string "client" sample_request.P.client r.P.client;
    check_bool "budget bit-exact" true (r.P.budget_s = sample_request.P.budget_s);
    check_string "arch" "baseline" r.P.arch;
    check_bool "target" true (r.P.target = P.Layer "3_56_64_64_1");
    check_bool "request id" true (r.P.req_id = sample_request.P.req_id);
    check_int "hop" 2 r.P.hop

let sample_scheduled =
  P.Scheduled
    {
      P.rung = L.Two_stage;
      layers =
        [ { P.name = "l0"; repeats = 3; origin = "two-stage MIP"; verdict = "ok";
            record = "record body\nwith newline" } ];
      total_latency = 123456.;
      total_energy_pj = 7.5e9;
      queue_wait_s = 0.002;
      serve_s = 0.4;
    }

let test_response_roundtrips () =
  List.iter
    (fun resp ->
      match P.decode_response (P.encode_response resp) with
      | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)
      | Ok r -> check_bool "response roundtrips" true (r = resp))
    [ sample_scheduled; P.Rejected P.Queue_full; P.Rejected P.Quota_exceeded;
      P.Rejected P.Shedding; P.Rejected P.Deadline_unmeetable;
      P.Failed "solver blew up" ]

(* Decoding is total: every truncation of a valid frame is a typed error,
   never an exception. *)
let test_decode_total_on_truncation () =
  let full = P.encode_request sample_request in
  for n = 0 to Bytes.length full - 1 do
    match P.decode_request (Bytes.sub full 0 n) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation to %d bytes decoded" n)
  done;
  let resp = P.encode_response sample_scheduled in
  for n = 0 to Bytes.length resp - 1 do
    match P.decode_response (Bytes.sub resp 0 n) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation to %d bytes decoded" n)
  done

let test_decode_rejects_garbage () =
  check_bool "bad magic" true
    (Result.is_error (P.decode_request (Bytes.of_string "\x00\x01\x01")));
  check_bool "bad version" true
    (Result.is_error (P.decode_request (Bytes.of_string "\xc5\x63\x01")));
  check_bool "trailing bytes" true
    (Result.is_error
       (P.decode_request
          (Bytes.cat (P.encode_request sample_request) (Bytes.of_string "x"))));
  check_bool "response tag is not a request" true
    (Result.is_error (P.decode_request (P.encode_response (P.Failed "x"))));
  check_bool "empty" true (Result.is_error (P.decode_response Bytes.empty))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A frame from a different protocol generation names both sides of the
   disagreement — mixed-version deployments fail legibly. *)
let test_version_magic_mismatch () =
  let frame = P.encode_request sample_request in
  let mutated i v =
    let b = Bytes.copy frame in
    Bytes.set b i v;
    b
  in
  (* byte 0 is the magic, byte 1 the version *)
  (match P.decode_request (mutated 1 '\x01') with
   | Ok _ -> Alcotest.fail "v1 frame decoded as current version"
   | Error e ->
     check_bool "names the expected version" true
       (contains e (Printf.sprintf "expected v%d" P.version));
     check_bool "names the received version" true (contains e "got v1"));
  match P.decode_request (mutated 0 '\x7f') with
  | Ok _ -> Alcotest.fail "wrong-magic frame decoded"
  | Error e -> check_bool "names the magic" true (contains e "magic mismatch")

(* Fuzz totality: random byte mutations and truncations of valid frames
   always come back [Ok]/[Error], never an exception. *)
let qcheck_decoder_total_fuzz =
  let base_req = P.encode_request sample_request in
  let base_resp = P.encode_response sample_scheduled in
  let gen =
    QCheck.Gen.(
      let* use_resp = bool in
      let base = if use_resp then base_resp else base_req in
      let len = Bytes.length base in
      let* keep = int_bound len in
      let* muts =
        list_size (int_bound 8)
          (pair (int_bound (max 0 (len - 1))) (int_bound 255))
      in
      return (use_resp, keep, muts))
  in
  QCheck.Test.make ~name:"decoders total under mutation and truncation"
    ~count:1000 (QCheck.make gen)
    (fun (use_resp, keep, muts) ->
      let base = if use_resp then base_resp else base_req in
      let b = Bytes.sub base 0 keep in
      List.iter
        (fun (i, v) -> if i < Bytes.length b then Bytes.set b i (Char.chr v))
        muts;
      match
        if use_resp then Result.map ignore (P.decode_response b)
        else Result.map ignore (P.decode_request b)
      with
      | Ok () | Error _ -> true)

let qcheck_protocol_roundtrip =
  let gen =
    QCheck.Gen.(
      let str = string_size ~gen:printable (int_bound 40) in
      let* client = str in
      let* budget = float_bound_inclusive 100. in
      let* arch = str in
      let* is_layer = bool in
      let* name = str in
      let* cache_only = bool in
      let* req_lo = int_bound 0xffff in
      let* req_hi = int_bound 0xffff in
      let* hop = int_bound 255 in
      return
        { P.client; budget_s = budget; arch;
          target = (if is_layer then P.Layer name else P.Network name);
          cache_only;
          req_id =
            Int64.logor
              (Int64.shift_left (Int64.of_int req_hi) 48)
              (Int64.of_int req_lo);
          hop })
  in
  QCheck.Test.make ~name:"protocol request roundtrip" ~count:200 (QCheck.make gen)
    (fun req ->
      match P.decode_request (P.encode_request req) with
      | Ok r -> r = req
      | Error _ -> false)

(* ---- admission: table-driven budget bands ----------------------------- *)

(* Fixed pessimistic priors, min_samples high so they stay binding:
   cost(J)=4.005, cost(T)=2.005, cost(H)=0.055, cost(C)=0.005 at p_hit=0. *)
let adm_cfg =
  {
    A.queue_capacity = 4;
    quota_rate = 0.;
    quota_burst = 8.;
    shed_delay_s = 8.;
    safety = 0.8;
    min_samples = 1000;
    priors =
      [ (L.Joint, 4.0); (L.Two_stage, 2.0); (L.Heuristic, 0.05);
        (L.Cache_probe, 0.005) ];
  }

let decide ?(cfg = adm_cfg) ?(depth = 0) ?(delay = 0.) ?(hit = 0.) budget =
  A.decide (A.create cfg) ~now:0. ~client:"" ~budget_s:budget ~queue_depth:depth
    ~queue_delay_s:delay ~hit_rate:hit

let test_admission_budget_bands () =
  let expect name budget want =
    check_bool name true (decide budget = want)
  in
  expect "generous -> Joint" 10. (Ok L.Joint);
  expect "mid -> Two_stage" 4. (Ok L.Two_stage);
  expect "tight -> Heuristic" 0.5 (Ok L.Heuristic);
  expect "very tight -> Cache_probe" 0.02 (Ok L.Cache_probe);
  expect "unmeetable -> typed rejection" 0.004 (Error P.Deadline_unmeetable);
  (* a hot cache discounts the solve cost: Joint fits a tiny budget *)
  check_bool "hot cache upgrades the rung" true
    (decide ~hit:1. 0.02 = Ok L.Joint);
  (* queue delay eats the budget before rung fit *)
  check_bool "queue delay degrades" true (decide ~delay:6. 10. = Ok L.Two_stage);
  check_bool "queue full rejects first" true
    (decide ~depth:4 10. = Error P.Queue_full);
  check_bool "estimated overload sheds" true
    (decide ~delay:9. 20. = Error P.Shedding)

let test_admission_quota () =
  let cfg = { adm_cfg with A.quota_rate = 1.; quota_burst = 2. } in
  let t = A.create cfg in
  let d ~now client =
    A.decide t ~now ~client ~budget_s:10. ~queue_depth:0 ~queue_delay_s:0.
      ~hit_rate:0.
  in
  check_bool "burst token 1" true (d ~now:0. "a" = Ok L.Joint);
  check_bool "burst token 2" true (d ~now:0. "a" = Ok L.Joint);
  check_bool "bucket empty" true (d ~now:0. "a" = Error P.Quota_exceeded);
  (* per-client isolation: b has its own bucket *)
  check_bool "other client unaffected" true (d ~now:0. "b" = Ok L.Joint);
  (* lazy refill at 1 token/s *)
  check_bool "refilled after 1.5s" true (d ~now:1.5 "a" = Ok L.Joint);
  check_bool "only one token refilled" true (d ~now:1.5 "a" = Error P.Quota_exceeded)

let test_admission_observe_overrides_priors () =
  let cfg = { adm_cfg with A.min_samples = 4 } in
  let t = A.create cfg in
  (* prior says Joint costs 4s; feed fast observations until they bind *)
  check_bool "prior binds cold" true (A.rung_cost t L.Joint = 4.0);
  for _ = 1 to 8 do
    A.observe t L.Joint 0.1
  done;
  check_bool "window p95 replaces prior" true (A.rung_cost t L.Joint <= 0.1 +. 1e-9);
  (* and a 1s budget now clears the Joint rung *)
  let d =
    A.decide t ~now:0. ~client:"" ~budget_s:1. ~queue_depth:0 ~queue_delay_s:0.
      ~hit_rate:0.
  in
  check_bool "warm estimator admits Joint at 1s" true (d = Ok L.Joint)

(* ---- admission: properties -------------------------------------------- *)

(* Feasibility: an admitted rung's estimated cost fits the discounted
   budget. *)
let qcheck_admission_feasible =
  QCheck.Test.make ~name:"admitted rung cost fits safety * budget" ~count:500
    (QCheck.make
       QCheck.Gen.(pair (float_bound_inclusive 12.) (float_bound_inclusive 1.)))
    (fun (budget, hit) ->
      let t = A.create adm_cfg in
      match
        A.decide t ~now:0. ~client:"" ~budget_s:budget ~queue_depth:0
          ~queue_delay_s:0. ~hit_rate:hit
      with
      | Error _ -> true
      | Ok rung ->
        let cost =
          List.find_map
            (fun (e : L.estimate) -> if L.equal e.L.rung rung then Some e.L.cost_s else None)
            (A.estimates t ~hit_rate:hit)
        in
        (match cost with
         | None -> false
         | Some c -> c <= (adm_cfg.A.safety *. budget) +. 1e-9))

(* Monotonicity: a larger budget never selects a lower rung. *)
let qcheck_admission_monotone =
  QCheck.Test.make ~name:"larger budget never lowers the rung" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple (float_bound_inclusive 12.) (float_bound_inclusive 12.)
           (float_bound_inclusive 1.)))
    (fun (b1, b2, hit) ->
      let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
      let d b =
        A.decide (A.create adm_cfg) ~now:0. ~client:"" ~budget_s:b ~queue_depth:0
          ~queue_delay_s:0. ~hit_rate:hit
      in
      match (d lo, d hi) with
      | Error _, _ -> true  (* lo unmeetable says nothing about hi *)
      | Ok _, Error _ -> false  (* hi unmeetable while lo fit: not monotone *)
      | Ok rl, Ok rh -> L.rank rh >= L.rank rl)

(* Ladder.select directly: never picks an unaffordable rung, and never
   passes over a higher rung that fits. *)
let qcheck_ladder_select =
  QCheck.Test.make ~name:"ladder select is max-rank-affordable" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (float_bound_inclusive 5.)
           (list_size (int_bound 6) (pair (int_bound 3) (float_bound_inclusive 5.)))))
    (fun (budget, raw) ->
      let rungs = [| L.Cache_probe; L.Heuristic; L.Two_stage; L.Joint |] in
      let ests = List.map (fun (i, c) -> { L.rung = rungs.(i); cost_s = c }) raw in
      match L.select ~budget ests with
      | None -> not (List.exists (fun (e : L.estimate) -> e.L.cost_s <= budget) ests)
      | Some r ->
        List.exists
          (fun (e : L.estimate) -> L.equal e.L.rung r && e.L.cost_s <= budget)
          ests
        && not
             (List.exists
                (fun (e : L.estimate) -> e.L.cost_s <= budget && L.rank e.L.rung > L.rank r)
                ests))

(* ---- live daemon: socket e2e, typed rejection, graceful drain --------- *)

let with_temp_daemon ?(cache_dir = None) f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosa_test_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let service =
    Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000 ~time_limit:0.6
      Spec.baseline
  in
  let admission = A.default_config ~queue_capacity:4 ~time_limit:0.6 () in
  let server =
    Daemon.Server.create
      (Daemon.Server.config ~admission ?cache_dir ~default_budget_s:10.
         ~socket_path:sock service)
  in
  let thread = Daemon.Server.start server in
  Daemon.Server.wait_ready server;
  Fun.protect
    ~finally:(fun () ->
      Daemon.Server.shutdown server;
      Thread.join thread)
    (fun () -> f server sock)

let request ?(budget = 10.) ?(arch = "baseline") ?(req_id = 0L) sock name =
  Daemon.Client.one_shot sock
    { P.client = ""; budget_s = budget; arch; target = P.Layer name;
      cache_only = false; req_id; hop = 0 }

let test_daemon_e2e () =
  with_temp_daemon (fun server sock ->
      (* generous budget: full-quality schedule, certified *)
      (match request sock "3_56_64_64_1" with
       | Ok (P.Scheduled s) ->
         check_bool "full-quality rung" true (s.P.rung = L.Joint);
         (match s.P.layers with
          | [ l ] ->
            check_string "verdict" "ok" l.P.verdict;
            (match Mapping_io.record_of_string l.P.record with
             | Error e -> Alcotest.fail ("record unparseable: " ^ e)
             | Ok (_, m) ->
               check_bool "client-side re-certification" true
                 (Certify.Mapping_cert.check Spec.baseline m
                 = Certify.Certificate.Certified))
          | _ -> Alcotest.fail "expected one layer");
         check_bool "latency positive" true (s.P.total_latency > 0.)
       | Ok _ -> Alcotest.fail "expected Scheduled"
       | Error e -> Alcotest.fail e);
      (* second request: served from the in-memory cache *)
      (match request sock "3_56_64_64_1" with
       | Ok (P.Scheduled s) ->
         (match s.P.layers with
          | [ l ] -> check_string "cache origin" "cache(mem)" l.P.origin
          | _ -> Alcotest.fail "expected one layer")
       | _ -> Alcotest.fail "expected Scheduled from cache");
      (* hopeless deadline: typed up-front rejection, no solve *)
      (match request ~budget:0.0001 sock "1_56_64_256_1" with
       | Ok (P.Rejected P.Deadline_unmeetable) -> ()
       | _ -> Alcotest.fail "expected Deadline_unmeetable");
      (* unknown names: typed failures *)
      (match request sock "no_such_layer" with
       | Ok (P.Failed _) -> ()
       | _ -> Alcotest.fail "expected Failed for unknown layer");
      (match request ~arch:"no_such_arch" sock "3_56_64_64_1" with
       | Ok (P.Failed _) -> ()
       | _ -> Alcotest.fail "expected Failed for unknown arch");
      let s = Daemon.Server.stats server in
      check_int "received" 5 s.Daemon.Server.received;
      check_int "served" 2 s.Daemon.Server.served;
      check_int "rejected deadline" 1 s.Daemon.Server.rejected_deadline)

(* A malformed frame costs the client a typed error, never the server. *)
let test_daemon_survives_garbage () =
  with_temp_daemon (fun _server sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      P.write_frame fd (Bytes.of_string "\xde\xad\xbe\xef");
      (match P.read_frame fd with
       | Ok (Some payload) ->
         (match P.decode_response payload with
          | Ok (P.Failed msg) ->
            check_bool "typed protocol error" true
              (String.length msg > 0
              && String.sub msg 0 9 = "malformed")
          | _ -> Alcotest.fail "expected Failed response")
       | _ -> Alcotest.fail "expected a response frame");
      Unix.close fd;
      (* and the server still serves *)
      match request sock "3_56_64_64_1" with
      | Ok (P.Scheduled _) -> ()
      | _ -> Alcotest.fail "server wedged after garbage frame")

(* A frame carrying the wrong protocol version gets a typed [Failed]
   naming expected-vs-got, not a dropped connection. *)
let test_daemon_rejects_version_mismatch () =
  with_temp_daemon (fun _server sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let payload = P.encode_request sample_request in
          Bytes.set payload 1 '\x01';
          P.write_frame fd payload;
          match P.read_frame fd with
          | Ok (Some resp) ->
            (match P.decode_response resp with
             | Ok (P.Failed msg) ->
               check_bool "typed failure names both versions" true
                 (contains msg "version mismatch"
                 && contains msg (Printf.sprintf "expected v%d" P.version)
                 && contains msg "got v1")
             | _ -> Alcotest.fail "expected a typed Failed response")
          | _ -> Alcotest.fail "expected a response frame"))

(* ---- TCP transport and client failover -------------------------------- *)

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

let with_tcp_daemon f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosa_tcp_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let port = alloc_port () in
  let service =
    Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000 ~time_limit:0.6
      Spec.baseline
  in
  let admission = A.default_config ~queue_capacity:4 ~time_limit:0.6 () in
  let server =
    Daemon.Server.create
      (Daemon.Server.config ~admission ~default_budget_s:10.
         ~tcp:("127.0.0.1", port) ~socket_path:sock service)
  in
  let thread = Daemon.Server.start server in
  Daemon.Server.wait_ready server;
  Fun.protect
    ~finally:(fun () ->
      Daemon.Server.shutdown server;
      Thread.join thread)
    (fun () -> f server port)

let test_daemon_tcp_failover () =
  with_tcp_daemon (fun server port ->
      let live = Daemon.Client.Tcp ("127.0.0.1", port) in
      let dead = Daemon.Client.Tcp ("127.0.0.1", alloc_port ()) in
      let req ?(budget = 10.) name =
        { P.client = ""; budget_s = budget; arch = "baseline";
          target = P.Layer name; cache_only = false; req_id = 0L; hop = 0 }
      in
      (* plain exchange over the TCP listener *)
      (match Daemon.Client.one_shot_ep live (req "3_56_64_64_1") with
       | Ok (P.Scheduled _) -> ()
       | Ok _ -> Alcotest.fail "expected Scheduled over TCP"
       | Error e -> Alcotest.fail ("TCP exchange failed: " ^ e));
      (* failover: the dead endpoint is skipped, the live one answers *)
      (match
         Daemon.Client.request_failover ~retries:1 ~backoff_s:0.01
           ~endpoints:[ dead; live ] (req "3_56_64_64_1")
       with
       | Ok (P.Scheduled s) ->
         (match s.P.layers with
          | [ l ] -> check_string "failover hits the warm cache" "cache(mem)" l.P.origin
          | _ -> Alcotest.fail "expected one layer")
       | _ -> Alcotest.fail "failover never reached the live endpoint");
      (* a typed rejection is terminal: a retried one would show up as
         extra received requests on the server *)
      let before = (Daemon.Server.stats server).Daemon.Server.received in
      (match
         Daemon.Client.request_failover ~retries:3 ~backoff_s:0.01
           ~endpoints:[ live ] (req ~budget:0.0001 "1_56_64_256_1")
       with
       | Ok (P.Rejected P.Deadline_unmeetable) -> ()
       | _ -> Alcotest.fail "expected a typed rejection through failover");
      let after = (Daemon.Server.stats server).Daemon.Server.received in
      check_int "typed rejection not retried" 1 (after - before))

(* Drain persists the cache; a warm restart serves from disk after
   re-verification. *)
let test_daemon_drain_and_restart () =
  let dir = Filename.temp_file "cosa_daemon" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      with_temp_daemon ~cache_dir:(Some dir) (fun _ sock ->
          match request sock "3_56_64_64_1" with
          | Ok (P.Scheduled _) -> ()
          | _ -> Alcotest.fail "seed solve failed");
      (* with_temp_daemon's finally drained the server: cache on disk *)
      check_bool "drain wrote records" true (Array.length (Sys.readdir dir) > 0);
      check_bool "no temp litter after drain" true
        (Array.for_all
           (fun n -> Filename.check_suffix n ".cosa")
           (Sys.readdir dir));
      with_temp_daemon ~cache_dir:(Some dir) (fun server sock ->
          (match request sock "3_56_64_64_1" with
           | Ok (P.Scheduled s) ->
             (match s.P.layers with
              | [ l ] -> check_string "restart hits disk" "cache(disk)" l.P.origin
              | _ -> Alcotest.fail "expected one layer")
           | _ -> Alcotest.fail "restart request failed");
          let s = Daemon.Server.stats server in
          check_int "no live solve needed" 1 s.Daemon.Server.served))

(* ---- live introspection: the Stats frame ------------------------------ *)

(* A stats query against a live daemon returns the versioned snapshot
   (with the request ids of served traffic in the flight recorder) and is
   strictly read-only: request/admission counters and cache hit/miss
   accounting must be byte-for-byte what they were before the query. *)
let test_stats_frame () =
  with_temp_daemon (fun server sock ->
      let id = 0xfeed_face_1234_5678L in
      (match request ~req_id:id sock "3_56_64_64_1" with
       | Ok (P.Scheduled _) -> ()
       | _ -> Alcotest.fail "seed solve failed");
      (match request sock "3_56_64_64_1" with
       | Ok (P.Scheduled _) -> ()
       | _ -> Alcotest.fail "cache-hit request failed");
      let counters () =
        let s = Daemon.Server.stats server in
        let c =
          let cs = Serve.Schedule_cache.stats (Daemon.Server.tier server) in
          (cs.Serve.Schedule_cache.hits, cs.Serve.Schedule_cache.misses)
        in
        (s.Daemon.Server.received, s.Daemon.Server.served, c)
      in
      let before = counters () in
      let ep = Daemon.Client.Unix_path sock in
      let full =
        match Daemon.Client.stats_ep ep P.Stats_full with
        | Ok s -> s
        | Error e -> Alcotest.fail ("stats query failed: " ^ e)
      in
      check_bool "versioned snapshot" true (contains full "\"snapshot_version\":1");
      check_bool "names the protocol version" true
        (contains full (Printf.sprintf "\"protocol_version\":%d" P.version));
      check_bool "daemon counters present" true (contains full "\"received\":2");
      check_bool "admission windows present" true (contains full "\"admission\":[");
      check_bool "metrics embedded" true (contains full "\"metrics\":");
      let hex = Telemetry.Trace.request_id_hex id in
      check_bool "flight recorder carries the request id" true (contains full hex);
      let flight =
        match Daemon.Client.stats_ep ep P.Stats_flight with
        | Ok s -> s
        | Error e -> Alcotest.fail ("trace-dump query failed: " ^ e)
      in
      check_bool "flight dump carries the request id" true (contains flight hex);
      check_bool "flight dump records the outcome" true
        (contains flight "\"verdict\":\"scheduled\"");
      let prom =
        match Daemon.Client.stats_ep ep P.Stats_prometheus with
        | Ok s -> s
        | Error e -> Alcotest.fail ("prometheus query failed: " ^ e)
      in
      check_bool "prometheus exposition typed" true (contains prom "# TYPE");
      check_bool "prometheus metrics prefixed" true (contains prom "cosa_daemon_");
      (* the queries above must not have moved a single counter *)
      check_bool "stats queries perturb nothing" true (counters () = before);
      check_bool "stats queries not counted as requests" true
        (contains
           (Daemon.Server.stats_payload server P.Stats_full)
           "\"received\":2"))

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "daemon",
    [
      Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
      Alcotest.test_case "response roundtrips" `Quick test_response_roundtrips;
      Alcotest.test_case "decode total on truncation" `Quick
        test_decode_total_on_truncation;
      Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
      Alcotest.test_case "version/magic mismatch is named" `Quick
        test_version_magic_mismatch;
      qc qcheck_decoder_total_fuzz;
      qc qcheck_protocol_roundtrip;
      Alcotest.test_case "admission budget bands" `Quick test_admission_budget_bands;
      Alcotest.test_case "admission quota" `Quick test_admission_quota;
      Alcotest.test_case "admission observe" `Quick
        test_admission_observe_overrides_priors;
      qc qcheck_admission_feasible;
      qc qcheck_admission_monotone;
      qc qcheck_ladder_select;
      Alcotest.test_case "daemon e2e" `Slow test_daemon_e2e;
      Alcotest.test_case "daemon survives garbage" `Slow test_daemon_survives_garbage;
      Alcotest.test_case "daemon rejects version mismatch" `Slow
        test_daemon_rejects_version_mismatch;
      Alcotest.test_case "daemon tcp + failover" `Slow test_daemon_tcp_failover;
      Alcotest.test_case "daemon drain+restart" `Slow test_daemon_drain_and_restart;
      Alcotest.test_case "stats frame: live + read-only" `Slow test_stats_frame;
    ] )
