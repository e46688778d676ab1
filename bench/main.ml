(* Full benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section V) plus the DESIGN.md ablations, then runs
   the daemon soaks, the warm-vs-cold sweep and the fusion gate.

   Run with: dune exec bench/main.exe
   One section: dune exec bench/main.exe -- exp|sweep|soak|soak-cluster|fuse
   A single experiment: dune exec bin/cosa_cli.exe -- exp fig6

   Besides the human-readable report on stdout, the harness accumulates a
   machine-readable summary — per-experiment wall time plus a telemetry
   snapshot (branch-and-bound nodes, simplex iterations, cache hit rates)
   — and writes it to BENCH_results.json so CI and regression tooling can
   diff runs without parsing tables. *)

(* ---- machine-readable results ---------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

(* Counters of a snapshot as one JSON object (histograms are summarised by
   count and sum — enough for rate regressions without bucket noise).
   Never-touched metrics are suppressed: registered-but-zero counters and
   gauges and empty histograms (all the dram.*/noc.* instruments a solver-
   only section never drives) would otherwise bloat every section and the
   regression baseline with noise that can only ever read 0. *)
let snapshot_json (s : Telemetry.Metrics.snapshot) =
  let counters =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else Some (Printf.sprintf "\"%s\":%d" (json_escape name) v))
      s.Telemetry.Metrics.counters
  in
  let gauges =
    List.filter_map
      (fun (name, v) ->
        if v = 0. then None
        else Some (Printf.sprintf "\"%s\":%s" (json_escape name) (json_float v)))
      s.Telemetry.Metrics.gauges
  in
  let hists =
    List.filter_map
      (fun (name, (h : Telemetry.Metrics.hist_snapshot)) ->
        if h.Telemetry.Metrics.count = 0 then None
        else
          Some
            (Printf.sprintf "\"%s\":{\"count\":%d,\"sum\":%s}" (json_escape name)
               h.Telemetry.Metrics.count (json_float h.Telemetry.Metrics.sum)))
      s.Telemetry.Metrics.histograms
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counters) (String.concat "," gauges) (String.concat "," hists)

let exp_ran = ref false
let exp_results : string list ref = ref []
let sweep_result : string option ref = ref None
let soak_result : string option ref = ref None
let soak_cluster_result : string option ref = ref None
let fuse_result : string option ref = ref None

(* Split the top level of an existing results file into (key, raw value)
   pairs so a partial bench run can merge into it instead of overwriting:
   a sweep-only run must not silently drop the committed experiments or
   soak sections. A tiny scanner (depth + string state) is enough — the
   file is our own output. *)
let split_top_level text =
  let n = String.length text in
  let i = ref 0 in
  let sections = ref [] in
  (try
     while !i < n && text.[!i] <> '{' do incr i done;
     incr i;
     let read_string () =
       (* cursor on the opening quote; returns contents, cursor past close *)
       let buf = Buffer.create 16 in
       incr i;
       while text.[!i] <> '"' do
         if text.[!i] = '\\' then begin
           Buffer.add_char buf text.[!i];
           incr i
         end;
         Buffer.add_char buf text.[!i];
         incr i
       done;
       incr i;
       Buffer.contents buf
     in
     let skip_ws () =
       while
         !i < n && (match text.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
       do
         incr i
       done
     in
     let rec members () =
       skip_ws ();
       if !i < n && text.[!i] = '"' then begin
         let key = read_string () in
         skip_ws ();
         if text.[!i] <> ':' then raise Exit;
         incr i;
         skip_ws ();
         let start = !i in
         let depth = ref 0 in
         let stop = ref false in
         while not !stop do
           if !i >= n then raise Exit;
           (match text.[!i] with
            | '"' -> ignore (read_string ()); decr i
            | '{' | '[' -> incr depth
            | '}' | ']' when !depth > 0 -> decr depth
            | ',' when !depth = 0 -> stop := true
            | '}' when !depth = 0 -> stop := true
            | _ -> ());
           if not !stop then incr i
         done;
         let value = String.trim (String.sub text start (!i - start)) in
         sections := (key, value) :: !sections;
         if text.[!i] = ',' then begin
           incr i;
           members ()
         end
       end
     in
     members ()
   with Exit | Invalid_argument _ -> ());
  List.rev !sections

let section_order =
  [ "experiments"; "warm_sweep"; "soak"; "soak_cluster"; "fuse" ]

let write_results path =
  let fresh =
    (if !exp_ran then
       [ ("experiments",
          Printf.sprintf "[%s]" (String.concat "," (List.rev !exp_results))) ]
     else [])
    @ (match !sweep_result with Some s -> [ ("warm_sweep", s) ] | None -> [])
    @ (match !soak_result with Some s -> [ ("soak", s) ] | None -> [])
    @ (match !soak_cluster_result with Some s -> [ ("soak_cluster", s) ] | None -> [])
    @ (match !fuse_result with Some s -> [ ("fuse", s) ] | None -> [])
  in
  (* sections the current run did not produce survive from the existing file *)
  let kept =
    if Sys.file_exists path then
      List.filter
        (fun (k, _) -> not (List.mem_assoc k fresh))
        (split_top_level
           (In_channel.with_open_bin path In_channel.input_all))
    else []
  in
  let all = fresh @ kept in
  let ordered =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k all))
      section_order
    @ List.filter (fun (k, _) -> not (List.mem k section_order)) kept
  in
  let sections =
    List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) v) ordered
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc ("{" ^ String.concat "," sections ^ "}\n"));
  Printf.printf "machine-readable results written to %s\n" path

let run_experiments () =
  exp_ran := true;
  Telemetry.Sink.set Telemetry.Sink.Memory;
  List.iter
    (fun (e : Registry.t) ->
      Telemetry.Metrics.reset ();
      let t0 = Unix.gettimeofday () in
      let report = e.Registry.run () in
      let wall = Unix.gettimeofday () -. t0 in
      print_string report;
      Printf.printf "[%s completed in %.1f s]\n" e.Registry.id wall;
      exp_results :=
        Printf.sprintf "{\"id\":\"%s\",\"wall_s\":%s,\"telemetry\":%s}"
          (json_escape e.Registry.id) (json_float wall)
          (snapshot_json (Telemetry.Metrics.snapshot ()))
        :: !exp_results;
      flush stdout)
    Registry.all;
  Telemetry.Metrics.reset ();
  Telemetry.Sink.set Telemetry.Sink.Null

(* Fault-injected soak of the scheduling daemon: mixed interactive traffic
   against an in-process server with the deterministic fault harness armed
   on the solver sites. Acceptance, per seed:

   - zero wrong-schedule serves: every [Scheduled] layer is re-parsed from
     its wire record and re-certified in exact arithmetic by the harness
     (faults are restricted to solver sites, so server- and harness-side
     certification stay sound while solves are being perturbed);
   - typed overload handling: the load step (more concurrent clients than
     queue slots, tight budgets, three requests in four naming a layer the
     warm-up never cached) must produce typed rejections and no [Failed]
     responses — backpressure degrades monotonically, it never turns into
     silent drops or errors — while its cache hits are answered inline on
     the connection fast path;
   - bounded latency: p95 server-side serve time of admitted requests stays
     within the request SLO (modest slack for the final deadline check);
   - clean drain: shutdown answers everything in flight, accounting
     balances (served + failed + rejected = received), the cache persists,
     and a warm restart serves the soaked shapes back from disk. *)
let soak_seeds = [ 11; 23; 47 ]
let soak_fault_rate = 0.02

let soak_solver_sites =
  [ "simplex.pivot"; "simplex.refactor"; "bb.node"; "sampler.valid"; "cosa.warm" ]

let soak_layers =
  [ "3_56_64_64_1"; "1_56_64_256_1"; "1_56_256_64_1"; "3_28_128_128_1";
    "1_28_128_512_1" ]

(* Suite layers the warm-up never caches: the load step's misses, which
   queue for the solver thread while its hits are answered inline. *)
let soak_cold_layers =
  List.filter_map
    (fun (l : Layer.t) ->
      if List.mem l.Layer.name soak_layers then None else Some l.Layer.name)
    (List.concat_map snd Zoo.suites)

let soak_failures = ref 0

let soak_check cond msg =
  if cond then Printf.printf "  PASS %s\n" msg
  else begin
    Printf.printf "  FAIL %s\n" msg;
    incr soak_failures
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* One mixed-traffic soak round under one fault seed. Returns a JSON
   fragment for the results file. *)
let soak_round seed =
  let tmp = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "cosa_soak_%d_%d" (Unix.getpid ()) seed in
  let cache_dir = Filename.concat tmp tag in
  rm_rf cache_dir;
  let sock = Filename.concat tmp (tag ^ ".sock") in
  let burst_budget = 0.5 and warm_budget = 10. in
  let make_server () =
    let service =
      Serve.Service.config ~strategy:Cosa.Auto ~certify:Cosa.Strict ~node_limit:2_000
        ~time_limit:0.6 ~jobs:2 Spec.baseline
    in
    let admission =
      Daemon.Admission.default_config ~queue_capacity:4 ~shed_delay_s:2.
        ~min_samples:4 ~time_limit:0.6 ()
    in
    Daemon.Server.create
      (Daemon.Server.config ~admission ~default_budget_s:warm_budget
         ~tier:(Serve.Schedule_cache.create ~dir:cache_dir ~capacity:256 ())
         ~socket_path:sock service)
  in
  (* every response any traffic thread sees, for post-hoc verification *)
  let resp_lock = Mutex.create () in
  let responses : (string * float * Daemon.Protocol.response) list ref = ref [] in
  let client_errors = ref 0 in
  let record budget = function
    | Ok resp ->
      Mutex.protect resp_lock (fun () -> responses := ("", budget, resp) :: !responses)
    | Error _ -> Mutex.protect resp_lock (fun () -> incr client_errors)
  in
  let send client budget layer =
    Daemon.Client.request client
      { Daemon.Protocol.client = ""; budget_s = budget; arch = "baseline";
        target = Daemon.Protocol.Layer layer; cache_only = false; req_id = 0L;
        hop = 0 }
  in
  Telemetry.Metrics.reset ();
  let server = make_server () in
  let server_thread = Daemon.Server.start server in
  Daemon.Server.wait_ready server;
  let fired = ref 0 and load_fastpath = ref 0 in
  Robust.Fault.with_faults ~rate:soak_fault_rate ~only:soak_solver_sites seed
    (fun () ->
      (* warmup: generous budgets, populates cache and cost estimator *)
      (match Daemon.Client.connect sock with
       | Error e -> failwith ("soak: cannot connect: " ^ e)
       | Ok c ->
         List.iter (fun l -> record warm_budget (send c warm_budget l)) soak_layers;
         List.iter (fun l -> record warm_budget (send c warm_budget l)) soak_layers;
         Daemon.Client.close c);
      (* load step: 8 concurrent clients vs 4 queue slots, tight budgets;
         every fourth request names a cached layer, the rest are misses *)
      let fastpath_before = (Daemon.Server.stats server).Daemon.Server.fastpath_served in
      let burst_threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                match Daemon.Client.connect sock with
                | Error _ -> Mutex.protect resp_lock (fun () -> incr client_errors)
                | Ok c ->
                  let rng = Prim.Rng.create ((seed * 31) + i) in
                  for j = 1 to 8 do
                    let layers = if j mod 4 = 0 then soak_layers else soak_cold_layers in
                    record burst_budget (send c burst_budget (Prim.Rng.pick rng layers))
                  done;
                  Daemon.Client.close c)
              ())
      in
      List.iter Thread.join burst_threads;
      load_fastpath :=
        (Daemon.Server.stats server).Daemon.Server.fastpath_served - fastpath_before;
      (* recovery after the step: a generous request must be admitted again *)
      (match Daemon.Client.connect sock with
       | Error e -> failwith ("soak: cannot reconnect: " ^ e)
       | Ok c ->
         record warm_budget (send c warm_budget (List.hd soak_layers));
         Daemon.Client.close c);
      fired := Robust.Fault.fired_count ());
  let fired = !fired and load_fastpath = !load_fastpath in
  Daemon.Server.shutdown server;
  Thread.join server_thread;
  let s = Daemon.Server.stats server in
  (* ---- verification (faults disarmed) ---- *)
  let all = !responses in
  let scheduled =
    List.filter_map
      (fun (_, b, r) ->
        match r with Daemon.Protocol.Scheduled x -> Some (b, x) | _ -> None)
      all
  in
  let rejected =
    List.length
      (List.filter (function _, _, Daemon.Protocol.Rejected _ -> true | _ -> false) all)
  in
  let failed =
    List.length
      (List.filter (function _, _, Daemon.Protocol.Failed _ -> true | _ -> false) all)
  in
  (* zero wrong-schedule serves: re-parse and re-certify every response *)
  let wrong = ref 0 in
  List.iter
    (fun (_, (x : Daemon.Protocol.scheduled)) ->
      List.iter
        (fun (l : Daemon.Protocol.served_layer) ->
          if l.Daemon.Protocol.verdict <> "ok" then incr wrong
          else
            match Mapping_io.record_of_string l.Daemon.Protocol.record with
            | Error _ -> incr wrong
            | Ok (_, mapping) ->
              (match Certify.Mapping_cert.check Spec.baseline mapping with
               | Certify.Certificate.Certified -> ()
               | Certify.Certificate.Violated _ -> incr wrong))
        x.Daemon.Protocol.layers)
    scheduled;
  let burst_serve =
    List.filter_map
      (fun (b, (x : Daemon.Protocol.scheduled)) ->
        if b = burst_budget then Some x.Daemon.Protocol.serve_s else None)
      scheduled
  in
  let p95_burst =
    match burst_serve with [] -> 0. | l -> Prim.Stats.percentile 95. l
  in
  Printf.printf
    "seed %d: %d responses (%d scheduled, %d rejected, %d failed), %d faults fired, \
     p95 burst serve %.3fs, %d load-step fast-path hits, drain persisted %d\n"
    seed (List.length all) (List.length scheduled) rejected failed fired p95_burst
    load_fastpath s.Daemon.Server.persisted;
  soak_check (fired > 0) "faults actually fired during the soak";
  soak_check (!wrong = 0) "zero wrong-schedule serves (all responses re-certified)";
  soak_check (failed = 0) "no Failed responses under fault-injected overload";
  soak_check (!client_errors = 0) "no client-side protocol errors";
  soak_check (rejected > 0) "load step produced typed rejections (backpressure)";
  soak_check (load_fastpath > 0) "load step served cache hits on the connection fast path";
  soak_check
    (s.Daemon.Server.rejected_queue_full + s.Daemon.Server.rejected_shedding
     + s.Daemon.Server.rejected_deadline > 0)
    "server counted its rejections by reason";
  soak_check
    (p95_burst <= (burst_budget *. 1.25) +. 0.1)
    "p95 serve time of admitted burst requests within SLO";
  soak_check
    (s.Daemon.Server.served + s.Daemon.Server.failed
     + s.Daemon.Server.rejected_queue_full + s.Daemon.Server.rejected_quota
     + s.Daemon.Server.rejected_shedding + s.Daemon.Server.rejected_deadline
    = s.Daemon.Server.received)
    "drain accounting balances (every request answered exactly once)";
  soak_check (s.Daemon.Server.persisted > 0) "drain persisted the schedule cache";
  (match all with
   | (_, _, Daemon.Protocol.Scheduled _) :: _ ->
     (* responses are newest-first: the post-step generous request *)
     soak_check true "server recovered after the load step"
   | _ -> soak_check false "server recovered after the load step");
  (* warm restart: the drained cache must serve the soaked shapes back *)
  let server2 = make_server () in
  let t2 = Daemon.Server.start server2 in
  Daemon.Server.wait_ready server2;
  let from_cache = ref 0 and restart_wrong = ref 0 in
  (match Daemon.Client.connect sock with
   | Error e -> failwith ("soak: restart connect: " ^ e)
   | Ok c ->
     List.iter
       (fun l ->
         match send c warm_budget l with
         | Ok (Daemon.Protocol.Scheduled x) ->
           List.iter
             (fun (sl : Daemon.Protocol.served_layer) ->
               if String.length sl.Daemon.Protocol.origin >= 5
                  && String.sub sl.Daemon.Protocol.origin 0 5 = "cache"
               then incr from_cache;
               if sl.Daemon.Protocol.verdict <> "ok" then incr restart_wrong)
             x.Daemon.Protocol.layers
         | _ -> incr restart_wrong)
       soak_layers;
     Daemon.Client.close c);
  Daemon.Server.shutdown server2;
  Thread.join t2;
  soak_check
    (!from_cache = List.length soak_layers && !restart_wrong = 0)
    "warm restart served every soaked shape from the persisted cache";
  rm_rf cache_dir;
  (* satellite: the round's final telemetry snapshot (counters reset at
     round start) rides into BENCH_results.json next to the checks *)
  Printf.sprintf
    "{\"seed\":%d,\"responses\":%d,\"scheduled\":%d,\"rejected\":%d,\"failed\":%d,\
     \"faults_fired\":%d,\"p95_burst_s\":%s,\"load_fastpath\":%d,\"persisted\":%d,\
     \"wrong\":%d,\"restart_from_cache\":%d,\"telemetry\":%s}"
    seed (List.length all) (List.length scheduled) rejected failed fired
    (json_float p95_burst) load_fastpath s.Daemon.Server.persisted !wrong !from_cache
    (Telemetry.Export.metrics_json (Telemetry.Metrics.snapshot ()))

let soak_benchmarks () =
  print_newline ();
  print_endline "Daemon soak: fault-injected mixed traffic, typed backpressure, drain";
  print_endline "====================================================================";
  Telemetry.Sink.set Telemetry.Sink.Null;
  let rounds = List.map soak_round soak_seeds in
  soak_result :=
    Some
      (Printf.sprintf "{\"fault_rate\":%s,\"rounds\":[%s]}"
         (json_float soak_fault_rate)
         (String.concat "," rounds));
  if !soak_failures > 0 then begin
    Printf.printf "soak: %d acceptance checks FAILED\n" !soak_failures;
    write_results "BENCH_results.json";
    exit 1
  end;
  flush stdout

(* ---- multi-process cluster soak --------------------------------------- *)
(* Chaos soak of the fault-tolerant multi-host tier. Two parts:

   [A] In-process: a daemon on the sharded, thread-safe cache tier must
   answer cache hits inline on connection threads while the (single)
   solver thread is pinned by a cold solve — cache throughput is no
   longer serialized through the solver — and the hits must spread over
   multiple shards.

   [B] Multi-process, per fault seed: two [cosa_cli serve] processes are
   spawned (exec'd, never forked — the bench parent has run threads) on
   TCP with cross-wired --peer lists and network+solver fault injection;
   one of them opts into crash-exit faults. After warming one server, the
   other must serve via its warm peer ("cache(peer)"); a mixed-budget
   threaded load using client failover then survives a SIGKILL of the
   crashy server with zero terminal transport errors, typed rejections
   from cache-only probes of a cold shape, and zero wrong-schedule serves
   (every response re-certified in exact arithmetic here, in the
   parent). The killed server restarts on its persisted cache and serves
   everything all-cache; both survivors drain cleanly; shard files land
   where the content-addressed placement says they must. *)

let cluster_seeds = [ 101; 202; 303 ]
let cluster_fault_rate = 0.02

(* A and B keep the non-fatal network faults (plus solver faults); the
   crash-exit site is exercised by a dedicated server C at a high rate so
   the crash is (near-)certain rather than seed-luck, and the deliberate
   peer-kill of B stays a SIGKILL. *)
let cluster_fault_sites =
  String.concat ","
    [ "simplex.pivot"; "bb.node"; "sampler.valid"; "cosa.warm"; "net.conn_reset";
      "net.partial_frame"; "net.slow_peer" ]

let cluster_layers = soak_layers

(* never warmed: a cache-only probe for it is a guaranteed typed rejection *)
let cluster_cold_layer = "fc1000"
let cluster_slow_layer = "ocr_3072_1500_1024"
let cluster_shards = 4

let cli_binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "cosa_cli.exe"))

(* Requests at a generous budget run at the Joint rung, and fresh solves
   are stored under the solving strategy's key — so placement predictions
   use the Joint fingerprint. *)
let cluster_joint_fp =
  let service =
    lazy (Serve.Service.config ~strategy:Cosa.Joint ~certify:Cosa.Strict Spec.baseline)
  in
  fun name -> Serve.Service.request_fingerprint (Lazy.force service) (Zoo.find name)

(* mirrors Serve.Schedule_cache's content-addressed placement *)
let cluster_shard_of fp =
  int_of_string ("0x" ^ String.sub (Serve.Fingerprint.hash fp) 0 8) mod cluster_shards

let rec find_sub s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_sub s sub (i + 1)

let contains s sub = find_sub s sub 0 <> None

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* First integer after [name] in [text]; 0 when absent (the metrics report
   omits zero counters). *)
let counter_in_log text name =
  match find_sub text name 0 with
  | None -> 0
  | Some i ->
    let n = String.length text in
    let j = ref (i + String.length name) in
    while !j < n && not (text.[!j] >= '0' && text.[!j] <= '9') do incr j done;
    let k = ref !j in
    while !k < n && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
    if !j < n then int_of_string (String.sub text !j (!k - !j)) else 0

let alloc_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close s;
  port

let spawn_server ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process cli_binary (Array.of_list (cli_binary :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let wait_tcp port ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match
      Daemon.Client.connect_ep ~timeout_s:0.5 (Daemon.Client.Tcp ("127.0.0.1", port))
    with
    | Ok c ->
      Daemon.Client.close c;
      true
    | Error _ ->
      if Unix.gettimeofday () -. t0 > timeout_s then false
      else begin
        Thread.delay 0.1;
        go ()
      end
  in
  go ()

let term_and_wait pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error _ -> Unix.WEXITED 127

let serve_args ?(rate = cluster_fault_rate) ?(sites = cluster_fault_sites) ~sock
    ~port ~peer_port ~cache_dir ~seed ~crash ~faults () =
  [ "serve"; "--socket"; sock; "--tcp"; Printf.sprintf "127.0.0.1:%d" port;
    "--cache-dir"; cache_dir; "--shards"; string_of_int cluster_shards;
    "--cache-size"; "64"; "--peer"; Printf.sprintf "127.0.0.1:%d" peer_port;
    "--certify"; "strict"; "--strategy"; "auto"; "--time-limit"; "0.6"; "--jobs"; "2";
    "--queue-capacity"; "8"; "--default-budget"; "10"; "--node-limit"; "2000";
    "--metrics" ]
  @ (if faults then
       [ "--fault-seed"; string_of_int seed; "--fault-rate"; string_of_float rate;
         "--fault-sites"; sites ]
     else [])
  @ if crash then [ "--fault-crash" ] else []

(* [A] sharded tier: cache hits bypass the busy solver thread. *)
let cluster_fastpath_check () =
  print_endline "  [A] sharded cache tier: hits answer while the solver is busy";
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosa_cluster_fp_%d.sock" (Unix.getpid ()))
  in
  let sharded = Serve.Schedule_cache.create ~capacity:64 ~shards:cluster_shards () in
  let service =
    Serve.Service.config ~strategy:Cosa.Auto ~certify:Cosa.Strict ~node_limit:2_000
      ~time_limit:1.5 ~jobs:1 Spec.baseline
  in
  let admission =
    Daemon.Admission.default_config ~queue_capacity:16 ~min_samples:4 ~time_limit:1.5 ()
  in
  let server =
    Daemon.Server.create
      (Daemon.Server.config ~admission ~default_budget_s:10.
         ~tier:sharded ~socket_path:sock service)
  in
  let th = Daemon.Server.start server in
  Daemon.Server.wait_ready server;
  let req ?(cache_only = false) layer =
    { Daemon.Protocol.client = ""; budget_s = 10.; arch = "baseline";
      target = Daemon.Protocol.Layer layer; cache_only; req_id = 0L; hop = 0 }
  in
  List.iter
    (fun l -> ignore (Daemon.Server.process_request server (req l)))
    cluster_layers;
  let slow_wall = ref 0. in
  let slow =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        ignore (Daemon.Server.process_request server (req cluster_slow_layer));
        slow_wall := Unix.gettimeofday () -. t0)
      ()
  in
  Thread.delay 0.1;
  let wl = Mutex.create () in
  let walls = ref [] and not_cached = ref 0 in
  let threads =
    List.init 12 (fun i ->
        Thread.create
          (fun () ->
            let layer = List.nth cluster_layers (i mod List.length cluster_layers) in
            let t0 = Unix.gettimeofday () in
            let r = Daemon.Server.process_request server (req ~cache_only:true layer) in
            let dt = Unix.gettimeofday () -. t0 in
            Mutex.protect wl (fun () ->
                walls := dt :: !walls;
                match r with
                | Daemon.Protocol.Scheduled _ -> ()
                | _ -> incr not_cached))
          ())
  in
  List.iter Thread.join threads;
  Thread.join slow;
  Daemon.Server.shutdown server;
  Thread.join th;
  let max_wall = List.fold_left Float.max 0. !walls in
  let stats = Daemon.Server.stats server in
  let shard_hits =
    List.init cluster_shards (fun i ->
        let st = Serve.Schedule_cache.shard_stats sharded i in
        st.Serve.Schedule_cache.hits + st.Serve.Schedule_cache.disk_hits)
  in
  let shards_hit = List.length (List.filter (fun h -> h > 0) shard_hits) in
  soak_check (!not_cached = 0) "[A] all 12 concurrent cache-only probes hit";
  soak_check (!slow_wall > 0.3) "[A] cold solve pinned the solver thread meanwhile";
  soak_check
    (max_wall < 0.75 *. !slow_wall)
    "[A] cache hits were not serialized behind the solver thread";
  soak_check
    (stats.Daemon.Server.fastpath_served >= 12)
    "[A] hits were served on the connection fast path";
  soak_check (shards_hit >= 2) "[A] hits spread across multiple shards";
  Printf.sprintf
    "{\"slow_wall_s\":%s,\"max_hit_wall_s\":%s,\"fastpath_served\":%d,\
     \"shard_hits\":[%s]}"
    (json_float !slow_wall) (json_float max_wall) stats.Daemon.Server.fastpath_served
    (String.concat "," (List.map string_of_int shard_hits))

(* [B] one two-process chaos round under one fault seed. *)
let cluster_round seed =
  Printf.printf "  [B] chaos round, seed %d\n%!" seed;
  let tmp = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "cosa_cluster_%d_%d" (Unix.getpid ()) seed in
  let cache_a = Filename.concat tmp (tag ^ "_a") in
  let cache_b = Filename.concat tmp (tag ^ "_b") in
  rm_rf cache_a;
  rm_rf cache_b;
  let sock_a = Filename.concat tmp (tag ^ "_a.sock") in
  let sock_b = Filename.concat tmp (tag ^ "_b.sock") in
  let log_a = Filename.concat tmp (tag ^ "_a.log") in
  let log_b = Filename.concat tmp (tag ^ "_b.log") in
  let log_b2 = Filename.concat tmp (tag ^ "_b2.log") in
  let port_a = alloc_port () and port_b = alloc_port () in
  let ep_a = Daemon.Client.Tcp ("127.0.0.1", port_a) in
  let ep_b = Daemon.Client.Tcp ("127.0.0.1", port_b) in
  let pid_a =
    spawn_server ~log:log_a
      (serve_args ~sock:sock_a ~port:port_a ~peer_port:port_b ~cache_dir:cache_a ~seed
         ~crash:false ~faults:true ())
  in
  let pid_b =
    spawn_server ~log:log_b
      (serve_args ~sock:sock_b ~port:port_b ~peer_port:port_a ~cache_dir:cache_b
         ~seed:(seed + 1) ~crash:false ~faults:true ())
  in
  soak_check (wait_tcp port_a ~timeout_s:20.) "[B] server A listening on TCP";
  soak_check (wait_tcp port_b ~timeout_s:20.) "[B] server B listening on TCP";
  let resp_lock = Mutex.create () in
  let transport_errors = ref 0
  and failed = ref 0
  and rejected = ref 0
  and peer_served = ref 0 in
  let scheduled : Daemon.Protocol.scheduled list ref = ref [] in
  let send ?(cache_only = false) ~endpoints layer =
    let r =
      Daemon.Client.request_failover ~retries:4 ~backoff_s:0.05 ~timeout_s:10.
        ~endpoints
        { Daemon.Protocol.client = ""; budget_s = 10.; arch = "baseline";
          target = Daemon.Protocol.Layer layer; cache_only; req_id = 0L; hop = 0 }
    in
    Mutex.protect resp_lock (fun () ->
        match r with
        | Error _ | Ok (Daemon.Protocol.Stats _) -> incr transport_errors
        | Ok (Daemon.Protocol.Failed _) -> incr failed
        | Ok (Daemon.Protocol.Rejected _) -> incr rejected
        | Ok (Daemon.Protocol.Scheduled x) ->
          scheduled := x :: !scheduled;
          List.iter
            (fun (l : Daemon.Protocol.served_layer) ->
              if l.Daemon.Protocol.origin = "cache(peer)" then incr peer_served)
            x.Daemon.Protocol.layers)
  in
  (* phase 1: warm A (generous budgets: Joint solves, write-through stores) *)
  List.iter (fun l -> send ~endpoints:[ ep_a ] l) cluster_layers;
  (* phase 2: B answers the same shapes via its warm peer *)
  List.iter (fun l -> send ~endpoints:[ ep_b; ep_a ] l) cluster_layers;
  let peer_after_warm = Mutex.protect resp_lock (fun () -> !peer_served) in
  (* phase 3a: a crash-exit server C joins and dies by an injected
     net.peer_crash mid-response (rate 0.9 makes the crash near-certain);
     the client's failover absorbs the torn frame *)
  let cache_c = Filename.concat tmp (tag ^ "_c") in
  rm_rf cache_c;
  let sock_c = Filename.concat tmp (tag ^ "_c.sock") in
  let log_c = Filename.concat tmp (tag ^ "_c.log") in
  let port_c = alloc_port () in
  let ep_c = Daemon.Client.Tcp ("127.0.0.1", port_c) in
  let pid_c =
    spawn_server ~log:log_c
      (serve_args ~sock:sock_c ~port:port_c ~peer_port:port_a ~cache_dir:cache_c
         ~seed:(seed + 2) ~crash:true ~faults:true ~rate:0.9 ~sites:"net.peer_crash" ())
  in
  soak_check (wait_tcp port_c ~timeout_s:20.) "[B] crash-exit server C listening";
  for _ = 1 to 6 do
    send ~cache_only:true ~endpoints:[ ep_c; ep_a ] cluster_cold_layer
  done;
  let st_c =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] pid_c with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid_c Sys.sigkill with Unix.Unix_error _ -> ());
          snd (Unix.waitpid [] pid_c)
        end
        else begin
          Thread.delay 0.05;
          reap ()
        end
      | _, st -> st
      | exception Unix.Unix_error _ -> Unix.WEXITED 127
    in
    reap ()
  in
  soak_check
    (st_c = Unix.WEXITED 42)
    "[B] injected peer-crash tore server C down mid-response (exit 42)";
  (* phase 3b: mixed threaded load with failover; SIGKILL B mid-load *)
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.4;
        try Unix.kill pid_b Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  let load =
    List.init 6 (fun i ->
        Thread.create
          (fun () ->
            let rng = Prim.Rng.create ((seed * 131) + i) in
            for j = 1 to 6 do
              let endpoints =
                if (i + j) mod 2 = 0 then [ ep_a; ep_b ] else [ ep_b; ep_a ]
              in
              if j mod 3 = 0 then send ~cache_only:true ~endpoints cluster_cold_layer
              else send ~endpoints (Prim.Rng.pick rng cluster_layers);
              Thread.delay 0.05
            done)
          ())
  in
  List.iter Thread.join load;
  Thread.join killer;
  (try ignore (Unix.waitpid [] pid_b) with Unix.Unix_error _ -> ());
  (* phase 4: restart B on its persisted cache, no faults *)
  let pid_b2 =
    spawn_server ~log:log_b2
      (serve_args ~sock:sock_b ~port:port_b ~peer_port:port_a ~cache_dir:cache_b
         ~seed:0 ~crash:false ~faults:false ())
  in
  soak_check
    (wait_tcp port_b ~timeout_s:20.)
    "[B] killed server restarted on its persisted cache";
  let restart_cache = ref 0 and restart_bad = ref 0 in
  List.iter
    (fun l ->
      match
        Daemon.Client.request_failover ~retries:4 ~backoff_s:0.05 ~timeout_s:10.
          ~endpoints:[ ep_b ]
          { Daemon.Protocol.client = ""; budget_s = 10.; arch = "baseline";
            target = Daemon.Protocol.Layer l; cache_only = false; req_id = 0L;
            hop = 0 }
      with
      | Ok (Daemon.Protocol.Scheduled x) ->
        Mutex.protect resp_lock (fun () -> scheduled := x :: !scheduled);
        List.iter
          (fun (sl : Daemon.Protocol.served_layer) ->
            if
              String.length sl.Daemon.Protocol.origin >= 5
              && String.sub sl.Daemon.Protocol.origin 0 5 = "cache"
            then incr restart_cache
            else incr restart_bad;
            if sl.Daemon.Protocol.verdict <> "ok" then incr restart_bad)
          x.Daemon.Protocol.layers
      | _ -> incr restart_bad)
    cluster_layers;
  (* live introspection over the wire before the drain: each surviving
     daemon's final stats snapshot rides into BENCH_results.json *)
  let live_snapshot ep =
    match Daemon.Client.stats_ep ~timeout_s:5. ep Daemon.Protocol.Stats_full with
    | Ok payload -> payload
    | Error _ -> "null"
  in
  let snap_a = live_snapshot ep_a in
  let snap_b2 = live_snapshot ep_b in
  soak_check
    (contains snap_a "\"snapshot_version\"" && contains snap_a "\"shards\"")
    "[B] server A answered a live stats snapshot (with shard sections)";
  soak_check
    (contains snap_b2 "\"snapshot_version\"")
    "[B] restarted server B answered a live stats snapshot";
  (* drains *)
  let st_a = term_and_wait pid_a in
  let st_b2 = term_and_wait pid_b2 in
  let text_a = read_file log_a in
  let text_b2 = read_file log_b2 in
  (* re-certify every scheduled record: zero wrong serves, ever *)
  let wrong = ref 0 in
  List.iter
    (fun (x : Daemon.Protocol.scheduled) ->
      List.iter
        (fun (l : Daemon.Protocol.served_layer) ->
          if l.Daemon.Protocol.verdict <> "ok" then incr wrong
          else
            match Mapping_io.record_of_string l.Daemon.Protocol.record with
            | Error _ -> incr wrong
            | Ok (_, mapping) ->
              (match Certify.Mapping_cert.check Spec.baseline mapping with
               | Certify.Certificate.Certified -> ()
               | Certify.Certificate.Violated _ -> incr wrong))
        x.Daemon.Protocol.layers)
    !scheduled;
  (* content-addressed placement: every warmed layer's record must sit in
     its owning shard directory on A *)
  let shards_used = Hashtbl.create 8 in
  let missing =
    List.filter
      (fun name ->
        let fp = cluster_joint_fp name in
        let sh = cluster_shard_of fp in
        Hashtbl.replace shards_used sh ();
        not
          (Sys.file_exists
             (Filename.concat cache_a
                (Filename.concat
                   (Printf.sprintf "shard-%02d" sh)
                   (Serve.Fingerprint.hash fp ^ ".cosa")))))
      cluster_layers
  in
  let b_files =
    List.init cluster_shards (fun i ->
        let d = Filename.concat cache_b (Printf.sprintf "shard-%02d" i) in
        match Sys.readdir d with
        | entries ->
          Array.fold_left
            (fun acc e -> if Filename.check_suffix e ".cosa" then acc + 1 else acc)
            0 entries
        | exception Sys_error _ -> 0)
    |> List.fold_left ( + ) 0
  in
  soak_check (!transport_errors = 0)
    "[B] zero terminal transport errors (failover absorbed the kill)";
  soak_check (!failed = 0) "[B] no Failed responses";
  soak_check (!rejected > 0) "[B] cache-only probes of a cold shape typed-rejected";
  soak_check (peer_after_warm > 0) "[B] warm peer served cache(peer) hits";
  soak_check (!wrong = 0) "[B] zero wrong-schedule serves (all re-certified)";
  soak_check
    (!restart_cache = List.length cluster_layers && !restart_bad = 0)
    "[B] restarted server answered every shape all-cache";
  soak_check (st_a = Unix.WEXITED 0) "[B] server A drained with exit 0";
  soak_check (st_b2 = Unix.WEXITED 0) "[B] restarted server B drained with exit 0";
  soak_check (contains text_a "drained:") "[B] A printed its drain summary";
  soak_check (contains text_b2 "drained:") "[B] restarted B printed its drain summary";
  soak_check (counter_in_log text_a "faults fired:" > 0) "[B] faults fired on A";
  soak_check (missing = []) "[B] every warmed layer persisted in its owning shard";
  soak_check (Hashtbl.length shards_used >= 2) "[B] warmed layers span multiple shards";
  soak_check (b_files > 0) "[B] SIGKILLed B left write-through shard files behind";
  let peer_probes_b2 = counter_in_log text_b2 "cluster.peer_probes" in
  let frag =
    Printf.sprintf
      "{\"seed\":%d,\"scheduled\":%d,\"rejected\":%d,\"failed\":%d,\
       \"transport_errors\":%d,\"peer_served\":%d,\"wrong\":%d,\
       \"restart_all_cache\":%b,\"a_faults_fired\":%d,\"b_shard_files\":%d,\
       \"b2_peer_probes\":%d,\"a_snapshot\":%s,\"b2_snapshot\":%s}"
      seed
      (List.length !scheduled)
      !rejected !failed !transport_errors !peer_served !wrong
      (!restart_cache = List.length cluster_layers && !restart_bad = 0)
      (counter_in_log text_a "faults fired:")
      b_files peer_probes_b2 snap_a snap_b2
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ sock_a; sock_b; sock_c; log_a; log_b; log_b2; log_c ];
  rm_rf cache_a;
  rm_rf cache_b;
  rm_rf cache_c;
  frag

let soak_cluster_benchmarks ?only_seed () =
  print_newline ();
  print_endline
    "Cluster soak: sharded cache, TCP failover, warm peers, network faults";
  print_endline
    "=====================================================================";
  if not (Sys.file_exists cli_binary) then begin
    Printf.printf
      "  SKIP cluster soak: %s not built (run `dune build bin/cosa_cli.exe`)\n"
      cli_binary;
    soak_cluster_result := Some "{\"skipped\":true}"
  end
  else begin
    (* the parent's own telemetry captures the client-side counters *)
    Telemetry.Sink.set Telemetry.Sink.Memory;
    Telemetry.Metrics.reset ();
    let fastpath = cluster_fastpath_check () in
    let seeds =
      match only_seed with Some s -> [ s ] | None -> cluster_seeds
    in
    let rounds = List.map cluster_round seeds in
    let snap = Telemetry.Metrics.snapshot () in
    let failovers = Telemetry.Metrics.counter_value snap "cluster.failovers" in
    soak_check (failovers > 0) "[B] client failed over after the peer kill";
    soak_cluster_result :=
      Some
        (Printf.sprintf
           "{\"fault_rate\":%s,\"fastpath\":%s,\"rounds\":[%s],\
            \"client_telemetry\":%s}"
           (json_float cluster_fault_rate) fastpath (String.concat "," rounds)
           (snapshot_json snap));
    Telemetry.Metrics.reset ();
    Telemetry.Sink.set Telemetry.Sink.Null;
    if !soak_failures > 0 then begin
      Printf.printf "cluster soak: %d acceptance checks FAILED\n" !soak_failures;
      write_results "BENCH_results.json";
      exit 1
    end
  end;
  flush stdout

(* Cross-layer fusion sweep: the lib/fuse acceptance gate.

   Plans every derived chain of the fusion-candidate networks and of full
   ResNet-50 under the Chains mode, then:

   - re-certifies every fused group here, in the bench, by rebuilding the
     claim from the plan and replaying it through Certify.Fuse_cert (the
     planner already refuses to serve an uncertified fusion; this check
     makes the bench independently sure of it);
   - gates the designated ResNet-50 chains (the deep stem and the conv2_x
     bottleneck block) on >= 20% off-chip savings vs the independent
     per-layer sum;
   - validates the claimed savings through the cycle-level banked DRAM
     model: the fused and independent access traces of the bottleneck
     block are replayed through Dram_model and the fused stream must keep
     the DRAM busy for strictly fewer cycles. *)

let fuse_gate_pct = 20.

(* Replay a transfer trace through the FR-FCFS DRAM model. Transfers
   become 64 B burst requests walking consecutive rows of their region
   (regions are spread far apart so distinct tensors never share a row);
   pacing keeps a bounded number of requests outstanding, like the NoC
   front end would. One word = one byte (the quantized DRAM format of the
   8-bit tensors); both traces use the same convention, so the comparison
   is apples-to-apples. *)
let dram_replay (arch : Spec.t) (transfers : Fuse.Plan.transfer list) =
  let d = Dram_model.create arch.Spec.dram in
  let row_bytes = arch.Spec.dram.Spec.row_bytes in
  let burst = arch.Spec.dram.Spec.burst_bytes in
  let cursors = Hashtbl.create 16 in
  let outstanding = ref 0 in
  let drain_to limit =
    while !outstanding > limit do
      Dram_model.step d;
      outstanding := !outstanding - List.length (Dram_model.completed d)
    done
  in
  List.iter
    (fun (t : Fuse.Plan.transfer) ->
      let base = t.Fuse.Plan.t_region * 1_048_576 in
      let cur = try Hashtbl.find cursors t.Fuse.Plan.t_region with Not_found -> 0 in
      let bytes = ref t.Fuse.Plan.t_words and off = ref cur in
      while !bytes > 0 do
        let b = min burst !bytes in
        ignore (Dram_model.request d ~bytes:b ~row:(base + (!off / row_bytes)));
        incr outstanding;
        drain_to 32;
        bytes := !bytes - b;
        off := !off + b
      done;
      Hashtbl.replace cursors t.Fuse.Plan.t_region !off)
    transfers;
  drain_to 0;
  (Dram_model.total_busy_cycles d, Dram_model.row_hit_count d,
   Dram_model.row_miss_count d)

let fuse_benchmarks () =
  print_newline ();
  print_endline "Cross-layer fusion: certified fused vs independent off-chip traffic";
  print_endline "===================================================================";
  soak_failures := 0;
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Telemetry.Metrics.reset ();
  let arch = Spec.baseline in
  (* (network, gated): gated networks are the designated ResNet-50 chains
     the >= 20% acceptance criterion applies to *)
  let nets =
    [ (Network.resnet50_stem, true); (Network.resnet50_block, true);
      (Network.resnet50, false) ]
  in
  let recert_failures = ref 0 in
  let net_frags =
    List.map
      (fun ((net : Network.t), gated) ->
        let plan = Fuse.Plan.plan_network ~mode:Fuse.Plan.Chains arch net in
        print_string (Fuse.Plan.network_plan_to_string plan);
        let fused, degraded =
          List.partition
            (fun (gp : Fuse.Plan.group_plan) ->
              match gp.Fuse.Plan.g_outcome with
              | Fuse.Plan.Fused _ -> true
              | Fuse.Plan.Independent _ -> false)
            plan.Fuse.Plan.p_groups
        in
        (* independent bench-side re-certification of every fused group *)
        List.iter
          (fun (gp : Fuse.Plan.group_plan) ->
            match gp.Fuse.Plan.g_outcome with
            | Fuse.Plan.Independent _ -> ()
            | Fuse.Plan.Fused f ->
              let keep = Array.of_list f.Fuse.Plan.f_keep in
              let wres = Array.of_list f.Fuse.Plan.f_wres in
              let claim =
                {
                  Certify.Fuse_cert.f_arch = arch;
                  f_members =
                    List.mapi
                      (fun j l ->
                        { Certify.Fuse_cert.m_layer = l;
                          m_keep_output =
                            j < Array.length keep && keep.(j);
                          m_weights_resident = wres.(j) })
                      gp.Fuse.Plan.g_group.Fuse.Chain.members;
                  f_bands = f.Fuse.Plan.f_bands;
                  f_gb_reserve_bytes = f.Fuse.Plan.f_gb_reserve_bytes;
                  f_peak_gb_bytes = f.Fuse.Plan.f_peak_gb_bytes;
                  f_dram_words = f.Fuse.Plan.f_dram_words;
                }
              in
              (match Certify.Fuse_cert.check claim with
               | Certify.Certificate.Certified -> ()
               | Certify.Certificate.Violated _ -> incr recert_failures))
          plan.Fuse.Plan.p_groups;
        (* savings over the chain-covered subset *)
        let chain_ind =
          List.fold_left
            (fun acc (gp : Fuse.Plan.group_plan) ->
              acc + (gp.Fuse.Plan.g_group.Fuse.Chain.count * gp.Fuse.Plan.g_independent_words))
            0 plan.Fuse.Plan.p_groups
        in
        let chain_saved =
          List.fold_left
            (fun acc gp ->
              acc
              + (gp.Fuse.Plan.g_group.Fuse.Chain.count * Fuse.Plan.group_savings gp))
            0 plan.Fuse.Plan.p_groups
        in
        let savings_pct =
          if chain_ind = 0 then 0.
          else 100. *. float_of_int chain_saved /. float_of_int chain_ind
        in
        Printf.printf "%s chains: %.1f%% off-chip savings%s\n\n" net.Network.nname
          savings_pct
          (if gated then Printf.sprintf " (acceptance: >= %.0f%%)" fuse_gate_pct
           else "");
        soak_check
          (List.length fused >= 1)
          (Printf.sprintf "%s: at least one chain fused" net.Network.nname);
        if gated then
          soak_check (savings_pct >= fuse_gate_pct)
            (Printf.sprintf "%s: fused off-chip >= %.0f%% below independent"
               net.Network.nname fuse_gate_pct);
        Printf.sprintf
          "{\"name\":\"%s\",\"groups\":%d,\"fused\":%d,\"degraded\":%d,\
           \"chain_independent_words\":%d,\"chain_fused_words\":%d,\
           \"savings_pct\":%s,\"network_independent_words\":%d,\
           \"network_fused_words\":%d,\"gated\":%b}"
          (json_escape net.Network.nname)
          (List.length plan.Fuse.Plan.p_groups)
          (List.length fused) (List.length degraded) chain_ind
          (chain_ind - chain_saved) (json_float savings_pct)
          plan.Fuse.Plan.p_independent_dram_words plan.Fuse.Plan.p_fused_dram_words
          gated)
      nets
  in
  soak_check (!recert_failures = 0)
    "every served fused schedule re-certified in exact arithmetic";
  (* DRAM-model validation on the bottleneck block *)
  let block_plan =
    Fuse.Plan.plan_network ~mode:Fuse.Plan.Chains arch Network.resnet50_block
  in
  let dram_frag =
    match block_plan.Fuse.Plan.p_groups with
    | ({ Fuse.Plan.g_outcome = Fuse.Plan.Fused f; g_group; _ } as _gp) :: _ ->
      let fused_busy, fh, fm =
        dram_replay arch (Fuse.Plan.fused_trace g_group f)
      in
      let ind_busy, ih, im = dram_replay arch (Fuse.Plan.independent_trace g_group) in
      Printf.printf
        "DRAM model (bottleneck block): independent %d busy cycles (%d hits/%d \
         misses), fused %d busy cycles (%d hits/%d misses)\n"
        ind_busy ih im fused_busy fh fm;
      soak_check (fused_busy < ind_busy)
        "DRAM model: fused stream strictly fewer busy cycles than independent";
      Printf.sprintf
        "{\"independent_busy_cycles\":%d,\"fused_busy_cycles\":%d,\
         \"independent_row_hits\":%d,\"independent_row_misses\":%d,\
         \"fused_row_hits\":%d,\"fused_row_misses\":%d}"
        ind_busy fused_busy ih im fh fm
    | _ ->
      soak_check false "DRAM model: bottleneck block produced a fused plan";
      "{}"
  in
  fuse_result :=
    Some
      (Printf.sprintf
         "{\"gate_pct\":%s,\"networks\":[%s],\"dram_sim\":%s,\"telemetry\":%s}"
         (json_float fuse_gate_pct)
         (String.concat "," net_frags)
         dram_frag
         (snapshot_json (Telemetry.Metrics.snapshot ())));
  Telemetry.Metrics.reset ();
  Telemetry.Sink.set Telemetry.Sink.Null;
  if !soak_failures > 0 then begin
    Printf.printf "fuse: %d acceptance checks FAILED\n" !soak_failures;
    write_results "BENCH_results.json";
    exit 1
  end;
  flush stdout

(* Warm-start sweep: the warm-started-dual-simplex acceptance gate. Each
   leg schedules its layers node-bound (deterministic) twice —
   [Cosa.schedule ~warm_start] true and false — under identical budgets.
   Warm starting must only change how fast each node LP solves, never the
   search itself, so the gate demands byte-identical schedules,
   objectives, and node counts, then reports the iteration economics
   (phase1+phase2+dual totals) and the fraction of non-root node LPs
   served by dual reoptimization. The two-stage leg (every distinct
   ResNet-50 shape, 3000 nodes) runs the small LPs of the prefix chain;
   the joint leg (sched-joint's 33 distinct 1x1 convolutions and GEMMs, 10
   nodes) runs 120-200-row LPs through the scratch elimination above the
   chain's cutoff. Returns the leg's JSON fields, without braces. *)
let sweep_leg ~strategy ~node_limit layers =
  let arch = Spec.baseline in
  let iter_counters =
    [ "simplex.phase1_iterations"; "simplex.phase2_iterations";
      "simplex.dual_iterations" ]
  in
  let run ~warm_start =
    Telemetry.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun l -> Cosa.schedule ~strategy ~node_limit ~time_limit:60. ~warm_start arch l)
        layers
    in
    let wall = Unix.gettimeofday () -. t0 in
    let snap = Telemetry.Metrics.snapshot () in
    let cv = Telemetry.Metrics.counter_value snap in
    let schedules =
      List.map (fun (r : Cosa.result) -> Mapping_io.to_string r.Cosa.mapping) results
    in
    let objectives =
      List.map (fun (r : Cosa.result) -> r.Cosa.objective.Cosa.total) results
    in
    let iters = List.fold_left (fun acc c -> acc + cv c) 0 iter_counters in
    (wall, snap, schedules, objectives, cv "bb.nodes", iters)
  in
  let w_wall, w_snap, w_scheds, w_objs, w_nodes, w_iters = run ~warm_start:true in
  let c_wall, c_snap, c_scheds, c_objs, c_nodes, c_iters = run ~warm_start:false in
  let wcv = Telemetry.Metrics.counter_value w_snap in
  let warm_nodes = wcv "bb.warm_nodes" and cold_nodes = wcv "bb.cold_nodes" in
  let warm_rate =
    if warm_nodes + cold_nodes = 0 then 0.
    else float_of_int warm_nodes /. float_of_int (warm_nodes + cold_nodes)
  in
  let iter_ratio =
    if w_iters = 0 then 0. else float_of_int c_iters /. float_of_int w_iters
  in
  let schedules_identical = w_scheds = c_scheds in
  let objectives_identical = w_objs = c_objs in
  let nodes_identical = w_nodes = c_nodes in
  Printf.printf "%d distinct shapes, node_limit=%d, strategy=%s\n" (List.length layers)
    node_limit (Cosa.strategy_to_string strategy);
  Printf.printf "warm: %.2f s, %d nodes, %d simplex iterations (%d warm-solved node LPs)\n"
    w_wall w_nodes w_iters (wcv "simplex.warm_solves");
  Printf.printf "cold: %.2f s, %d nodes, %d simplex iterations\n" c_wall c_nodes c_iters;
  Printf.printf "iteration ratio cold/warm: %.2fx\n" iter_ratio;
  Printf.printf "non-root node LPs warm-solved: %.1f%%\n" (100. *. warm_rate);
  Printf.printf "schedules byte-identical warm vs cold: %b\n" schedules_identical;
  Printf.printf "objectives identical: %b\nnode counts identical: %b\n"
    objectives_identical nodes_identical;
  Printf.sprintf
    "\"shapes\":%d,\"node_limit\":%d,\"schedules_identical\":%b,\
     \"objectives_identical\":%b,\"nodes_identical\":%b,\"iter_ratio\":%s,\
     \"warm_start_rate\":%s,\"warm\":{\"wall_s\":%s,\"telemetry\":%s},\
     \"cold\":{\"wall_s\":%s,\"telemetry\":%s}"
    (List.length layers) node_limit schedules_identical objectives_identical
    nodes_identical (json_float iter_ratio) (json_float warm_rate) (json_float w_wall)
    (snapshot_json w_snap) (json_float c_wall) (snapshot_json c_snap)

(* sched-joint's layers: the distinct 1x1 convolutions and GEMMs of the
   four suites, in suite order. *)
let joint_sweep_layers () =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (l : Layer.t) ->
      let k = Layer.key l in
      l.Layer.r = 1 && l.Layer.s = 1
      && (not (Hashtbl.mem seen k))
      && (Hashtbl.add seen k (); true))
    (List.concat_map snd Zoo.suites)

let warm_sweep () =
  print_newline ();
  print_endline "Warm-start sweep: node-bound warm vs cold node LPs";
  print_endline "==================================================";
  Telemetry.Sink.set Telemetry.Sink.Memory;
  let two_stage =
    sweep_leg ~strategy:Cosa.Two_stage ~node_limit:3_000
      (List.map
         (fun ((e : Network.entry), _) -> e.Network.layer)
         (Network.distinct Network.resnet50))
  in
  print_newline ();
  let joint = sweep_leg ~strategy:Cosa.Joint ~node_limit:10 (joint_sweep_layers ()) in
  sweep_result := Some (Printf.sprintf "{%s,\"joint\":{%s}}" two_stage joint);
  Telemetry.Metrics.reset ();
  Telemetry.Sink.set Telemetry.Sink.Null;
  flush stdout

let () =
  let t0 = Unix.gettimeofday () in
  (* one optional argument selects a single section *)
  (match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
   | Some "exp" -> run_experiments ()
   | Some "sweep" -> warm_sweep ()
   | Some "soak" -> soak_benchmarks ()
   | Some "soak-cluster" ->
     let only_seed =
       if Array.length Sys.argv > 2 then Some (int_of_string Sys.argv.(2)) else None
     in
     soak_cluster_benchmarks ?only_seed ()
   | Some "fuse" -> fuse_benchmarks ()
   | Some other ->
     Printf.eprintf
       "unknown section %S (expected exp, sweep, soak, soak-cluster, or fuse)\n"
       other;
     exit 2
   | None ->
     print_endline "CoSA reproduction: full experiment harness";
     print_endline "==========================================";
     run_experiments ();
     soak_benchmarks ();
     soak_cluster_benchmarks ();
     warm_sweep ();
     fuse_benchmarks ());
  Printf.printf "\nTotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0);
  write_results "BENCH_results.json"
