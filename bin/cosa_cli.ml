(* Command-line driver: schedule layers, run paper experiments, inspect
   architectures and workloads, and run the cycle-level NoC simulator. *)

open Cmdliner

let arch_of_name name =
  match List.assoc_opt name Spec.variants with
  | Some a -> a
  | None ->
    Printf.eprintf "unknown architecture %S (available: %s)\n" name
      (String.concat ", " (List.map fst Spec.variants));
    exit 1

let arch_arg =
  let doc = "Target architecture (baseline, pe64, big_sram)." in
  Arg.(value & opt string "baseline" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let layer_arg =
  let doc = "Layer name (see `cosa_cli list layers`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LAYER" ~doc)

let find_layer name =
  try Zoo.find name
  with Not_found ->
    Printf.eprintf "unknown layer %S; try `cosa_cli list layers`\n" name;
    exit 1

(* Shared robustness flags: a per-call wall-clock budget and the
   deterministic fault-injection harness (for soak/chaos testing from the
   command line). *)
let time_limit_arg =
  Arg.(value & opt float 4. & info [ "time-limit" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget for the whole scheduling call; enforced down to \
               the simplex pivot loop, degrading through the fallback ladder if \
               it expires.")

let node_limit_arg =
  Arg.(value & opt int 50_000 & info [ "node-limit" ] ~docv:"NODES"
         ~doc:"Per-attempt branch-and-bound node budget. Unlike --time-limit, \
               node-bound termination is deterministic: make $(docv) the \
               binding limit when byte-reproducible schedules matter.")

let fault_seed_arg =
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED"
         ~doc:"Arm the deterministic fault-injection harness with $(docv). The \
               same seed fires the same faults at the same sites every run.")

let fault_rate_arg =
  Arg.(value & opt float 0.02 & info [ "fault-rate" ] ~docv:"RATE"
         ~doc:"Per-site-visit fault probability when --fault-seed is given.")

let warm_start_arg =
  let on_off = Arg.enum [ ("on", true); ("off", false) ] in
  Arg.(value & opt on_off true & info [ "warm-start" ] ~docv:"on|off"
         ~doc:"LP warm starting inside branch-and-bound: child nodes reoptimize \
               from the parent's simplex basis via dual simplex ($(b,on), \
               default) instead of solving cold. Changes how fast nodes solve, \
               never which schedule wins; $(b,off) exists for benchmarking and \
               bisection.")

let certify_arg =
  let certify_conv =
    Arg.enum [ ("off", Cosa.Off); ("warn", Cosa.Warn); ("strict", Cosa.Strict) ]
  in
  Arg.(value & opt certify_conv Cosa.Warn & info [ "certify" ] ~docv:"MODE"
         ~doc:"Exact-arithmetic certification of returned schedules: $(b,off) \
               trusts the float pipeline, $(b,warn) (default) certifies and \
               reports the verdict, $(b,strict) rejects any rung whose \
               certificate fails and descends the fallback ladder.")

let print_certification = function
  | Cosa.Cert_skipped -> ()
  | v -> Printf.printf "certification: %s\n" (Cosa.certification_to_string v)

(* Shared observability flags. Telemetry defaults to the Null sink —
   recording primitives are compiled in everywhere but reduce to one
   atomic load unless one of these flags arms a sink. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON trace of the run to $(docv). \
               Load it in chrome://tracing or https://ui.perfetto.dev; spans \
               are grouped per OCaml domain, so --jobs N shows N solver lanes.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"After the command finishes, print the process-wide telemetry \
               counters, gauges, and latency histograms.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"After the command finishes, print an aggregate span profile \
               (call count and total/mean wall time per span name).")

let trace_ring_arg =
  Arg.(value & opt (some int) None & info [ "trace-ring" ] ~docv:"N"
         ~doc:"Trace event-ring capacity (default 65536, min 1024). The ring \
               overwrites oldest-first when full, so a long-running daemon \
               keeps the most recent $(docv) events.")

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Append the structured JSONL event log to $(docv) ($(b,-) for \
               stderr): one JSON object per line, leveled and rate-limited, \
               request-id tagged. Off by default (zero cost).")

let log_level_arg =
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
         ~doc:"Minimum event-log level: debug, info, warn, or error.")

let arm_event_log log_file log_level =
  match log_file with
  | None -> ()
  | Some target ->
    let level =
      match Telemetry.Log.level_of_string log_level with
      | Some l -> l
      | None ->
        Printf.eprintf "--log-level must be debug|info|warn|error (got %s)\n" log_level;
        exit 2
    in
    let output =
      if target = "-" then Telemetry.Log.Stderr else Telemetry.Log.File target
    in
    Telemetry.Log.set ~level output

(* Arm the sink before [f], flush/report after — including on exit/exception
   paths, so a --trace of a run that dies still loads in the viewer. *)
let with_telemetry ?ring trace metrics profile f =
  (match ring with Some n -> Telemetry.Trace.set_capacity n | None -> ());
  match (trace, metrics, profile) with
  | None, false, false -> f ()
  | _ ->
    (match trace with
     | Some path -> Telemetry.Sink.set (Telemetry.Sink.File path)
     | None -> Telemetry.Sink.set Telemetry.Sink.Memory);
    Telemetry.Metrics.reset ();
    Telemetry.Trace.reset ();
    let report () =
      (match trace with
       | Some path ->
         Telemetry.Trace.write_file path;
         Printf.printf "trace written to %s (%d events)\n" path
           (List.length (Telemetry.Trace.events ()))
       | None -> ());
      if metrics then print_string (Telemetry.Metrics.report ());
      if profile then print_string (Telemetry.Trace.profile_summary ())
    in
    Fun.protect ~finally:report f

let with_faults fault_seed fault_rate f =
  match fault_seed with
  | None -> f ()
  | Some seed ->
    if not (fault_rate >= 0. && fault_rate <= 1.) then begin
      Printf.eprintf "--fault-rate must be in [0, 1] (got %g)\n" fault_rate;
      exit 2
    end;
    Robust.Fault.with_faults ~rate:fault_rate seed (fun () ->
        let r = f () in
        Printf.printf "faults fired: %d\n" (Robust.Fault.fired_count ());
        List.iter
          (fun (site, visit) -> Printf.printf "  %s (visit %d)\n" site visit)
          (Robust.Fault.fired ());
        r)

let strategy_conv =
  Arg.enum
    [ ("auto", Cosa.Auto); ("joint", Cosa.Joint); ("two-stage", Cosa.Two_stage);
      ("heuristic", Cosa.Heuristic) ]

let strategy_arg =
  Arg.(value & opt strategy_conv Cosa.Auto & info [ "s"; "strategy" ] ~docv:"STRATEGY"
         ~doc:"Solver strategy: auto, joint, two-stage, or heuristic (skip the MIP \
               rungs; sampler only).")

(* cosa_cli schedule <layer> *)
let schedule_cmd =
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Also write the schedule to $(docv) (cosa_cli evaluate reads it back).")
  in
  let run arch_name layer_name strategy save node_limit time_limit fault_seed fault_rate
      certify warm_start trace metrics profile trace_ring =
    let arch = arch_of_name arch_name in
    let layer = find_layer layer_name in
    let r =
      with_telemetry ?ring:trace_ring trace metrics profile (fun () ->
          with_faults fault_seed fault_rate (fun () ->
              Cosa.schedule ~strategy ~node_limit ~time_limit ~certify ~warm_start arch
                layer))
    in
    (match save with
     | Some path ->
       Mapping_io.save path r.Cosa.mapping;
       Printf.printf "schedule written to %s\n" path
     | None -> ());
    let e = Model.evaluate arch r.Cosa.mapping in
    Printf.printf "layer: %s\narch: %s\n\n%s\n" (Layer.to_string layer) arch.Spec.aname
      (Mapping.to_loop_nest arch r.Cosa.mapping);
    Printf.printf "solver: %s in %.2fs (%d nodes), %s%s\n"
      (match r.Cosa.solver_status with
       | Milp.Bb.Optimal -> "optimal"
       | Milp.Bb.Feasible -> "feasible (limit hit)"
       | Milp.Bb.Infeasible -> "infeasible"
       | Milp.Bb.Unbounded -> "unbounded"
       | Milp.Bb.No_solution -> "no solution (fallback schedule)")
      r.Cosa.solve_time r.Cosa.nodes
      (Cosa.source_to_string r.Cosa.source)
      (if r.Cosa.repaired then ", capacity-repaired" else "");
    print_certification r.Cosa.certification;
    (match r.Cosa.fallback_chain with
     | [] -> ()
     | chain ->
       Printf.printf "fallbacks: %s\n"
         (String.concat " -> " (List.map Robust.Failure.to_string chain)));
    Printf.printf "objective: util=%.2f comp=%.2f traf=%.2f total=%.2f\n"
      r.Cosa.objective.Cosa.util r.Cosa.objective.Cosa.comp r.Cosa.objective.Cosa.traf
      r.Cosa.objective.Cosa.total;
    Printf.printf "model: latency=%.0f cycles, energy=%.4g pJ, PE util=%.1f%%\n"
      e.Model.latency e.Model.energy_pj (100. *. e.Model.pe_utilization)
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Produce a CoSA schedule for a layer and report it.")
    Term.(const run $ arch_arg $ layer_arg $ strategy_arg $ save_arg $ node_limit_arg
          $ time_limit_arg $ fault_seed_arg $ fault_rate_arg $ certify_arg
          $ warm_start_arg $ trace_arg $ metrics_arg
          $ profile_arg $ trace_ring_arg)

(* cosa_cli batch --network resnet50 --jobs 4 --cache-dir PATH *)
let batch_cmd =
  let network_arg =
    Arg.(value & opt string "resnet50" & info [ "n"; "network" ] ~docv:"NETWORK"
           ~doc:"Network to schedule (resnet50, resnext50; name matching is \
                 case/dash-insensitive).")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Solve cache misses on $(docv) OCaml domains. Results are \
                 deterministic: any $(docv) yields byte-identical schedules.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"PATH"
           ~doc:"Persist schedules under $(docv). Disk entries are \
                 trust-but-verify: each is re-certified in exact arithmetic \
                 before being served, and rejected entries fall through to a \
                 live solve.")
  in
  let cache_size_arg =
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"ENTRIES"
           ~doc:"In-memory LRU capacity (distinct schedules).")
  in
  let fuse_arg =
    let modes =
      [ ("off", Serve.Service.Fuse_off); ("chains", Serve.Service.Fuse_chains);
        ("auto", Serve.Service.Fuse_auto) ]
    in
    Arg.(value & opt (enum modes) Serve.Service.Fuse_off & info [ "fuse" ] ~docv:"MODE"
           ~doc:"Cross-layer fusion: $(b,off) (default) is the plain per-layer \
                 path, $(b,chains) fuses every derived producer-consumer chain \
                 whose plan certifies in exact arithmetic, $(b,auto) \
                 additionally requires the fused plan to beat the independent \
                 baseline. Fusion is a purely additive second stage: the \
                 per-layer schedules and cache keys are identical in every \
                 mode.")
  in
  let fuse_max_group_arg =
    Arg.(value & opt int 3 & info [ "fuse-max-group" ] ~docv:"N"
           ~doc:"Maximum members per fusion group (at least 2).")
  in
  let run arch_name network_name jobs cache_dir cache_size node_limit strategy time_limit
      certify warm_start fuse fuse_max_group trace metrics profile trace_ring =
    let arch = arch_of_name arch_name in
    let net =
      match Network.find network_name with
      | Some n -> n
      | None ->
        Printf.eprintf "unknown network %S (available: %s)\n" network_name
          (String.concat ", " (List.map (fun n -> n.Network.nname) Network.networks));
        exit 1
    in
    let tier = Serve.Schedule_cache.create ?dir:cache_dir ~capacity:cache_size () in
    let cfg =
      Serve.Service.config ~strategy ~certify ~node_limit ~time_limit ~jobs ~warm_start
        arch
    in
    let report =
      with_telemetry ?ring:trace_ring trace metrics profile (fun () ->
          Serve.Service.schedule_network ~tier ~fuse ~max_group:fuse_max_group cfg net)
    in
    print_string (Serve.Service.report_to_string report);
    if report.Serve.Service.failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Schedule a whole network: dedup shapes, serve from the certified \
             schedule cache, solve misses on a domain pool; optionally fuse \
             producer-consumer chains to cut off-chip traffic.")
    Term.(const run $ arch_arg $ network_arg $ jobs_arg $ cache_dir_arg $ cache_size_arg
          $ node_limit_arg $ strategy_arg $ time_limit_arg $ certify_arg $ warm_start_arg
          $ fuse_arg $ fuse_max_group_arg $ trace_arg $ metrics_arg $ profile_arg
          $ trace_ring_arg)

(* Shared by serve/request: where the daemon listens. *)
let socket_arg =
  Arg.(value & opt string "/tmp/cosa_daemon.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the scheduling daemon.")

(* cosa_cli serve --socket PATH --cache-dir DIR *)
let serve_cmd =
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domain-pool width for solve fan-out inside one request.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"PATH"
           ~doc:"Persist schedules under $(docv); graceful drain rewrites every \
                 in-memory entry there (crash-safe temp-file + rename writes), and \
                 a restart re-serves them after exact-arithmetic re-verification.")
  in
  let cache_size_arg =
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"ENTRIES"
           ~doc:"In-memory LRU capacity (distinct schedules).")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Bounded request queue; requests beyond $(docv) are rejected \
                 $(b,queue-full), never silently dropped.")
  in
  let quota_rate_arg =
    Arg.(value & opt float 0. & info [ "quota-rate" ] ~docv:"TOKENS/S"
           ~doc:"Per-client token-bucket refill rate; 0 disables quotas.")
  in
  let quota_burst_arg =
    Arg.(value & opt float 8. & info [ "quota-burst" ] ~docv:"TOKENS"
           ~doc:"Per-client token-bucket capacity.")
  in
  let shed_arg =
    Arg.(value & opt float 30. & info [ "shed-delay" ] ~docv:"SECONDS"
           ~doc:"Estimated queue delay beyond which new requests are shed.")
  in
  let default_budget_arg =
    Arg.(value & opt float 30. & info [ "default-budget" ] ~docv:"SECONDS"
           ~doc:"SLO budget assumed for requests that carry none.")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Also listen on TCP at $(docv) (same wire protocol) — the \
                 multi-host transport.")
  in
  let peer_arg =
    Arg.(value & opt_all string [] & info [ "peer" ] ~docv:"ENDPOINT"
           ~doc:"Warm peer to probe on local cache misses ($(i,host:port) or a \
                 Unix socket path); repeatable. Peer records are re-certified in \
                 exact arithmetic before being served or cached.")
  in
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Cache shard count. Each shard has its own lock, so probes of \
                 different shards never contend; with more than one shard each \
                 also persists into its own $(i,shard-NN) subdirectory (one \
                 shard keeps records directly in the cache directory).")
  in
  let tmp_sweep_age_arg =
    Arg.(value & opt float 0. & info [ "tmp-sweep-age" ] ~docv:"SECONDS"
           ~doc:"Only sweep stale cache temp files older than $(docv) at \
                 startup; 0 (default) sweeps all leftovers.")
  in
  let read_deadline_arg =
    Arg.(value & opt float 30. & info [ "read-deadline" ] ~docv:"SECONDS"
           ~doc:"Per-connection receive deadline; a client stalling mid-frame \
                 this long is disconnected. 0 disables.")
  in
  let idle_timeout_arg =
    Arg.(value & opt float 300. & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Reap connections idle this long between frames. 0 disables.")
  in
  let fault_sites_arg =
    Arg.(value & opt (some string) None & info [ "fault-sites" ] ~docv:"CSV"
           ~doc:"With --fault-seed, restrict injection to these comma-separated \
                 sites (e.g. $(b,net.conn_reset,net.partial_frame)).")
  in
  let fault_crash_arg =
    Arg.(value & flag & info [ "fault-crash" ]
           ~doc:"Honor the net.peer_crash fault site with a process exit(42) \
                 mid-response. Chaos harnesses only.")
  in
  let flight_arg =
    Arg.(value & opt int 256 & info [ "flight" ] ~docv:"N"
           ~doc:"Flight-recorder ring size: the last $(docv) per-request records \
                 readable live through `cosa_cli trace-dump` (min 16; always on).")
  in
  let run arch_name socket jobs cache_dir cache_size queue_capacity quota_rate
      quota_burst shed_delay default_budget tcp peers shards tmp_sweep_age
      read_deadline idle_timeout fault_seed fault_rate fault_sites fault_crash flight
      node_limit strategy time_limit certify warm_start trace metrics profile
      trace_ring log_file log_level =
    arm_event_log log_file log_level;
    (match trace_ring with Some n -> Telemetry.Trace.set_capacity n | None -> ());
    let arch = arch_of_name arch_name in
    let tcp =
      Option.map
        (fun s ->
          match Daemon.Client.endpoint_of_string s with
          | Daemon.Client.Tcp (host, port) -> (host, port)
          | Daemon.Client.Unix_path _ ->
            Printf.eprintf "--tcp expects HOST:PORT (got %s)\n" s;
            exit 2)
        tcp
    in
    let service =
      Serve.Service.config ~strategy ~certify ~node_limit ~time_limit ~jobs ~warm_start
        arch
    in
    let admission =
      Daemon.Admission.default_config ~queue_capacity ~quota_rate ~quota_burst
        ~shed_delay_s:shed_delay ~time_limit ()
    in
    (* The daemon always injects its cache, which keeps the inline cache
       fast path on connection threads; shards = 1 is the one-partition
       cache with records flat in the directory. *)
    let cache =
      Serve.Schedule_cache.create ?dir:cache_dir ~tmp_sweep_age_s:tmp_sweep_age
        ~capacity:(max cache_size shards) ~shards ()
    in
    let peer_tier =
      match peers with
      | [] -> None
      | eps -> Some (Cluster.Peers.create (List.map Daemon.Client.endpoint_of_string eps))
    in
    (* Live-introspection sections for the Stats frame: per-shard cache
       counters always, per-peer health when the warm tier is armed. *)
    let stats_extra =
      ("shards", fun () -> Serve.Schedule_cache.stats_json cache)
      ::
      (match peer_tier with
       | None -> []
       | Some p -> [ ("peers", fun () -> Cluster.Peers.stats_json p) ])
    in
    let cfg =
      Daemon.Server.config ~admission ?cache_dir ~cache_capacity:cache_size
        ~default_budget_s:default_budget ?tcp
        ~tier:cache
        ?remote_probe:(Option.map Cluster.Peers.probe peer_tier)
        ?housekeeping:(Option.map (fun p () -> Cluster.Peers.tick p) peer_tier)
        ~read_deadline_s:read_deadline ~idle_timeout_s:idle_timeout
        ~tmp_sweep_age_s:tmp_sweep_age ~fault_crash_exit:fault_crash
        ~flight_capacity:flight ~stats_extra ~socket_path:socket service
    in
    let server = Daemon.Server.create cfg in
    (* SIGTERM/SIGINT request a graceful drain: finish in-flight work,
       persist the cache, exit 0. [shutdown] is one atomic store, so it
       is safe from the handler. *)
    let graceful = Sys.Signal_handle (fun _ -> Daemon.Server.shutdown server) in
    Sys.set_signal Sys.sigterm graceful;
    Sys.set_signal Sys.sigint graceful;
    Printf.printf "daemon listening on %s%s (arch %s, cache %s, %d shards%s)\n%!"
      socket
      (match tcp with
       | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p
       | None -> "")
      arch.Spec.aname
      (Option.value cache_dir ~default:"memory-only")
      shards
      (match peers with
       | [] -> ""
       | l -> Printf.sprintf ", %d peers" (List.length l));
    let serve () =
      with_telemetry trace metrics profile (fun () -> Daemon.Server.run server)
    in
    (match fault_seed with
     | None -> serve ()
     | Some seed ->
       if not (fault_rate >= 0. && fault_rate <= 1.) then begin
         Printf.eprintf "--fault-rate must be in [0, 1] (got %g)\n" fault_rate;
         exit 2
       end;
       let only =
         match fault_sites with
         | None -> []
         | Some csv ->
           List.filter (fun s -> s <> "") (String.split_on_char ',' csv)
       in
       Robust.Fault.with_faults ~rate:fault_rate ~only seed (fun () ->
           serve ();
           Printf.printf "faults fired: %d\n" (Robust.Fault.fired_count ())));
    let s = Daemon.Server.stats server in
    Printf.printf
      "drained: %d received, %d served (%d fast-path), %d failed; rejected %d \
       queue-full, %d quota, %d shedding, %d deadline; %d reaped; %d cache \
       records persisted\n"
      s.Daemon.Server.received s.Daemon.Server.served s.Daemon.Server.fastpath_served
      s.Daemon.Server.failed s.Daemon.Server.rejected_queue_full
      s.Daemon.Server.rejected_quota s.Daemon.Server.rejected_shedding
      s.Daemon.Server.rejected_deadline s.Daemon.Server.reaped
      s.Daemon.Server.persisted
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent scheduling daemon: bounded queue, SLO-aware \
             admission over the degradation ladder, typed backpressure, graceful \
             drain on SIGTERM. Cache hits answer inline on connection threads, \
             over a cache sharded by --shards; --tcp adds a multi-host \
             listener and --peer arms the health-checked warm-peer tier.")
    Term.(const run $ arch_arg $ socket_arg $ jobs_arg $ cache_dir_arg $ cache_size_arg
          $ queue_arg $ quota_rate_arg $ quota_burst_arg $ shed_arg $ default_budget_arg
          $ tcp_arg $ peer_arg $ shards_arg $ tmp_sweep_age_arg $ read_deadline_arg
          $ idle_timeout_arg $ fault_seed_arg $ fault_rate_arg $ fault_sites_arg
          $ fault_crash_arg $ flight_arg
          $ node_limit_arg $ strategy_arg $ time_limit_arg $ certify_arg $ warm_start_arg
          $ trace_arg $ metrics_arg $ profile_arg
          $ trace_ring_arg $ log_arg $ log_level_arg)

(* cosa_cli request <layer> --budget 0.5 *)
let request_cmd =
  let target_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"Layer name, or network name with --network.")
  in
  let network_flag =
    Arg.(value & flag & info [ "network" ]
           ~doc:"Treat TARGET as a network name instead of a layer name.")
  in
  let budget_arg =
    Arg.(value & opt float 0. & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"SLO budget from arrival; 0 uses the server default. Admission \
                 picks the highest degradation-ladder rung that fits, or rejects \
                 $(b,deadline-unmeetable) up front.")
  in
  let client_arg =
    Arg.(value & opt string "" & info [ "client" ] ~docv:"ID"
           ~doc:"Quota identity; empty shares the anonymous bucket.")
  in
  let timeout_arg =
    Arg.(value & opt float 60. & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Client-side socket timeout.")
  in
  let endpoint_arg =
    Arg.(value & opt_all string [] & info [ "endpoint" ] ~docv:"ENDPOINT"
           ~doc:"Daemon endpoint ($(i,host:port) or a Unix socket path); \
                 repeatable — transport failures fail over to the next endpoint \
                 and retry with exponential backoff. Overrides --socket.")
  in
  let retries_arg =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Extra passes over the endpoint list after all fail (transport \
                 failures only; typed rejections are never retried).")
  in
  let retry_backoff_arg =
    Arg.(value & opt float 0.1 & info [ "retry-backoff" ] ~docv:"SECONDS"
           ~doc:"Initial backoff between retry passes; doubles with jitter.")
  in
  let cache_only_flag =
    Arg.(value & flag & info [ "cache-only" ]
           ~doc:"Only serve from the daemon's cache tier; a miss is a typed \
                 rejection, never a solve. This is the peer-probe mode.")
  in
  let run arch socket target network budget client timeout endpoints retries
      retry_backoff cache_only =
    (* Mint the request id client-side (hop 0 = origin) so the operator can
       grep this id in the daemon's flight recorder, event log, and trace —
       the same id the daemon propagates to any warm-peer probe. *)
    let req_id =
      let mix z =
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
        Int64.logxor z (Int64.shift_right_logical z 31)
      in
      let seed =
        Int64.logxor
          (Int64.of_float (Unix.gettimeofday () *. 1e6))
          (Int64.shift_left (Int64.of_int (Unix.getpid ())) 40)
      in
      let id = mix seed in
      if id = 0L then 1L else id
    in
    let req =
      {
        Daemon.Protocol.client;
        budget_s = budget;
        arch;
        target =
          (if network then Daemon.Protocol.Network target
           else Daemon.Protocol.Layer target);
        cache_only;
        req_id;
        hop = 0;
      }
    in
    Printf.printf "request id %s\n" (Telemetry.Trace.request_id_hex req_id);
    let result =
      match endpoints with
      | [] -> Daemon.Client.one_shot ~timeout_s:timeout socket req
      | eps ->
        Daemon.Client.request_failover ~retries ~backoff_s:retry_backoff
          ~timeout_s:timeout
          ~endpoints:(List.map Daemon.Client.endpoint_of_string eps)
          req
    in
    match result with
    | Error msg ->
      Printf.eprintf "request failed: %s\n" msg;
      exit 1
    | Ok (Daemon.Protocol.Failed msg) ->
      Printf.eprintf "server error: %s\n" msg;
      exit 1
    | Ok (Daemon.Protocol.Stats _) ->
      Printf.eprintf "server error: unexpected stats frame\n";
      exit 1
    | Ok (Daemon.Protocol.Rejected reason) ->
      Printf.printf "rejected: %s\n" (Daemon.Protocol.reject_reason_to_string reason);
      exit 3
    | Ok (Daemon.Protocol.Scheduled s) ->
      Printf.printf "scheduled at rung %s (queue wait %.3fs, served in %.3fs)\n"
        (Robust.Ladder.to_string s.Daemon.Protocol.rung)
        s.Daemon.Protocol.queue_wait_s s.Daemon.Protocol.serve_s;
      List.iter
        (fun (l : Daemon.Protocol.served_layer) ->
          Printf.printf "  %-28s x%-4d %-12s certify:%s\n" l.Daemon.Protocol.name
            l.Daemon.Protocol.repeats l.Daemon.Protocol.origin l.Daemon.Protocol.verdict)
        s.Daemon.Protocol.layers;
      Printf.printf "total: latency=%.0f cycles, energy=%.4g pJ\n"
        s.Daemon.Protocol.total_latency s.Daemon.Protocol.total_energy_pj
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one scheduling request to a running daemon (or a failover \
             list of daemons via repeated --endpoint). Exit status: 0 scheduled, \
             3 typed rejection (backpressure/deadline), 1 failure.")
    Term.(const run $ arch_arg $ socket_arg $ target_arg $ network_flag $ budget_arg
          $ client_arg $ timeout_arg $ endpoint_arg $ retries_arg $ retry_backoff_arg
          $ cache_only_flag)

(* cosa_cli stats / trace-dump: live daemon introspection over the wire.
   Both ride the Stats frame, which the server answers inline on the
   connection thread — a query never queues behind the solver, is never
   counted as a request, and books no cache miss. *)
let stats_endpoint_arg =
  Arg.(value & opt (some string) None & info [ "endpoint" ] ~docv:"ENDPOINT"
         ~doc:"Daemon endpoint ($(i,host:port) or a Unix socket path). \
               Overrides --socket.")

let stats_timeout_arg =
  Arg.(value & opt float 5. & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Client-side connect/exchange timeout.")

let resolve_endpoint socket endpoint =
  match endpoint with
  | Some e -> Daemon.Client.endpoint_of_string e
  | None -> Daemon.Client.Unix_path socket

let fetch_stats ep timeout scope =
  match Daemon.Client.stats_ep ~timeout_s:timeout ep scope with
  | Ok payload -> payload
  | Error msg ->
    Printf.eprintf "stats query failed (%s): %s\n"
      (Daemon.Client.endpoint_to_string ep) msg;
    exit 1

let stats_cmd =
  let watch_arg =
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECONDS"
           ~doc:"Re-query and re-print every $(docv) seconds until interrupted.")
  in
  let prometheus_flag =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Emit Prometheus text exposition (metric families with \
                 cumulative histogram buckets) instead of the JSON snapshot.")
  in
  let run socket endpoint timeout watch prometheus =
    let ep = resolve_endpoint socket endpoint in
    let scope =
      if prometheus then Daemon.Protocol.Stats_prometheus
      else Daemon.Protocol.Stats_full
    in
    let once () =
      print_endline (fetch_stats ep timeout scope);
      (* a watcher is often piped (jq, tee): deliver each snapshot now,
         not whenever the block buffer happens to fill *)
      flush stdout
    in
    match watch with
    | None -> once ()
    | Some period ->
      let period = Float.max 0.1 period in
      while true do
        once ();
        print_newline ();
        Unix.sleepf period
      done
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Query a live daemon's introspection snapshot: counters, admission \
             p95 windows and rung costs, per-shard cache hit rates, peer health, \
             and the flight recorder — as one JSON object (or --prometheus \
             text). Answered inline by the daemon; never queued, counted, or \
             admission-priced, and books no cache miss.")
    Term.(const run $ socket_arg $ stats_endpoint_arg $ stats_timeout_arg $ watch_arg
          $ prometheus_flag)

let trace_dump_cmd =
  let run socket endpoint timeout =
    let ep = resolve_endpoint socket endpoint in
    print_endline (fetch_stats ep timeout Daemon.Protocol.Stats_flight)
  in
  Cmd.v
    (Cmd.info "trace-dump"
       ~doc:"Dump a live daemon's flight recorder: the last N requests (id, \
             hop, client, target, rung, origin, verdict, queue wait, serve \
             time) as a JSON array, oldest first. Grep a request id printed \
             by `cosa_cli request` to follow one request across hops.")
    Term.(const run $ socket_arg $ stats_endpoint_arg $ stats_timeout_arg)

(* cosa_cli exp <id> *)
let exp_cmd =
  let id_arg =
    let doc = "Experiment id (fig1..fig11, tab6, abl_*; `cosa_cli list exps`)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id =
    match Registry.find id with
    | e -> print_string (e.Registry.run ())
    | exception Not_found ->
      Printf.eprintf "unknown experiment %S (available: %s)\n" id
        (String.concat ", " (Registry.ids ()));
      exit 1
  in
  Cmd.v (Cmd.info "exp" ~doc:"Run one paper experiment and print its table/figure data.")
    Term.(const run $ id_arg)

(* cosa_cli simulate <layer> *)
let simulate_cmd =
  let run arch_name layer_name time_limit fault_seed fault_rate certify trace metrics
      profile =
    let arch = arch_of_name arch_name in
    let layer = find_layer layer_name in
    with_telemetry trace metrics profile @@ fun () ->
    with_faults fault_seed fault_rate (fun () ->
        let r = Cosa.schedule ~time_limit ~certify arch layer in
        match Noc_sim.simulate_r arch r.Cosa.mapping with
        | Error f ->
          Printf.eprintf "simulation failed: %s\n" (Robust.Failure.to_string f);
          exit 1
        | Ok s ->
          Printf.printf "layer %s on %s (CoSA schedule)\n" layer.Layer.name arch.Spec.aname;
          Printf.printf
            "NoC-simulated latency: %.0f cycles%s\n\
             simulated %d cycles over %d/%d NoC steps; %d packets, %d flit-hops\n\
             DRAM busy %d cycles; PE compute %d cycles/step\n"
            s.Noc_sim.latency
            (if s.Noc_sim.sampled then " (sampled + extrapolated)" else "")
            s.Noc_sim.simulated_cycles s.Noc_sim.simulated_steps s.Noc_sim.total_steps
            s.Noc_sim.packets s.Noc_sim.flit_hops s.Noc_sim.dram_busy_cycles
            s.Noc_sim.compute_cycles_per_step;
          print_certification r.Cosa.certification;
          (* flit-conservation certificate over the finished simulation *)
          if certify <> Cosa.Off then begin
            match Certify.Noc_cert.check s with
            | Certify.Certificate.Certified -> Printf.printf "NoC flits: certified\n"
            | Certify.Certificate.Violated _ as c ->
              Printf.printf "NoC flits: %s\n" (Certify.Certificate.to_string c);
              if certify = Cosa.Strict then exit 1
          end)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the cycle-level NoC simulator on a CoSA schedule.")
    Term.(const run $ arch_arg $ layer_arg $ time_limit_arg $ fault_seed_arg
          $ fault_rate_arg $ certify_arg $ trace_arg $ metrics_arg $ profile_arg)

(* cosa_cli evaluate <file> *)
let evaluate_cmd =
  let file_arg =
    let doc = "Schedule file previously written by `schedule --save`." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run arch_name file =
    let arch = arch_of_name arch_name in
    match Mapping_io.load file with
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" file e;
      exit 1
    | Ok m ->
      (match Mapping.validate arch m with
       | [] ->
         print_string (Mapping.to_loop_nest arch m);
         let e = Model.evaluate arch m in
         print_string (Model.summary arch e)
       | vs ->
         Printf.eprintf "schedule is invalid on %s:\n" arch.Spec.aname;
         List.iter
           (fun v -> Printf.eprintf "  %s\n" (Mapping.violation_to_string v))
           vs;
         exit 1)
  in
  Cmd.v (Cmd.info "evaluate" ~doc:"Validate and evaluate a saved schedule file.")
    Term.(const run $ arch_arg $ file_arg)

(* cosa_cli list <what> *)
let list_cmd =
  let what_arg =
    Arg.(value & pos 0 (enum [ ("layers", `Layers); ("archs", `Archs); ("exps", `Exps) ])
           `Exps & info [] ~docv:"WHAT" ~doc:"What to list: layers, archs, or exps.")
  in
  let run what =
    match what with
    | `Layers ->
      List.iter
        (fun (suite, layers) ->
          Printf.printf "%s:\n" suite;
          List.iter (fun (l : Layer.t) -> Printf.printf "  %s\n" (Layer.to_string l)) layers)
        Zoo.suites
    | `Archs ->
      List.iter (fun (_, a) -> print_string (Spec.to_string a)) Spec.variants
    | `Exps ->
      List.iter
        (fun e -> Printf.printf "%-14s %s\n" e.Registry.id e.Registry.title)
        Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available layers, architectures, or experiments.")
    Term.(const run $ what_arg)

let () =
  let doc = "CoSA: scheduling spatial DNN accelerators by constrained optimization" in
  let info = Cmd.info "cosa_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ schedule_cmd; batch_cmd; serve_cmd; request_cmd; stats_cmd; trace_dump_cmd;
            exp_cmd; simulate_cmd; evaluate_cmd; list_cmd ]))
