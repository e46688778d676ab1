(* The four workloads.

   Each runs a set-up, then a timed phase of whole operations for at least
   [seconds], and checks every output. Inputs are a function of the seed
   alone: the seed shuffles the order of a fixed set of work (and, for the
   daemon, the popularity ranking and request stream), so every seed does
   the same work and the schedules — and [cycles_geomean] — are the same
   for every seed.

   What one "op" is:
   - sched-two-stage / sched-joint: one [Cosa.schedule] call on one layer;
   - batch-resnet: one restart pass — a fresh sharded tier over the warm
     cache directory serving ResNet-50 then ResNeXt-50 from disk;
   - daemon-zipf: one request/response on a connection to the daemon. *)

type cfg = {
  seed : int;
  seconds : float;  (** each timed phase runs whole ops for at least this long *)
  setups : int;  (** set-ups per phase; [setup_s] is their median *)
  smoke : bool;  (** tiny inputs: a fast end-to-end check of the harness *)
  traced : bool;  (** the telemetry sink is armed for this phase *)
  work : string;  (** scratch directory of this phase *)
}

(* What one phase measured. *)
type phase = {
  attempted : int;
  failed : int;
  setup_s : float list;
  ops : int;
  wall_s : float;  (** of the timed phase *)
  latency : Report.Samples.t;  (** per op, seconds *)
  cycles : float list;  (** modelled latency of every schedule served *)
  rss_mb : float;
  digest : string;  (** of every schedule the phase produced or served *)
  solved : Layers.solved list;  (** the schedules, for the stage replay *)
  extra : (string * float) list;
      (** traced phases: the pool, cache-tier and daemon per-layer metrics,
          zero where the workload does not exercise the layer *)
}

let now = Report.now

let timed f =
  let t = now () in
  let v = f () in
  (v, now () -. t)

(* One op; under tracing, a [bench.op] span with its own request id. *)
let op cfg id f =
  if cfg.traced then
    Telemetry.Trace.with_request ~id:(Int64.of_int (id + 1)) ~hop:0 (fun () ->
        Layers.span "bench.op" (fun () -> timed f))
  else timed f

(* [n] runs of [f], in order. *)
let repeat n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let digest texts = Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare texts)))

let distinct layers =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun l ->
      let k = Layer.key l in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    layers

(* The 52 distinct layer shapes of the four paper suites. *)
let suite_layers () = distinct (List.concat_map snd Zoo.suites)

let take n l = List.filteri (fun i _ -> i < n) l

(* Whole passes run until [seconds] have passed and there are enough ops
   for a p90 with ten samples beyond it. *)
let min_ops cfg = if cfg.smoke then 1 else 100

let zeros names = List.map (fun n -> (n, 0.)) names
let no_pool = zeros [ "serve.pool_efficiency" ]
let no_daemon = zeros [ "daemon.fastpath_share"; "daemon.serve_share" ]

(* ---- sched-two-stage and sched-joint ---------------------------------------- *)

type sched = {
  strategy : Cosa.strategy;
  node_limit : int;
  pick : Layer.t -> bool;  (** which of the suite layers the workload schedules *)
}

let two_stage = { strategy = Cosa.Two_stage; node_limit = 3000; pick = (fun _ -> true) }

(* 1x1 convolutions and GEMMs: the joint LPs have ~120-200 rows, and one
   solve at 10 nodes takes ~0.1 s, so a run holds ~100 ops. A 3x3 joint
   solve costs 1-2 s and would dominate the run. *)
let joint =
  { strategy = Cosa.Joint; node_limit = 10; pick = (fun l -> l.Layer.r = 1 && l.Layer.s = 1) }

let sched_inputs sp cfg =
  let layers = List.filter sp.pick (suite_layers ()) in
  ( Array.of_list (if cfg.smoke then take 3 layers else layers),
    if cfg.smoke then min sp.node_limit 200 else sp.node_limit )

(* Set-up of a sched workload is process start-up: exec, runtime and
   module initialisation, and building the inputs — timed by running it in
   a child ([perf.exe setup-probe]) up to its exit. A spawn takes ~1.5 ms
   with a long tail on a shared box, so each set-up is ten of them. *)
let probe_setup ~name cfg =
  let args =
    [ "setup-probe"; name; string_of_int cfg.seed ] @ if cfg.smoke then [ "--smoke" ] else []
  in
  let (status, lines), dt = timed (fun () -> Proc.capture Sys.executable_name args) in
  if status <> Unix.WEXITED 0 || lines <> [ "ready" ] then failwith "setup probe failed";
  dt

let sched_phase ~name sp cfg =
  let setup_s = repeat (10 * cfg.setups) (fun _ -> probe_setup ~name cfg) in
  let arch = Spec.baseline in
  let layers, node_limit = sched_inputs sp cfg in
  let rng = Prim.Rng.create cfg.seed in
  let source = if sp.strategy = Cosa.Joint then Cosa.Milp_joint else Cosa.Milp_two_stage in
  (* the first schedule of each layer *)
  let first = Hashtbl.create 64 in
  let latency = Report.Samples.create () in
  let failed = ref 0 in
  let t0 = now () in
  let rec pass () =
    Prim.Rng.shuffle rng layers;
    Array.iter
      (fun (l : Layer.t) ->
        let r, dt =
          op cfg (Report.Samples.length latency) (fun () ->
              Cosa.schedule ~strategy:sp.strategy ~node_limit ~time_limit:600.
                ~certify:Cosa.Strict arch l)
        in
        Report.Samples.add latency dt;
        let text = Mapping_io.to_string r.Cosa.mapping in
        let same =
          match Hashtbl.find_opt first l.Layer.name with
          | None ->
            Hashtbl.add first l.Layer.name (l, r.Cosa.mapping, text);
            true
          | Some (_, _, t) -> t = text
        in
        if
          not
            (same && r.Cosa.certification = Cosa.Cert_ok && r.Cosa.source = source
           && r.Cosa.fallback_chain = [])
        then incr failed)
      layers;
    if now () -. t0 < cfg.seconds || Report.Samples.length latency < min_ops cfg then pass ()
  in
  pass ();
  let wall_s = now () -. t0 in
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) first [] in
  {
    attempted = Report.Samples.length latency;
    failed = !failed;
    setup_s;
    ops = Report.Samples.length latency;
    wall_s;
    latency;
    cycles = List.map (fun (_, m, _) -> (Model.evaluate arch m).Model.latency) entries;
    rss_mb = Proc.peak_rss_mb None;
    digest = digest (List.map (fun (_, _, t) -> t) entries);
    solved =
      List.map
        (fun (layer, mapping, _) ->
          { Layers.arch; layer; strategy = sp.strategy; node_limit; mapping })
        entries;
    extra = no_pool @ Layers.cluster_metrics None @ no_daemon;
  }

(* ---- batch-resnet --------------------------------------------------------------- *)

let batch_networks cfg =
  let rng = Prim.Rng.create cfg.seed in
  List.map
    (fun (n : Network.t) ->
      let e = Array.of_list n.Network.entries in
      Prim.Rng.shuffle rng e;
      { n with Network.entries = Array.to_list e })
    (if cfg.smoke then [ Network.resnet50_block ] else [ Network.resnet50; Network.resnext50 ])

let batch_jobs = 2

let texts (r : Serve.Service.report) =
  List.map
    (fun (lr : Serve.Service.layer_report) ->
      match lr.Serve.Service.served with
      | Ok s -> Mapping_io.to_string s.Serve.Service.mapping
      | Error _ -> "")
    r.Serve.Service.layers

(* Set-up: a cold pass into a fresh cache directory — every distinct shape
   solved on the domain pool and written through to disk. The timed phase
   then restarts a tier over that directory per op. *)
let batch_phase cfg =
  let nets = batch_networks cfg in
  let node_limit = if cfg.smoke then 200 else 3000 in
  let service =
    Serve.Service.config ~strategy:Cosa.Two_stage ~certify:Cosa.Strict ~node_limit
      ~time_limit:600. ~jobs:batch_jobs Spec.baseline
  in
  let dir = Filename.concat cfg.work "batch-cache" in
  let open_tier () = Cluster.Sharded_cache.create ~dir ~capacity:256 ~shards:4 () in
  let serve cache =
    List.map
      (fun n -> Serve.Service.schedule_network ~tier:(Cluster.Sharded_cache.tier cache) service n)
      nets
  in
  let cold_runs =
    repeat cfg.setups (fun _ ->
        Proc.rm_rf dir;
        timed (fun () -> serve (open_tier ())))
  in
  let cold, cold_s = List.nth cold_runs (cfg.setups - 1) in
  let cold_layers = List.concat_map (fun r -> r.Serve.Service.layers) cold in
  (* a shape both networks share is solved once and served from memory
     the second time *)
  let certified_solve (lr : Serve.Service.layer_report) =
    match lr.Serve.Service.served with
    | Ok s ->
      s.Serve.Service.verdict = "ok" && s.Serve.Service.fallback_chain = []
      && (s.Serve.Service.origin = Serve.Service.Solved Cosa.Milp_two_stage
         || s.Serve.Service.origin = Serve.Service.Cache_memory)
    | Error _ -> false
  in
  let cold_failed = List.length (List.filter (fun lr -> not (certified_solve lr)) cold_layers) in
  let expect = List.map (fun r -> (r.Serve.Service.total_latency, texts r)) cold in
  let totals =
    { Serve.Schedule_cache.hits = 0; disk_hits = 0; misses = 0; disk_rejects = 0;
      evictions = 0; stores = 0 }
  in
  let latency = Report.Samples.create () in
  let failed = ref 0 in
  let t0 = now () in
  while Report.Samples.length latency = 0 || now () -. t0 < cfg.seconds do
    let (reports, cache), dt =
      op cfg (Report.Samples.length latency) (fun () ->
          let cache = open_tier () in
          (serve cache, cache))
    in
    Report.Samples.add latency dt;
    let ok =
      List.for_all2
        (fun (r : Serve.Service.report) (total, t) ->
          r.Serve.Service.failed = 0
          && r.Serve.Service.served_from_cache = r.Serve.Service.distinct
          && r.Serve.Service.total_latency = total && texts r = t)
        reports expect
    in
    if not ok then incr failed;
    let s = Cluster.Sharded_cache.stats cache in
    Serve.Schedule_cache.(
      totals.hits <- totals.hits + s.hits;
      totals.disk_hits <- totals.disk_hits + s.disk_hits;
      totals.misses <- totals.misses + s.misses;
      totals.evictions <- totals.evictions + s.evictions)
  done;
  let wall_s = now () -. t0 in
  let solved =
    List.filter_map
      (fun (lr : Serve.Service.layer_report) ->
        match lr.Serve.Service.served with
        | Ok ({ Serve.Service.origin = Serve.Service.Solved _; _ } as s) ->
          Some
            { Layers.arch = Spec.baseline; layer = lr.Serve.Service.layer;
              strategy = Cosa.Two_stage; node_limit; mapping = s.Serve.Service.mapping }
        | _ -> None)
      cold_layers
  in
  {
    attempted = List.length cold_layers + Report.Samples.length latency;
    failed = cold_failed + !failed;
    setup_s = List.map snd cold_runs;
    ops = Report.Samples.length latency;
    wall_s;
    latency;
    cycles = List.map (fun lr -> lr.Serve.Service.latency) cold_layers;
    rss_mb = Proc.peak_rss_mb None;
    digest = digest (List.concat_map texts cold);
    solved;
    extra =
      ("serve.pool_efficiency", Layers.pool_efficiency ~jobs:batch_jobs ~wall_s:cold_s)
      :: Layers.cluster_metrics (Some totals)
      @ no_daemon;
  }

(* ---- daemon-zipf ------------------------------------------------------------------ *)

(* One prefilled (architecture, layer) pair and the schedule the daemon
   must serve for it. *)
type pair = {
  aname : string;  (** the architecture's name on the wire *)
  solved : Layers.solved;
  text : string;  (** [Mapping_io.to_string] of the schedule: a served record ends with it *)
  cycles : float;  (** its modelled latency *)
}

let daemon_node_limit = 200
let daemon_budget_s = 5.

(* Solve every (layer, architecture variant) pair at 200 nodes into a
   fresh sharded cache directory, written through to disk. *)
let prefill cfg dir =
  let layers = if cfg.smoke then take 3 (suite_layers ()) else suite_layers () in
  let cache = Cluster.Sharded_cache.create ~dir ~capacity:1024 ~shards:4 () in
  let failed = ref 0 in
  let pairs =
    List.concat_map
      (fun (aname, arch) ->
        let service =
          Serve.Service.config ~strategy:Cosa.Two_stage ~certify:Cosa.Strict
            ~node_limit:daemon_node_limit ~time_limit:600. ~jobs:1 arch
        in
        let net =
          { Network.nname = "perf-" ^ aname;
            entries = List.map (fun l -> { Network.layer = l; repeats = 1 }) layers }
        in
        let r =
          Serve.Service.schedule_network ~tier:(Cluster.Sharded_cache.tier cache) service net
        in
        List.filter_map
          (fun (lr : Serve.Service.layer_report) ->
            match lr.Serve.Service.served with
            | Ok s
              when s.Serve.Service.verdict = "ok"
                   && s.Serve.Service.origin = Serve.Service.Solved Cosa.Milp_two_stage ->
              Some
                { aname;
                  solved =
                    { Layers.arch; layer = lr.Serve.Service.layer; strategy = Cosa.Two_stage;
                      node_limit = daemon_node_limit; mapping = s.Serve.Service.mapping };
                  text = Mapping_io.to_string s.Serve.Service.mapping;
                  cycles = lr.Serve.Service.latency }
            | _ ->
              incr failed;
              None)
          r.Serve.Service.layers)
      Spec.variants
  in
  (Array.of_list pairs, !failed)

let start_daemon cfg ~dir ~sock ~log =
  let args =
    [ "serve"; "--socket"; sock; "--cache-dir"; dir; "--shards"; "4"; "--cache-size"; "64";
      "--jobs"; "1"; "--strategy"; "two-stage"; "--certify"; "strict" ]
    @ if cfg.traced then [ "--metrics" ] else []
  in
  let pid = Proc.spawn_logged ~log (Proc.cli_binary ()) args in
  let deadline = now () +. 30. in
  let rec ready () =
    match Daemon.Client.connect ~timeout_s:1. sock with
    | Ok c -> Daemon.Client.close c
    | Error e when now () > deadline ->
      ignore (Proc.terminate pid);
      failwith ("daemon did not come up: " ^ e)
    | Error _ ->
      Unix.sleepf 0.002;
      ready ()
  in
  ready ();
  pid

(* Zipf(1.0) popularity over a seed-shuffled ranking of the pairs. *)
let zipf rng pairs =
  let ranked = Array.copy pairs in
  Prim.Rng.shuffle rng ranked;
  let n = Array.length ranked in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun r ->
    let u = Prim.Rng.float r total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    ranked.(search 0 (n - 1))

let request (p : pair) =
  { Daemon.Protocol.client = ""; budget_s = daemon_budget_s; arch = p.aname;
    target = Daemon.Protocol.Layer p.solved.Layers.layer.Layer.name; cache_only = false;
    req_id = 0L; hop = 0 }

(* A response is correct when it carries exactly the prefilled schedule. *)
let served_ok (p : pair) = function
  | Ok
      (Daemon.Protocol.Scheduled
        { Daemon.Protocol.layers = [ l ]; total_latency; serve_s; _ })
    when l.Daemon.Protocol.verdict = "ok"
         && String.ends_with ~suffix:p.text l.Daemon.Protocol.record
         && total_latency = p.cycles ->
    Some (l.Daemon.Protocol.record, serve_s)
  | _ -> None

(* What the client connection saw. *)
type client = {
  lat : Report.Samples.t;  (** seconds: from send (closed) or from due time (open) *)
  late : Report.Samples.t;  (** open loop: send time minus due time *)
  mutable serve_s : float;  (** Σ server-side serve time of correct responses *)
  mutable bad : int;
  records : (string, pair * string) Hashtbl.t;  (** first record served per pair *)
}

(* Send [next ()]'s requests on one connection until it returns [None];
   [next] gives the pair and its due time (if any). A transport error
   costs the connection, which is reopened. *)
let drive ~sock ~traced next =
  let c =
    { lat = Report.Samples.create (); late = Report.Samples.create (); serve_s = 0.; bad = 0;
      records = Hashtbl.create 256 }
  in
  let conn = ref None in
  let exchange p () =
    match !conn with
    | Some k -> Daemon.Client.request k (request p)
    | None -> (
      match Daemon.Client.connect ~timeout_s:10. sock with
      | Ok k ->
        conn := Some k;
        Daemon.Client.request k (request p)
      | Error e -> Error e)
  in
  let rec go seq =
    match next () with
    | None -> ()
    | Some (p, due) ->
      (match due with Some d when d > now () -> Unix.sleepf (d -. now ()) | _ -> ());
      let sent = now () in
      let resp =
        if traced then
          Telemetry.Trace.with_request ~id:(Int64.of_int (seq + 1)) ~hop:0 (fun () ->
              Layers.span "bench.request" (exchange p))
        else exchange p ()
      in
      Report.Samples.add c.lat (now () -. Option.value due ~default:sent);
      Option.iter (fun d -> Report.Samples.add c.late (sent -. d)) due;
      (match served_ok p resp with
       | Some (record, serve_s) ->
         c.serve_s <- c.serve_s +. serve_s;
         let key = p.aname ^ "/" ^ p.solved.Layers.layer.Layer.name in
         if not (Hashtbl.mem c.records key) then Hashtbl.add c.records key (p, record)
       | None ->
         c.bad <- c.bad + 1;
         if Result.is_error resp then begin
           Option.iter Daemon.Client.close !conn;
           conn := None
         end);
      go (seq + 1)
  in
  go 0;
  Option.iter Daemon.Client.close !conn;
  c

(* Closed loop on one connection: the next request goes out when the
   previous answer arrives. A second connection would only queue behind
   the first on the daemon's runtime lock, and the hand-off between the
   two made throughput swing by 2x from run to run. *)
let closed_loop cfg ~sock ~rng ~pick =
  let stop = now () +. cfg.seconds in
  drive ~sock ~traced:cfg.traced (fun () -> if now () >= stop then None else Some (pick rng, None))

(* Open loop at [rate] requests/s: a pre-generated schedule of evenly
   spaced due times, and latency timed from the due time, so a stall also
   delays the requests behind it. *)
let open_loop cfg ~sock ~rng ~pick ~rate ~seconds =
  let n = int_of_float (float_of_int rate *. seconds) in
  let schedule = Array.init n (fun k -> (pick rng, float_of_int k /. float_of_int rate)) in
  let start = now () +. 0.05 in
  let k = ref 0 in
  drive ~sock ~traced:cfg.traced (fun () ->
      if !k >= n then None
      else begin
        let p, off = schedule.(!k) in
        incr k;
        Some (p, Some (start +. off))
      end)

let pct q s =
  if Report.Samples.length s = 0 then 0. else Prim.Stats.percentile q (Report.Samples.to_list s)

(* The open-loop ladder: latency at each fixed rate, printed but not part
   of the result — its p99 swings with scheduler noise on a small box.
   The highest rate whose p99 from due time is within 20 ms, with no
   failures and the generator less than 100 ms late at the end, is the
   daemon's sustainable rate. Returns the number of wrong responses. *)
let open_ladder cfg ~sock ~rng ~pick =
  let best, bad =
    List.fold_left
      (fun (best, bad) rate ->
        let c = open_loop cfg ~sock ~rng ~pick ~rate ~seconds:2. in
        let n = Report.Samples.length c.late in
        let end_late = if n = 0 then 0. else c.late.Report.Samples.a.(n - 1) in
        let p99 = 1e3 *. pct 99. c.lat in
        Printf.printf
          "# open loop %5d req/s: p50 %.3f ms  p99 %.3f ms  generator late p99 %.3f ms, at end \
           %.3f ms  failed %d\n"
          rate (1e3 *. pct 50. c.lat) p99 (1e3 *. pct 99. c.late) (1e3 *. end_late) c.bad;
        ((if p99 <= 20. && c.bad = 0 && end_late < 0.1 then rate else best), bad + c.bad))
      (0, 0) [ 2500; 5000; 10000 ]
  in
  Printf.printf "# open loop: highest rate within a 20 ms p99: %d req/s\n" best;
  bad

let prometheus_value text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.

(* The traced daemon's own counters (it runs with --metrics), read over
   the Stats frame before it drains. *)
let daemon_counters ~sock =
  match Daemon.Client.connect ~timeout_s:10. sock with
  | Error e -> failwith ("stats connection: " ^ e)
  | Ok k ->
    let r = Daemon.Client.stats k Daemon.Protocol.Stats_prometheus in
    Daemon.Client.close k;
    (match r with
     | Ok text -> prometheus_value text
     | Error e -> failwith ("stats query: " ^ e))

(* Set-up: prefill a fresh cache directory, start the daemon on it and
   wait until it accepts connections. *)
type daemon_setup = {
  pairs : pair array;
  bad : int;  (** prefill solves that failed their checks, unclean drains *)
  pid : int;
  sock : string;
  setup_s : float;
  prefill_s : float;
}

let daemon_setup cfg i =
  let dir = Filename.concat cfg.work (Printf.sprintf "daemon-cache-%d" i) in
  let sock = Filename.concat cfg.work (Printf.sprintf "d%d.sock" i) in
  let log = Filename.concat cfg.work (Printf.sprintf "daemon-%d.log" i) in
  let t0 = now () in
  let (pairs, bad), prefill_s = timed (fun () -> prefill cfg dir) in
  let pid = start_daemon cfg ~dir ~sock ~log in
  { pairs; bad; pid; sock; setup_s = now () -. t0; prefill_s }

let daemon_phase cfg =
  (* every set-up but the last is torn down again *)
  let setups =
    repeat cfg.setups (fun i ->
        let s = daemon_setup cfg i in
        if i = cfg.setups - 1 then s
        else
          let clean = Proc.terminate s.pid = Unix.WEXITED 0 in
          { s with bad = (s.bad + if clean then 0 else 1) })
  in
  let d = List.nth setups (cfg.setups - 1) in
  let drained = ref None in
  let drain () =
    match !drained with
    | Some st -> st
    | None ->
      let st = Proc.terminate d.pid in
      drained := Some st;
      st
  in
  (* the daemon is stopped however this process ends *)
  at_exit (fun () -> ignore (drain ()));
  Fun.protect ~finally:(fun () -> ignore (drain ())) @@ fun () ->
  let rng = Prim.Rng.create cfg.seed in
  let pick = zipf rng d.pairs in
  let c, wall_s = timed (fun () -> closed_loop cfg ~sock:d.sock ~rng ~pick) in
  let counters = if cfg.traced then Some (daemon_counters ~sock:d.sock) else None in
  let open_bad =
    if cfg.traced && not cfg.smoke then open_ladder cfg ~sock:d.sock ~rng ~pick else 0
  in
  let rss_mb = Proc.peak_rss_mb (Some d.pid) in
  let clean = drain () = Unix.WEXITED 0 in
  (* every distinct record served, re-certified once against its
     architecture in exact arithmetic *)
  let uncertified =
    Hashtbl.fold
      (fun _ (p, record) acc ->
        match Mapping_io.record_of_string record with
        | Ok (_, m)
          when Certify.Certificate.is_certified
                 (Certify.Mapping_cert.check p.solved.Layers.arch m) ->
          acc
        | _ -> acc + 1)
      c.records 0
  in
  let setup_bad = List.fold_left (fun a s -> a + s.bad) 0 setups in
  let pairs = Array.to_list d.pairs in
  let extra =
    match counters with
    | None -> []
    | Some v ->
      let count name = int_of_float (v name) in
      ("serve.pool_efficiency", Layers.pool_efficiency ~jobs:1 ~wall_s:d.prefill_s)
      :: Layers.cluster_metrics
           (Some
              { Serve.Schedule_cache.hits = count "cosa_serve_cache_hit_mem";
                disk_hits = count "cosa_serve_cache_hit_disk";
                misses = count "cosa_serve_cache_miss";
                disk_rejects = count "cosa_serve_cache_disk_reject";
                evictions = count "cosa_serve_cache_eviction";
                stores = count "cosa_serve_cache_store" })
      @ [ ( "daemon.fastpath_share",
            Layers.ratio (v "cosa_daemon_fastpath_served") (v "cosa_daemon_served") );
          ( "daemon.serve_share",
            Layers.ratio c.serve_s (Report.Samples.sum c.lat) ) ]
  in
  {
    attempted =
      List.length pairs * cfg.setups + Report.Samples.length c.lat + Hashtbl.length c.records;
    failed = setup_bad + c.bad + open_bad + uncertified + if clean then 0 else 1;
    setup_s = List.map (fun s -> s.setup_s) setups;
    ops = Report.Samples.length c.lat;
    wall_s;
    latency = c.lat;
    cycles = List.map (fun p -> p.cycles) pairs;
    rss_mb;
    digest = digest (List.map (fun p -> p.aname ^ "/" ^ p.text) pairs);
    solved = List.map (fun p -> p.solved) pairs;
    extra;
  }

(* ---- the table ---------------------------------------------------------------------- *)

type workload = {
  name : string;
  why : string;
  tail : float;
      (** the percentile [op_tail_ms] reports: the highest with at least ten
          samples beyond it in every run (p90 of ~100 ops, p99 of thousands) *)
  phase : cfg -> phase;
  probe : (cfg -> unit) option;
      (** what a [perf.exe setup-probe] child does before it reports ready *)
}

let sched name sp why =
  let probe cfg =
    let layers, _ = sched_inputs sp cfg in
    Prim.Rng.shuffle (Prim.Rng.create cfg.seed) layers
  in
  { name; why; tail = 90.; phase = sched_phase ~name sp; probe = Some probe }

let all =
  [ sched "sched-two-stage" two_stage
      "milp does ~99% of the work on ~13-row LPs where the warm dual, the prefix-chain factor \
       cache and B&B are hot: the simplex-diet workload";
    sched "sched-joint" joint
      "the same milp layer on ~120-200-row joint LPs, above the prefix chain's 32-row cutoff: \
       a small-LP mechanism must not move it";
    { name = "batch-resnet";
      why =
        "pool solves with write-through stores in set-up, then restart passes served from disk \
         and re-certified: the cache tier on the batch path";
      tail = 99.;
      phase = batch_phase;
      probe = None };
    { name = "daemon-zipf";
      why =
        "Zipf requests to cosa_cli serve, memory hits beside disk hits that re-certify, \
         promote and evict; no solver work: the cache tier on the daemon path";
      tail = 99.;
      phase = daemon_phase;
      probe = None } ]

let find name = List.find_opt (fun w -> w.name = name) all
