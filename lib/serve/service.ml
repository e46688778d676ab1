(* The batch scheduling service.

   [schedule_network] turns a whole-network request into the minimum amount
   of solver work: entries are deduplicated by fingerprint (via
   [Network.distinct] — shape-equal layers share one solve), the cache is
   probed for each distinct shape, and only the misses go to the domain
   pool. The cache is domain-safe, but the coordinating domain does all of
   this request's cache traffic, before and after the fan-out; the pool
   only ever runs [Cosa.schedule], whose state is all request-local.
   Results are expanded by each shape's summed repeat count into
   repetition-weighted network latency/energy totals, and an optional
   fusion stage annotates the result. *)

(* Telemetry: one counter tick and a solve-time sample per pool solve
   (cache hits are free and deliberately not sampled), and a "serve.batch"
   span bracketing the whole request so traces show probe / fan-out /
   store as one region per network. *)
let m_solves = Telemetry.Metrics.counter "serve.solves"

let h_solve_time =
  Telemetry.Metrics.histogram ~buckets:Telemetry.Metrics.duration_buckets
    "serve.solve_time_s"

type config = {
  arch : Spec.t;
  weights : Cosa.weights;
  strategy : Cosa.strategy;
  certify : Cosa.certify_mode;
  node_limit : int;  (* per-attempt branch-and-bound node budget *)
  time_limit : float;  (* per-layer budget, as in [Cosa.schedule] *)
  deadline : Robust.Deadline.t;  (* batch-wide absolute deadline *)
  jobs : int;
  warm_start : bool;  (* LP warm starting inside B&B (parent-basis reuse) *)
}

let config ?weights ?(strategy = Cosa.Auto) ?(certify = Cosa.Warn) ?(node_limit = 50_000)
    ?(time_limit = 4.) ?(deadline = Robust.Deadline.none) ?(jobs = 1)
    ?(warm_start = true) arch =
  {
    arch;
    weights = (match weights with Some w -> w | None -> Cosa.calibrate arch);
    strategy;
    certify;
    node_limit;
    time_limit;
    deadline;
    jobs = max 1 jobs;
    warm_start;
  }

type origin = Cache_memory | Cache_disk | Cache_peer | Solved of Cosa.source

let origin_to_string = function
  | Cache_memory -> "cache(mem)"
  | Cache_disk -> "cache(disk)"
  | Cache_peer -> "cache(peer)"
  | Solved s -> Cosa.source_to_string s

type fuse_mode = Fuse_off | Fuse_chains | Fuse_auto

let fuse_mode_to_string = function
  | Fuse_off -> "off"
  | Fuse_chains -> "chains"
  | Fuse_auto -> "auto"

type served = {
  mapping : Mapping.t;
  objective : Cosa.objective_breakdown;
  origin : origin;
  verdict : string;  (* certification verdict token: ok / skipped / failed *)
  solve_time : float;  (* this request's wall time for the shape; ~0 on hits *)
  fallback_chain : Robust.Failure.t list;  (* empty for cache hits *)
}

type layer_report = {
  layer : Layer.t;
  repeats : int;
  served : (served, Robust.Failure.t) result;
  latency : float;  (* per instance, model cycles; 0 when failed *)
  energy_pj : float;
}

type report = {
  network_name : string;
  layers : layer_report list;  (* one per distinct shape, network order *)
  instances : int;
  distinct : int;
  served_from_cache : int;
  failed : int;
  total_latency : float;  (* repetition-weighted cycles *)
  total_energy_pj : float;
  solve_p50 : float;
  solve_p95 : float;
  cache_stats : Schedule_cache.stats option;
  wall_time : float;
  fusion : Fuse.Plan.network_plan option;  (* [None] unless fusion was asked for *)
}

let verdict_token = function
  | Cosa.Cert_skipped -> "skipped"
  | Cosa.Cert_ok -> "ok"
  | Cosa.Cert_failed _ -> "failed"

let meta_of_result cfg (r : Cosa.result) =
  {
    Mapping_io.weights =
      Some (cfg.weights.Cosa.w_util, cfg.weights.Cosa.w_comp, cfg.weights.Cosa.w_traf);
    strategy = Cosa.strategy_to_string cfg.strategy;
    source = Cosa.source_to_string r.Cosa.source;
    verdict = verdict_token r.Cosa.certification;
    objective =
      Some
        ( r.Cosa.objective.Cosa.util, r.Cosa.objective.Cosa.comp,
          r.Cosa.objective.Cosa.traf, r.Cosa.objective.Cosa.total );
    solve_time = r.Cosa.solve_time;
  }

(* The content fingerprint a request for [layer] resolves to under this
   config's base strategy — the key full-quality solves are stored under.
   Exposed so the daemon can route per-shard admission statistics and the
   harnesses can predict shard placement. *)
let request_fingerprint cfg layer =
  Fingerprint.make ~weights:cfg.weights ~strategy:cfg.strategy ~certify:cfg.certify
    cfg.arch layer

(* One cache probe as the service sees it: the local cache first, then on
   a miss the warm-peer [remote], called with no shard lock held. A record
   the remote returns (re-certified by contract) is written through to the
   local cache and served as [Cache_peer]. *)
let probe ~remote ~count_miss cache cfg layer fp =
  match Schedule_cache.find ~count_miss cache ~arch:cfg.arch ~layer fp with
  | Some (e, Schedule_cache.Memory) -> Some (e, Cache_memory)
  | Some (e, Schedule_cache.Disk) -> Some (e, Cache_disk)
  | None ->
    Option.bind remote (fun remote ->
        Option.map
          (fun e ->
            Schedule_cache.store cache fp e;
            (e, Cache_peer))
          (remote ~arch:cfg.arch ~layer fp))

let schedule_network_impl ?tier ?remote ?(count_miss = true) ?rung cfg
    (net : Network.t) =
  let t0 = Robust.Deadline.now () in
  (* Per-request rung override (the daemon's admission controller): the
     selected ladder rung pins the solve strategy for this request only.
     [Cache_probe] never solves — misses come back as typed
     [Deadline_exceeded] failures, the "certified answer or nothing"
     contract a nearly-expired SLO budget buys. *)
  let strategy_eff =
    match rung with
    | None | Some Robust.Ladder.Cache_probe -> cfg.strategy
    | Some Robust.Ladder.Joint -> Cosa.Joint
    | Some Robust.Ladder.Two_stage -> Cosa.Two_stage
    | Some Robust.Ladder.Heuristic -> Cosa.Heuristic
  in
  let cache_only = rung = Some Robust.Ladder.Cache_probe in
  let dedup = Network.distinct net in
  (* 1. probe the cache for every distinct shape (coordinator domain).
     Under a rung override probe the base-strategy key first: serving a
     cached full-quality schedule to a degraded request is always
     acceptable (it is the same request, answered better). *)
  let probed =
    List.map
      (fun ((e : Network.entry), reps) ->
        let fp_of strategy =
          Fingerprint.make ~weights:cfg.weights ~strategy ~certify:cfg.certify
            cfg.arch e.Network.layer
        in
        let fp_base = fp_of cfg.strategy in
        let fp = if strategy_eff = cfg.strategy then fp_base else fp_of strategy_eff in
        let hit =
          Option.bind tier (fun cache ->
              let find fp = probe ~remote ~count_miss cache cfg e.Network.layer fp in
              match find fp_base with
              | Some h -> Some h
              | None when cache_only ->
                (* entries live under the key of the strategy that solved
                   them; a cache-only probe accepts an answer from any
                   rung, best first *)
                List.fold_left
                  (fun acc s ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                      let fp' = fp_of s in
                      if Fingerprint.equal fp' fp_base then None else find fp')
                  None
                  [ Cosa.Joint; Cosa.Two_stage; Cosa.Heuristic ]
              | None when not (Fingerprint.equal fp fp_base) -> find fp
              | None -> None)
        in
        (e, reps, fp, hit))
      dedup
  in
  (* 2. fan the misses out over the domain pool *)
  let misses =
    List.filter_map
      (fun (e, _, fp, hit) -> if Option.is_none hit then Some (e, fp) else None)
      probed
  in
  let solve ((e : Network.entry), _fp) =
    let t = Robust.Deadline.now () in
    let r =
      Cosa.schedule ~weights:cfg.weights ~strategy:strategy_eff
        ~node_limit:cfg.node_limit ~time_limit:cfg.time_limit ~deadline:cfg.deadline
        ~certify:cfg.certify ~warm_start:cfg.warm_start cfg.arch e.Network.layer
    in
    let dt = Robust.Deadline.now () -. t in
    Telemetry.Metrics.incr m_solves;
    Telemetry.Metrics.observe h_solve_time dt;
    (r, dt)
  in
  let solved =
    if cache_only then
      (* a cache-only probe answers from the cache or not at all *)
      List.map (fun _ -> Error Robust.Failure.Deadline_exceeded) misses
    else Pool.run ~jobs:cfg.jobs solve misses
  in
  (* 3. store fresh certified results and index them (coordinator domain) *)
  let by_canon = Hashtbl.create 32 in
  List.iter2
    (fun (_, fp) res ->
      Hashtbl.replace by_canon (Fingerprint.canon fp) res;
      match (tier, res) with
      | Some cache, Ok ((r : Cosa.result), _) ->
        (* don't persist a schedule known to have failed certification *)
        (match r.Cosa.certification with
         | Cosa.Cert_failed _ -> ()
         | Cosa.Cert_skipped | Cosa.Cert_ok ->
           Schedule_cache.store cache fp
             { Schedule_cache.meta = meta_of_result cfg r; mapping = r.Cosa.mapping })
      | _ -> ())
    misses solved;
  (* 4. expand by repeats into the weighted report *)
  let layers =
    List.map
      (fun ((e : Network.entry), reps, fp, hit) ->
        let served =
          match hit with
          | Some ((entry : Schedule_cache.entry), origin) ->
            Ok
              {
                mapping = entry.Schedule_cache.mapping;
                objective =
                  Cosa.breakdown_of_mapping ~weights:cfg.weights cfg.arch
                    entry.Schedule_cache.mapping;
                origin;
                verdict = entry.Schedule_cache.meta.Mapping_io.verdict;
                solve_time = 0.;
                fallback_chain = [];
              }
          | None ->
            (match Hashtbl.find_opt by_canon (Fingerprint.canon fp) with
             | Some (Ok ((r : Cosa.result), dt)) ->
               Ok
                 {
                   mapping = r.Cosa.mapping;
                   objective = r.Cosa.objective;
                   origin = Solved r.Cosa.source;
                   verdict = verdict_token r.Cosa.certification;
                   solve_time = dt;
                   fallback_chain = r.Cosa.fallback_chain;
                 }
             | Some (Error f) -> Error f
             | None -> Error (Robust.Failure.Invalid_input "service: lost solve result"))
        in
        let latency, energy_pj =
          match served with
          | Ok s ->
            let ev = Model.evaluate cfg.arch s.mapping in
            (ev.Model.latency, ev.Model.energy_pj)
          | Error _ -> (0., 0.)
        in
        { layer = e.Network.layer; repeats = reps; served; latency; energy_pj })
      probed
  in
  let sum f = List.fold_left (fun acc lr -> acc +. f lr) 0. layers in
  (* Solve-time percentiles cover live solves only: cache hits cost ~0 and
     would otherwise dilute the distribution. An all-cache-hit (or empty,
     or all-failed) request has no solve-time distribution at all, so its
     percentiles are defined as exactly 0.0 rather than left to
     quantile-of-empty behavior. *)
  let solve_times =
    List.filter_map
      (fun lr ->
        match lr.served with
        | Ok ({ origin = Solved _; _ } as s) -> Some s.solve_time
        | Ok _ | Error _ -> None)
      layers
  in
  let p50, p95 =
    match solve_times with
    | [] -> (0., 0.)
    | ts ->
      (match Prim.Stats.quantiles [ 50.; 95. ] ts with
       | [ a; b ] -> (a, b)
       | _ -> (0., 0.))
  in
  {
    network_name = net.Network.nname;
    layers;
    instances = Network.layer_count net;
    distinct = List.length dedup;
    served_from_cache =
      List.length (List.filter (fun (_, _, _, h) -> Option.is_some h) probed);
    failed = List.length (List.filter (fun lr -> Result.is_error lr.served) layers);
    total_latency = sum (fun lr -> float_of_int lr.repeats *. lr.latency);
    total_energy_pj = sum (fun lr -> float_of_int lr.repeats *. lr.energy_pj);
    solve_p50 = p50;
    solve_p95 = p95;
    cache_stats = Option.map Schedule_cache.stats tier;
    wall_time = Robust.Deadline.now () -. t0;
    fusion = None;
  }

let schedule_network ?tier ?remote ?count_miss ?rung ?(fuse = Fuse_off) ?max_group cfg
    (net : Network.t) =
  let sp = Telemetry.Trace.begin_span ~cat:"serve" "serve.batch" in
  let r = schedule_network_impl ?tier ?remote ?count_miss ?rung cfg net in
  Telemetry.Trace.end_span
    ~args:
      ([ ("network", net.Network.nname); ("distinct", string_of_int r.distinct);
         ("cached", string_of_int r.served_from_cache) ]
      @ match rung with
        | None -> []
        | Some ru -> [ ("rung", Robust.Ladder.to_string ru) ])
    sp;
  (* Fusion is a purely additive second stage over the derived chains:
     nothing above depends on [fuse], so the per-layer report is the same
     in every mode. *)
  match fuse with
  | Fuse_off -> r
  | Fuse_chains | Fuse_auto ->
    let mode = if fuse = Fuse_auto then Fuse.Plan.Auto else Fuse.Plan.Chains in
    { r with
      fusion =
        Some
          (Fuse.Plan.plan_network ~mode ?max_group ~node_limit:cfg.node_limit
             ~time_limit:cfg.time_limit ~deadline:cfg.deadline cfg.arch net) }

let report_to_string r =
  let buf = Buffer.create 2048 in
  let tab =
    Prim.Texttab.create
      [ "layer"; "x"; "served by"; "cert"; "solve (s)"; "latency (cyc)"; "energy (pJ)" ]
  in
  List.iter
    (fun lr ->
      match lr.served with
      | Ok s ->
        Prim.Texttab.add_row tab
          [ lr.layer.Layer.name; string_of_int lr.repeats; origin_to_string s.origin;
            s.verdict; Printf.sprintf "%.3f" s.solve_time;
            Printf.sprintf "%.0f" lr.latency; Printf.sprintf "%.3g" lr.energy_pj ]
      | Error f ->
        Prim.Texttab.add_row tab
          [ lr.layer.Layer.name; string_of_int lr.repeats;
            "FAILED: " ^ Robust.Failure.to_string f; "-"; "-"; "-"; "-" ])
    r.layers;
  Buffer.add_string buf (Prim.Texttab.render tab);
  Buffer.add_string buf
    (Printf.sprintf "\nbatch %s: %d instances, %d distinct shapes, %d served from cache, %d failed\n"
       r.network_name r.instances r.distinct r.served_from_cache r.failed);
  Buffer.add_string buf
    (Printf.sprintf "total network latency: %.0f cycles\ntotal network energy: %.6g pJ\n"
       r.total_latency r.total_energy_pj);
  Buffer.add_string buf
    (Printf.sprintf "solve time p50/p95: %.3f/%.3f s\n" r.solve_p50 r.solve_p95);
  (match r.cache_stats with
   | Some s ->
     Buffer.add_string buf
       (Printf.sprintf
          "cache: hits=%d disk_hits=%d misses=%d disk_rejects=%d evictions=%d stores=%d\n"
          s.Schedule_cache.hits s.Schedule_cache.disk_hits s.Schedule_cache.misses
          s.Schedule_cache.disk_rejects s.Schedule_cache.evictions s.Schedule_cache.stores)
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "wall time: %.3f s\n" r.wall_time);
  Option.iter
    (fun plan -> Buffer.add_string buf ("\n" ^ Fuse.Plan.network_plan_to_string plan))
    r.fusion;
  Buffer.contents buf
