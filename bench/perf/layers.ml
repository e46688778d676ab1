(* Per-layer measurement for the traced run.

   Three sources, none of which adds instrumentation inside the program:
   - the program's existing counters and span aggregates ([milp_metrics],
     read after the workload ran with the telemetry sink armed);
   - a stage replay of the MIP rung of [Cosa.schedule] through its public
     stages, each call timed by a [bench.*] span from this file
     ([replay]), beside a timed [Cosa.schedule] call of the same layer;
     both must reproduce the workload's schedule, and the stages must
     account for the schedule call's wall time;
   - direct calls into the cache tier over the workload's schedules
     ([cache_probes]).

   Stage spans are recorded through [Telemetry.Trace] (category [bench],
   one request id per replayed layer) and read back from its per-name
   aggregates. *)

(* One schedule a workload produced or served, with what produced it. *)
type solved = {
  arch : Spec.t;
  layer : Layer.t;
  strategy : Cosa.strategy;
  node_limit : int;
  mapping : Mapping.t;
}

let span name f = Telemetry.Trace.with_span ~cat:"bench" name f

let profile name =
  match List.find_opt (fun (n, _, _) -> n = name) (Telemetry.Trace.profile_entries ()) with
  | Some (_, count, total) -> (count, total)
  | None -> (0, 0.)

let ratio a b = if b > 0. then a /. b else 0.

(* ---- program counters ----------------------------------------------------- *)

let milp_metrics () =
  let snap = Telemetry.Metrics.snapshot () in
  let c name = float_of_int (Telemetry.Metrics.counter_value snap name) in
  let _, bb_s = profile "bb.solve" in
  let _, simplex_s = profile "simplex.solve" in
  let nodes = c "bb.nodes" in
  let solves = c "simplex.solves" in
  [ ("milp.bb_s", bb_s);
    ("milp.simplex_s", simplex_s);
    ("milp.bb_self_s", bb_s -. simplex_s);
    ("milp.nodes", nodes);
    ( "milp.simplex_iterations",
      c "simplex.phase1_iterations" +. c "simplex.phase2_iterations"
      +. c "simplex.dual_iterations" );
    ("milp.nodes_per_s", ratio nodes bb_s);
    ("milp.refactorizations", c "simplex.refactorizations");
    ("milp.factor_hit_ratio", ratio (c "simplex.factor_cache_hits") solves);
    ("milp.factor_extensions", c "simplex.factor_extensions");
    ("milp.warm_solve_ratio", ratio (c "simplex.warm_solves") solves) ]

(* Σ pool-task time over the pool's capacity while it ran ([wall_s]). *)
let pool_efficiency ~jobs ~wall_s =
  let _, task_s = profile "serve.task" in
  ratio task_s (float_of_int jobs *. wall_s)

(* ---- stage replay ----------------------------------------------------------- *)

(* The stages of one MIP rung, in the order [Cosa.schedule] runs them. *)
let stages =
  [ ("bench.sampler", "warm-start sampler");
    ("bench.formulate", "Cosa_formulation.build");
    ("bench.mip_start", "Cosa_formulation.mip_start");
    ("bench.bb", "Milp.Bb.solve");
    ("bench.decode", "decode_r/best_noc_order/repair");
    ("bench.lp_cert", "Lp_cert.check");
    ("bench.mapping_cert", "Mapping_cert.check");
    ("bench.evaluate", "Model.evaluate");
    ("bench.objective", "Cosa_objective.of_mapping") ]

(* Mirrors the MIP rung of [Cosa.schedule] under a node-bound budget:
   the best of 8 sampled valid mappings (seed 0x5eed) as MIP start, the
   formulation, branch and bound, decode and repair, both certificates,
   the arbitration's model evaluation and the result's objective. *)
let replay_one (s : solved) =
  let weights = Cosa.calibrate s.arch in
  let joint = s.strategy = Cosa.Joint in
  let warm =
    span "bench.sampler" (fun () ->
        let rng = Prim.Rng.create 0x5eed in
        List.fold_left
          (fun best _ ->
            match Sampler.valid rng s.arch s.layer with
            | None -> best
            | Some m ->
              let total = (Cosa_objective.of_mapping ~weights s.arch m).Cosa_objective.total in
              (match best with Some (b, _) when b <= total -> best | _ -> Some (total, m)))
          None (List.init 8 Fun.id))
  in
  let f =
    span "bench.formulate" (fun () ->
        Cosa_formulation.build ~weights ~joint_permutation:joint s.arch s.layer)
  in
  let warm_start =
    span "bench.mip_start" (fun () ->
        Option.bind warm (fun (_, m) -> Cosa_formulation.mip_start f m))
  in
  let res =
    span "bench.bb" (fun () ->
        Milp.Bb.solve ~node_limit:s.node_limit ~time_limit:600.
          ~priority:f.Cosa_formulation.priority ~gap:0.05 ?warm_start ~warm_lp:true
          f.Cosa_formulation.lp)
  in
  let decoded =
    span "bench.decode" (fun () ->
        match Cosa_decode.decode_r f res with
        | Error e -> Error (Robust.Failure.to_string e)
        | Ok m ->
          let m = if joint then m else Cosa_decode.best_noc_order ~weights s.arch m in
          let m, _ = Cosa_decode.repair s.arch m in
          if Mapping.is_valid s.arch m then Ok m else Error "decoded mapping invalid")
  in
  Result.bind decoded (fun m ->
      let lp =
        span "bench.lp_cert" (fun () ->
            Certify.Lp_cert.check ~obj:res.Milp.Bb.obj f.Cosa_formulation.lp
              res.Milp.Bb.values)
      in
      let mc = span "bench.mapping_cert" (fun () -> Certify.Mapping_cert.check s.arch m) in
      ignore (span "bench.evaluate" (fun () -> Model.evaluate s.arch m));
      ignore (span "bench.objective" (fun () -> Cosa_objective.of_mapping ~weights s.arch m));
      if Certify.Certificate.is_certified (Certify.Certificate.combine lp mc) then Ok (m, f)
      else Error "replayed schedule failed certification")

let text = Mapping_io.to_string

(* Replay every schedule next to a timed [Cosa.schedule] call of the same
   layer — measured seconds apart, so machine drift cannot open a gap
   between the two, and alternating which runs first, so neither always
   runs on solver caches the other just warmed. Prints the stage table
   with its [unattributed] row. Returns the stage metrics, the number of
   schedules that failed or disagreed with the workload's, and the stage
   coverage of the [Cosa.schedule] wall time, in percent. *)
let replay solved =
  let rows = ref 0 and cols = ref 0 and mismatches = ref 0 in
  let mismatch (s : solved) what =
    incr mismatches;
    Printf.printf "# %s on %s (%s)\n" what s.layer.Layer.name s.arch.Spec.aname
  in
  List.iteri
    (fun i s ->
      Telemetry.Trace.with_request ~id:(Int64.of_int (i + 1)) ~hop:0 (fun () ->
          let schedule () =
            span "bench.schedule" (fun () ->
                Cosa.schedule ~strategy:s.strategy ~node_limit:s.node_limit ~time_limit:600.
                  ~certify:Cosa.Strict s.arch s.layer)
          in
          let r, replayed =
            if i mod 2 = 0 then
              let r = schedule () in
              (r, replay_one s)
            else
              let replayed = replay_one s in
              (schedule (), replayed)
          in
          if text r.Cosa.mapping <> text s.mapping then mismatch s "schedule differs";
          match replayed with
          | Ok (m, f) ->
            let p = Milp.Bb.relax f.Cosa_formulation.lp in
            rows := !rows + p.Milp.Simplex.nrows;
            cols := !cols + p.Milp.Simplex.ncols;
            if text m <> text s.mapping then mismatch s "replayed schedule differs"
          | Error e -> mismatch s ("replay failed: " ^ e)))
    solved;
  let n = float_of_int (max 1 (List.length solved)) in
  let _, wall = profile "bench.schedule" in
  let totals = List.map (fun (name, _) -> (name, profile name)) stages in
  let covered = List.fold_left (fun acc (_, (_, t)) -> acc +. t) 0. totals in
  Printf.printf "# stage replay over %d schedules (%.3f s of Cosa.schedule wall)\n"
    (List.length solved) wall;
  Printf.printf "#   %-18s %-32s %7s %11s %7s\n" "stage" "call" "calls" "total_ms" "share";
  List.iter2
    (fun (name, call) (_, (count, total)) ->
      Printf.printf "#   %-18s %-32s %7d %11.3f %6.2f%%\n" name call count (1e3 *. total)
        (100. *. ratio total wall))
    stages totals;
  Printf.printf "#   %-18s %-32s %7s %11.3f %6.2f%%\n" "unattributed" "" "" (1e3 *. (wall -. covered))
    (100. *. ratio (wall -. covered) wall);
  let ms name = 1e3 *. snd (profile name) /. n in
  let metrics =
    [ ("core.formulate_ms", ms "bench.formulate");
      ("core.lp_rows", float_of_int !rows /. n);
      ("core.lp_cols", float_of_int !cols /. n);
      ("core.mip_start_ms", ms "bench.sampler" +. ms "bench.mip_start");
      ("core.decode_ms", ms "bench.decode" +. ms "bench.objective");
      ("certify.lp_ms", ms "bench.lp_cert");
      ("certify.mapping_ms", ms "bench.mapping_cert");
      ("amodel.evaluate_us", 1e3 *. ms "bench.evaluate") ]
  in
  (metrics, !mismatches, 100. *. ratio covered wall)

(* ---- cache tier ------------------------------------------------------------- *)

let source_of = function
  | Cosa.Joint -> Cosa.Milp_joint
  | _ -> Cosa.Milp_two_stage

(* Store every schedule into a fresh sharded tier (write-through, fsync),
   probe each from memory, then open a second tier over the same
   directory and probe each from disk (re-certified). Returns the metrics
   and the number of probes that missed. *)
let cache_probes ~dir solved =
  let fresh () =
    Cluster.Sharded_cache.create ~dir ~capacity:(4 * max 16 (List.length solved)) ~shards:4 ()
  in
  let keyed =
    List.map
      (fun s ->
        let weights = Cosa.calibrate s.arch in
        let fp =
          Serve.Fingerprint.make ~weights ~strategy:s.strategy ~certify:Cosa.Strict s.arch
            s.layer
        in
        let o = Cosa.breakdown_of_mapping ~weights s.arch s.mapping in
        let meta =
          { Mapping_io.weights = Some (weights.Cosa.w_util, weights.Cosa.w_comp, weights.Cosa.w_traf);
            strategy = Cosa.strategy_to_string s.strategy;
            source = Cosa.source_to_string (source_of s.strategy);
            verdict = "ok";
            objective = Some (o.Cosa.util, o.Cosa.comp, o.Cosa.traf, o.Cosa.total);
            solve_time = 0. }
        in
        (s, fp, { Serve.Schedule_cache.meta; mapping = s.mapping }))
      solved
  in
  let misses = ref 0 in
  let probe cache name =
    List.iter
      (fun ((s : solved), fp, _) ->
        match
          span name (fun () -> Cluster.Sharded_cache.find cache ~arch:s.arch ~layer:s.layer fp)
        with
        | Some _ -> ()
        | None -> incr misses)
      keyed
  in
  let warm = fresh () in
  List.iter
    (fun (_, fp, entry) -> span "bench.store" (fun () -> Cluster.Sharded_cache.store warm fp entry))
    keyed;
  probe warm "bench.probe";
  probe (fresh ()) "bench.disk_probe";
  let mean name = let c, t = profile name in ratio t (float_of_int c) in
  ( [ ("serve.store_ms", 1e3 *. mean "bench.store");
      ("serve.probe_us", 1e6 *. mean "bench.probe");
      ("serve.disk_probe_us", 1e6 *. mean "bench.disk_probe") ],
    !misses )

let cluster_metrics (st : Serve.Schedule_cache.stats option) =
  let hits, disk, misses, evictions =
    match st with
    | None -> (0, 0, 0, 0)
    | Some s ->
      Serve.Schedule_cache.(s.hits, s.disk_hits, s.misses, s.evictions)
  in
  [ ("cluster.mem_hits", float_of_int hits);
    ("cluster.disk_hits", float_of_int disk);
    ("cluster.evictions", float_of_int evictions);
    ( "cluster.hit_ratio",
      ratio (float_of_int (hits + disk)) (float_of_int (hits + disk + misses)) ) ]
