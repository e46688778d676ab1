(* Full benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section V) plus the DESIGN.md ablations, then runs
   the daemon soak, the warm-vs-cold sweep and the fusion gate.

   Run with: dune exec bench/main.exe
   One section: dune exec bench/main.exe -- exp|sweep|soak|fuse
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
  [ "experiments"; "warm_sweep"; "soak"; "fuse" ]

let write_results path =
  let fresh =
    (if !exp_ran then
       [ ("experiments",
          Printf.sprintf "[%s]" (String.concat "," (List.rev !exp_results))) ]
     else [])
    @ (match !sweep_result with Some s -> [ ("warm_sweep", s) ] | None -> [])
    @ (match !soak_result with Some s -> [ ("soak", s) ] | None -> [])
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
   | Some "fuse" -> fuse_benchmarks ()
   | Some other ->
     Printf.eprintf
       "unknown section %S (expected exp, sweep, soak, or fuse)\n"
       other;
     exit 2
   | None ->
     print_endline "CoSA reproduction: full experiment harness";
     print_endline "==========================================";
     run_experiments ();
     soak_benchmarks ();
     warm_sweep ();
     fuse_benchmarks ());
  Printf.printf "\nTotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0);
  write_results "BENCH_results.json"
