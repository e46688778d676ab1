(* Tests for the batch scheduling service: fingerprints, the certified
   LRU schedule cache (memory + trust-but-verify disk tier, domain-safe at
   any shard count), the domain pool, the warm-peer fall-through, and the
   end-to-end service counters. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let arch = Spec.baseline
let weights = Cosa.calibrate arch

(* Small layers so every live solve in this suite is fast; node-bound
   two-stage solves are also deterministic (see the bench). *)
let layer_a = Layer.create ~name:"srv_a" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 ()
let layer_b = Layer.create ~name:"srv_b" ~r:3 ~s:3 ~p:4 ~q:4 ~c:4 ~k:8 ~n:1 ()
let layer_c = Layer.create ~name:"srv_c" ~r:1 ~s:1 ~p:8 ~q:8 ~c:4 ~k:4 ~n:1 ()

let fp ?(weights = weights) ?(strategy = Cosa.Two_stage) ?(certify = Cosa.Warn) layer =
  Serve.Fingerprint.make ~weights ~strategy ~certify arch layer

let entry_of layer =
  { Serve.Schedule_cache.meta = Mapping_io.default_meta;
    mapping = Cosa.trivial_mapping arch layer }

let fast_config ?jobs () =
  Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:2_000 ~time_limit:60.
    ?jobs arch

let net_of ~name entries =
  { Network.nname = name;
    entries = List.map (fun (l, repeats) -> { Network.layer = l; repeats }) entries }

(* ---- fingerprints ----------------------------------------------------- *)

let test_fingerprint () =
  (* name-blind: same shape under a different name is the same request *)
  let renamed = Layer.create ~name:"other" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 () in
  check_bool "name-blind equal" true (Serve.Fingerprint.equal (fp layer_a) (fp renamed));
  check_bool "hash agrees" true
    (Serve.Fingerprint.hash (fp layer_a) = Serve.Fingerprint.hash (fp renamed));
  (* every input the answer depends on separates requests *)
  check_bool "layers differ" false (Serve.Fingerprint.equal (fp layer_a) (fp layer_b));
  check_bool "weights differ" false
    (Serve.Fingerprint.equal (fp layer_a)
       (fp ~weights:{ weights with Cosa.w_util = weights.Cosa.w_util +. 1. } layer_a));
  check_bool "strategy differs" false
    (Serve.Fingerprint.equal (fp layer_a) (fp ~strategy:Cosa.Joint layer_a));
  check_bool "certify differs" false
    (Serve.Fingerprint.equal (fp layer_a) (fp ~certify:Cosa.Strict layer_a));
  check_int "hash is 16 hex chars" 16 (String.length (Serve.Fingerprint.hash (fp layer_a)))

(* ---- LRU memory tier -------------------------------------------------- *)

let test_lru_eviction () =
  let c = Serve.Schedule_cache.create ~capacity:2 () in
  let fa = fp layer_a and fb = fp layer_b and fc = fp layer_c in
  Serve.Schedule_cache.store c fa (entry_of layer_a);
  Serve.Schedule_cache.store c fb (entry_of layer_b);
  Alcotest.(check (list string))
    "most recent first"
    [ Serve.Fingerprint.hash fb; Serve.Fingerprint.hash fa ]
    (Serve.Schedule_cache.lru_keys c);
  (* a hit promotes a to the front, so b becomes the eviction victim *)
  check_bool "memory hit" true
    (match Serve.Schedule_cache.find c ~arch ~layer:layer_a fa with
     | Some (_, Serve.Schedule_cache.Memory) -> true
     | _ -> false);
  Serve.Schedule_cache.store c fc (entry_of layer_c);
  Alcotest.(check (list string))
    "b evicted at capacity"
    [ Serve.Fingerprint.hash fc; Serve.Fingerprint.hash fa ]
    (Serve.Schedule_cache.lru_keys c);
  check_int "length at capacity" 2 (Serve.Schedule_cache.length c);
  check_bool "evicted entry misses" true
    (Serve.Schedule_cache.find c ~arch ~layer:layer_b fb = None);
  let s = Serve.Schedule_cache.stats c in
  check_int "one eviction" 1 s.Serve.Schedule_cache.evictions;
  check_int "one hit" 1 s.Serve.Schedule_cache.hits;
  check_int "one miss" 1 s.Serve.Schedule_cache.misses;
  check_bool "capacity < 1 rejected" true
    (match Serve.Schedule_cache.create ~capacity:0 () with
     | exception Robust.Failure.Error (Robust.Failure.Invalid_input _) -> true
     | _ -> false)

(* ---- disk tier: trust-but-verify -------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "cosa_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* A mapping that parses fine but cannot certify: a stray extra factor of
   2 on C breaks the exact factorization product. *)
let uncertifiable_mapping layer =
  let m = Cosa.trivial_mapping arch layer in
  let levels = Array.copy m.Mapping.levels in
  let d = Array.length levels - 1 in
  levels.(d) <-
    { levels.(d) with
      Mapping.temporal =
        { Mapping.dim = Dims.C; bound = 2 } :: levels.(d).Mapping.temporal };
  Mapping.make layer levels

let overwrite_record dir f text =
  let path = Filename.concat dir (Serve.Fingerprint.hash f ^ ".cosa") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let framed f meta mapping =
  "key " ^ Serve.Fingerprint.canon f ^ "\n" ^ Mapping_io.record_to_string meta mapping

let test_disk_verify () =
  with_temp_dir (fun dir ->
      let f = fp layer_a in
      let good =
        let r = Cosa.schedule ~strategy:Cosa.Two_stage ~node_limit:2_000 arch layer_a in
        { Serve.Schedule_cache.meta = Mapping_io.default_meta; mapping = r.Cosa.mapping }
      in
      let fresh () = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      let c1 = fresh () in
      Serve.Schedule_cache.store c1 f good;
      (* a new process (fresh memory) verifies the record and promotes it *)
      let c2 = fresh () in
      (match Serve.Schedule_cache.find c2 ~arch ~layer:layer_a f with
       | Some (e, Serve.Schedule_cache.Disk) ->
         Alcotest.(check string)
           "disk mapping intact"
           (Mapping.fingerprint good.Serve.Schedule_cache.mapping)
           (Mapping.fingerprint e.Serve.Schedule_cache.mapping)
       | _ -> Alcotest.fail "expected a verified disk hit");
      check_bool "promoted to memory" true
        (match Serve.Schedule_cache.find c2 ~arch ~layer:layer_a f with
         | Some (_, Serve.Schedule_cache.Memory) -> true
         | _ -> false);
      (* corrupted: right key, uncertifiable mapping -> reject, no crash *)
      overwrite_record dir f
        (framed f Mapping_io.default_meta (uncertifiable_mapping layer_a));
      let c3 = fresh () in
      check_bool "uncertifiable record misses" true
        (Serve.Schedule_cache.find c3 ~arch ~layer:layer_a f = None);
      check_int "counted as disk reject" 1
        (Serve.Schedule_cache.stats c3).Serve.Schedule_cache.disk_rejects;
      (* stale: the file holds a different layer's schedule under our name *)
      overwrite_record dir f
        (framed f Mapping_io.default_meta (Cosa.trivial_mapping arch layer_b));
      check_bool "stale shape misses" true
        (Serve.Schedule_cache.find (fresh ()) ~arch ~layer:layer_a f = None);
      (* mismatched fingerprint frame (hash collision / moved file) *)
      overwrite_record dir f
        ("key somebody-else\n"
         ^ Mapping_io.record_to_string Mapping_io.default_meta
             good.Serve.Schedule_cache.mapping);
      check_bool "foreign key misses" true
        (Serve.Schedule_cache.find (fresh ()) ~arch ~layer:layer_a f = None);
      (* outright garbage *)
      overwrite_record dir f "key ";
      check_bool "garbage misses" true
        (Serve.Schedule_cache.find (fresh ()) ~arch ~layer:layer_a f = None))

(* A corrupted disk entry must fall through to a live solve — and the
   service then repairs the directory with the fresh result. *)
let test_disk_reject_falls_through () =
  with_temp_dir (fun dir ->
      let cfg = fast_config () in
      let f =
        Serve.Fingerprint.make ~weights:cfg.Serve.Service.weights
          ~strategy:cfg.Serve.Service.strategy ~certify:cfg.Serve.Service.certify arch
          layer_a
      in
      overwrite_record dir f
        (framed f Mapping_io.default_meta (uncertifiable_mapping layer_a));
      let cache = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      let net = net_of ~name:"one" [ (layer_a, 1) ] in
      let report = Serve.Service.schedule_network ~tier:cache cfg net in
      check_int "no failures" 0 report.Serve.Service.failed;
      check_int "not served from cache" 0 report.Serve.Service.served_from_cache;
      (match report.Serve.Service.layers with
       | [ lr ] ->
         check_bool "served by a live solve" true
           (match lr.Serve.Service.served with
            | Ok { Serve.Service.origin = Serve.Service.Solved _; _ } -> true
            | _ -> false)
       | _ -> Alcotest.fail "expected one layer report");
      (* the bad record was overwritten by the store-back: next process hits *)
      let c2 = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      check_bool "directory repaired" true
        (match Serve.Schedule_cache.find c2 ~arch ~layer:layer_a f with
         | Some (_, Serve.Schedule_cache.Disk) -> true
         | _ -> false))

(* ---- domain pool ------------------------------------------------------ *)

let test_pool_ordering_and_isolation () =
  let items = List.init 20 Fun.id in
  let sq = List.map (fun i -> Ok (i * i)) items in
  Alcotest.(check bool) "jobs=1 in order" true (Serve.Pool.run ~jobs:1 (fun i -> i * i) items = sq);
  Alcotest.(check bool) "jobs=4 in order" true (Serve.Pool.run ~jobs:4 (fun i -> i * i) items = sq);
  (* one failing task yields a typed Error in its slot, siblings unharmed *)
  let f i =
    if i = 7 then raise (Robust.Failure.Error Robust.Failure.Deadline_exceeded)
    else if i = 11 then failwith "plain exn"
    else i
  in
  let results = Serve.Pool.run ~jobs:4 f items in
  check_int "all slots present" 20 (List.length results);
  List.iteri
    (fun i r ->
      match (i, r) with
      | 7, Error Robust.Failure.Deadline_exceeded -> ()
      | 7, _ -> Alcotest.fail "slot 7 should carry its typed failure"
      | 11, Error (Robust.Failure.Invalid_input _) -> ()
      | 11, _ -> Alcotest.fail "slot 11 should wrap the stray exception"
      | _, Ok v -> check_int "slot value" i v
      | _, Error _ -> Alcotest.fail "healthy slot failed")
    results

(* jobs=1 and jobs=4 must produce byte-identical schedules when solves
   terminate on the (deterministic) node budget, not the wall clock. *)
let test_pool_determinism () =
  let net = net_of ~name:"det" [ (layer_a, 2); (layer_b, 1); (layer_c, 3) ] in
  let run jobs = Serve.Service.schedule_network (fast_config ~jobs ()) net in
  let render report =
    List.map
      (fun (lr : Serve.Service.layer_report) ->
        match lr.Serve.Service.served with
        | Ok s -> Mapping_io.to_string s.Serve.Service.mapping
        | Error f -> Robust.Failure.to_string f)
      report.Serve.Service.layers
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check (list string)) "schedules byte-identical" (render one) (render four);
  check_bool "latency identical" true
    (one.Serve.Service.total_latency = four.Serve.Service.total_latency);
  check_bool "energy identical" true
    (one.Serve.Service.total_energy_pj = four.Serve.Service.total_energy_pj)

(* ---- service counters and dedup --------------------------------------- *)

let test_service_counters () =
  (* two entries share layer_a's shape under different names *)
  let alias = Layer.create ~name:"srv_a_alias" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 () in
  let net = net_of ~name:"ctr" [ (layer_a, 2); (alias, 3); (layer_b, 1) ] in
  let cache = Serve.Schedule_cache.create ~capacity:16 () in
  let cfg = fast_config () in
  let r1 = Serve.Service.schedule_network ~tier:cache cfg net in
  check_int "instances" 6 r1.Serve.Service.instances;
  check_int "distinct shapes" 2 r1.Serve.Service.distinct;
  check_int "cold run misses everything" 0 r1.Serve.Service.served_from_cache;
  check_int "no failures" 0 r1.Serve.Service.failed;
  (* aliased entry collapsed into layer_a's report with summed repeats *)
  (match r1.Serve.Service.layers with
   | [ first; second ] ->
     check_int "summed repeats" 5 first.Serve.Service.repeats;
     check_int "other repeats" 1 second.Serve.Service.repeats
   | _ -> Alcotest.fail "expected two distinct layer reports");
  check_bool "weighted latency positive" true (r1.Serve.Service.total_latency > 0.);
  let r2 = Serve.Service.schedule_network ~tier:cache cfg net in
  check_int "warm run all from cache" 2 r2.Serve.Service.served_from_cache;
  check_bool "warm totals identical" true
    (r1.Serve.Service.total_latency = r2.Serve.Service.total_latency
    && r1.Serve.Service.total_energy_pj = r2.Serve.Service.total_energy_pj);
  let s = Serve.Schedule_cache.stats cache in
  check_int "memory hits" 2 s.Serve.Schedule_cache.hits;
  check_int "stores" 2 s.Serve.Schedule_cache.stores;
  check_bool "hit rate is half" true (Serve.Schedule_cache.hit_rate cache = 0.5)

(* ---- crash-safe disk writes ------------------------------------------- *)

(* A record truncated mid-frame (a crashed writer without the temp-file
   protocol, or torn storage) must behave as a miss, never a crash — and
   the cache must repair it on the next store. *)
let test_truncated_record_recovers () =
  with_temp_dir (fun dir ->
      let f = fp layer_a in
      let c1 = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      Serve.Schedule_cache.store c1 f (entry_of layer_a);
      let path = Filename.concat dir (Serve.Fingerprint.hash f ^ ".cosa") in
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      let c2 = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      check_bool "truncated record misses" true
        (Serve.Schedule_cache.find c2 ~arch ~layer:layer_a f = None);
      check_int "counted as disk reject" 1
        (Serve.Schedule_cache.stats c2).Serve.Schedule_cache.disk_rejects;
      (* store-back repairs the file: a fresh process gets a full record *)
      Serve.Schedule_cache.store c2 f (entry_of layer_a);
      let c3 = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      check_bool "repaired record hits" true
        (match Serve.Schedule_cache.find c3 ~arch ~layer:layer_a f with
         | Some (_, Serve.Schedule_cache.Disk) -> true
         | _ -> false))

(* Stale temp files from crashed writers are swept at create; completed
   writes never leave a .tmp behind. *)
let test_stale_tmp_sweep () =
  with_temp_dir (fun dir ->
      let litter = Filename.concat dir "deadbeef.cosa.12345.0.tmp" in
      Out_channel.with_open_bin litter (fun oc ->
          Out_channel.output_string oc "half a frame");
      let c = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      check_bool "stale tmp swept on create" true (not (Sys.file_exists litter));
      Serve.Schedule_cache.store c (fp layer_a) (entry_of layer_a);
      check_bool "no tmp litter after store" true
        (Array.for_all
           (fun n -> Filename.check_suffix n ".cosa")
           (Sys.readdir dir)))

(* [persist] rewrites every in-memory entry — the daemon's drain hook. *)
let test_persist_rewrites_memory () =
  with_temp_dir (fun dir ->
      let c = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      List.iter (fun l -> Serve.Schedule_cache.store c (fp l) (entry_of l))
        [ layer_a; layer_b; layer_c ];
      (* simulate a lost/corrupted directory *)
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      check_int "persist rewrites all entries" 3 (Serve.Schedule_cache.persist c);
      check_int "records back on disk" 3 (Array.length (Sys.readdir dir));
      let c2 = Serve.Schedule_cache.create ~dir ~capacity:8 () in
      check_bool "persisted record verifies" true
        (Serve.Schedule_cache.find c2 ~arch ~layer:layer_b (fp layer_b) <> None));
  (* no disk tier: persist is a no-op, not an error *)
  let mem = Serve.Schedule_cache.create ~capacity:8 () in
  Serve.Schedule_cache.store mem (fp layer_a) (entry_of layer_a);
  check_int "persist without dir" 0 (Serve.Schedule_cache.persist mem)

(* ---- percentile edge case --------------------------------------------- *)

(* All-cache-hit (or all-failed) reports have no live solves: the solve
   percentiles must be 0, not a crash or a cache-probe artifact. *)
let test_all_cache_hit_percentiles () =
  let net = net_of ~name:"pct" [ (layer_a, 1); (layer_b, 1) ] in
  let cache = Serve.Schedule_cache.create ~capacity:8 () in
  let cfg = fast_config () in
  let cold = Serve.Service.schedule_network ~tier:cache cfg net in
  check_bool "cold run has live percentiles" true (cold.Serve.Service.solve_p95 > 0.);
  let warm = Serve.Service.schedule_network ~tier:cache cfg net in
  check_int "warm run all from cache" 2 warm.Serve.Service.served_from_cache;
  check_bool "warm p50 is exactly 0" true (warm.Serve.Service.solve_p50 = 0.);
  check_bool "warm p95 is exactly 0" true (warm.Serve.Service.solve_p95 = 0.)

(* ---- per-request rung overrides --------------------------------------- *)

let test_rung_override () =
  let net = net_of ~name:"rung" [ (layer_a, 1) ] in
  let cache = Serve.Schedule_cache.create ~capacity:8 () in
  let cfg = fast_config () in
  (* Cache_probe on a cold cache: typed deadline failure, no solve *)
  let probe =
    Serve.Service.schedule_network ~tier:cache ~rung:Robust.Ladder.Cache_probe cfg net
  in
  check_int "cache-only probe fails typed" 1 probe.Serve.Service.failed;
  (match probe.Serve.Service.layers with
   | [ { Serve.Service.served = Error Robust.Failure.Deadline_exceeded; _ } ] -> ()
   | _ -> Alcotest.fail "expected Deadline_exceeded from a cache-only miss");
  (* Heuristic rung: sampler-only solve, stored under its own key *)
  let heur =
    Serve.Service.schedule_network ~tier:cache ~rung:Robust.Ladder.Heuristic cfg net
  in
  check_int "heuristic rung serves" 0 heur.Serve.Service.failed;
  (* full-quality solve fills the base key... *)
  let full = Serve.Service.schedule_network ~tier:cache cfg net in
  check_int "base solve ok" 0 full.Serve.Service.failed;
  (* ...and any degraded request now prefers the cached base answer *)
  let probe2 =
    Serve.Service.schedule_network ~tier:cache ~rung:Robust.Ladder.Cache_probe cfg net
  in
  check_int "probe hits after base solve" 1 probe2.Serve.Service.served_from_cache;
  (match probe2.Serve.Service.layers with
   | [ { Serve.Service.served = Ok s; _ } ] ->
     check_bool "served from cache" true
       (match s.Serve.Service.origin with
        | Serve.Service.Cache_memory | Serve.Service.Cache_disk
        | Serve.Service.Cache_peer -> true
        | Serve.Service.Solved _ -> false)
   | _ -> Alcotest.fail "expected a cache hit")

(* ---- one domain-safe cache at any shard count ------------------------- *)

(* Four domains store and probe overlapping fingerprints. Every hit must
   be the entry stored under its own fingerprint, and the counters must
   account for every call: no store or probe lost to a race. *)
let test_cache_domain_safety () =
  let keyed =
    Array.init 12 (fun i ->
        let l =
          Layer.create ~name:(Printf.sprintf "srv_dom_%d" i) ~r:1 ~s:1 ~p:4 ~q:4
            ~c:(4 * (i + 1)) ~k:8 ~n:1 ()
        in
        (l, fp l, entry_of l))
  in
  let domains = 4 and rounds = 2000 in
  List.iter
    (fun shards ->
      let c = Serve.Schedule_cache.create ~shards ~capacity:64 () in
      let worker d () =
        let stores = ref 0 and wrong = ref 0 in
        for r = 0 to rounds - 1 do
          (* each domain walks the key set from its own offset, so every
             key is stored and probed by several domains at once *)
          let l, f, e = keyed.(((3 * d) + r) mod Array.length keyed) in
          if r mod 3 = 0 then begin
            Serve.Schedule_cache.store c f e;
            incr stores
          end;
          match Serve.Schedule_cache.find c ~arch ~layer:l f with
          | Some (got, _) -> if got != e then incr wrong
          | None -> ()
        done;
        (!stores, !wrong)
      in
      let results =
        List.init domains (fun d -> Domain.spawn (worker d)) |> List.map Domain.join
      in
      let label what = Printf.sprintf "%d shards: %s" shards what in
      check_int (label "every find returns its own entry") 0
        (List.fold_left (fun a (_, w) -> a + w) 0 results);
      let st = Serve.Schedule_cache.stats c in
      check_int (label "stores counted")
        (List.fold_left (fun a (n, _) -> a + n) 0 results)
        st.Serve.Schedule_cache.stores;
      check_int (label "finds counted") (domains * rounds)
        (st.Serve.Schedule_cache.hits + st.Serve.Schedule_cache.disk_hits
        + st.Serve.Schedule_cache.misses))
    [ 1; 4 ]

(* ---- warm-peer fall-through ------------------------------------------- *)

(* A miss the remote answers is served as [Cache_peer] and written
   through; the next request hits memory, and a local hit never consults
   the remote. *)
let test_remote_fallthrough () =
  let cfg = fast_config () in
  let net = net_of ~name:"peer" [ (layer_a, 1) ] in
  let key = Serve.Service.request_fingerprint cfg layer_a in
  let calls = ref 0 in
  let remote ~arch:_ ~layer:_ f =
    incr calls;
    if Serve.Fingerprint.equal f key then Some (entry_of layer_a) else None
  in
  let cache = Serve.Schedule_cache.create ~capacity:8 () in
  let origin (r : Serve.Service.report) =
    match r.Serve.Service.layers with
    | [ { Serve.Service.served = Ok s; _ } ] ->
      Serve.Service.origin_to_string s.Serve.Service.origin
    | _ -> Alcotest.fail "expected one served layer"
  in
  let first = Serve.Service.schedule_network ~tier:cache ~remote cfg net in
  Alcotest.(check string) "remote answer served as peer" "cache(peer)" (origin first);
  check_int "remote consulted once" 1 !calls;
  check_int "written through" 1
    (Serve.Schedule_cache.stats cache).Serve.Schedule_cache.stores;
  let second = Serve.Service.schedule_network ~tier:cache ~remote cfg net in
  Alcotest.(check string) "next request hits memory" "cache(mem)" (origin second);
  check_int "local hit never consults the remote" 1 !calls

let suite =
  ( "serve",
    [
      Alcotest.test_case "fingerprint" `Quick test_fingerprint;
      Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
      Alcotest.test_case "disk trust-but-verify" `Quick test_disk_verify;
      Alcotest.test_case "disk reject falls through" `Quick test_disk_reject_falls_through;
      Alcotest.test_case "truncated record recovers" `Quick test_truncated_record_recovers;
      Alcotest.test_case "stale tmp sweep" `Quick test_stale_tmp_sweep;
      Alcotest.test_case "persist rewrites memory" `Quick test_persist_rewrites_memory;
      Alcotest.test_case "all-cache-hit percentiles" `Quick test_all_cache_hit_percentiles;
      Alcotest.test_case "rung override" `Quick test_rung_override;
      Alcotest.test_case "pool ordering and isolation" `Quick test_pool_ordering_and_isolation;
      Alcotest.test_case "pool determinism" `Quick test_pool_determinism;
      Alcotest.test_case "service counters" `Quick test_service_counters;
      Alcotest.test_case "cache domain-safe at 1 and 4 shards" `Quick
        test_cache_domain_safety;
      Alcotest.test_case "remote falls through behind misses" `Quick
        test_remote_fallthrough;
    ] )
