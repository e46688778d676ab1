(* Tests for the batch scheduling service: fingerprints, the certified
   LRU schedule cache (memory + trust-but-verify disk tier, domain-safe at
   any shard count), the sharded tier, the domain pool, and the
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
        | Serve.Service.Cache_memory | Serve.Service.Cache_disk -> true
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

(* ---- the on-disk key format ------------------------------------------- *)

(* Cache directories outlive the binary, so the canonical request string
   and its FNV-1a hash are pinned as the format was first written, and so
   is one record a previous version wrote. *)
let pinned_canon =
  String.concat ""
    [
     "layer=r3.s3.p56.q56.c64.k64.n1.st1|arch=levels=Register,64,W+IA+OA,64,0x";
     "1p+6,0x1.eb851eb851eb8p-5/AccBuf,3072,OA,1,0x1p+6,0x1.3333333333333p+0/W";
     "Buf,32768,W,1,0x1p+6,0x1.199999999999ap+1/InputBuf,8192,IA,16,0x1p+6,0x1";
     ".8p+0/GlobalBuf,131072,IA+OA,1,0x1p+4,0x1.8p+2/DRAM,4611686018427387903,";
     "W+IA+OA,1,0x1p+3,0x1.9p+7;noc_level=3;mac_level=0;noc=4x4,64,1,1,true,4,";
     "0x1.999999999999ap-1;dram=8,1024,20,50,64,0x1p+3;mac=0x1.3333333333333p-";
     "2;bits=W:8,IA:8,OA:24|weights=0x1p-1,0x1p+2,0x1p+0|strategy=two-stage|ce";
     "rtify=strict";
    ]

let pinned_body =
  String.concat ""
    [
     "layer 3_56_64_64_1 r=3 s=3 p=56 q=56 c=64 k=64 n=1 stride=1\n";
     "level 0 temporal S:3,R:3,Q:4,P:8 spatial C:4,K:16\n";
     "level 1 temporal K:2,C:16\n";
     "level 2\n";
     "level 3 spatial Q:7,K:2\n";
     "level 4 temporal P:7\n";
     "level 5 temporal Q:2\n";
    ]

let pinned_meta =
  { Mapping_io.weights = Some (0x1p-1, 0x1p+2, 0x1p+0); strategy = "two-stage";
    source = "two-stage MIP"; verdict = "ok";
    objective =
      Some
        ( 0x1.569b54db52ddp+5, 0x1.7891703bd93e2p+3, 0x1.2ff49a0efe967p+6,
          0x1.96967cf6167e4p+6 );
    solve_time = 0x1.f8d2p-7 }

let pinned_record =
  String.concat ""
    [
     "key " ^ pinned_canon ^ "\n";
     "@weights 0x1p-1 0x1p+2 0x1p+0\n";
     "@strategy two-stage\n";
     "@source two-stage MIP\n";
     "@certification ok\n";
     "@objective 0x1.569b54db52ddp+5 0x1.7891703bd93e2p+3 0x1.2ff49a0efe967p+6 \
      0x1.96967cf6167e4p+6\n";
     "@solve-time 0x1.f8d2p-7\n";
     pinned_body;
    ]

let test_key_format_pinned () =
  let f =
    Serve.Fingerprint.make ~weights:(Cosa.calibrate Spec.baseline) ~strategy:Cosa.Two_stage
      ~certify:Cosa.Strict Spec.baseline (Zoo.find "3_56_64_64_1")
  in
  Alcotest.(check string) "hash" "11acc6fb7d922281" (Serve.Fingerprint.hash f);
  check_int "canonical length" 516 (String.length (Serve.Fingerprint.canon f));
  Alcotest.(check string) "canonical string" pinned_canon (Serve.Fingerprint.canon f);
  let edge =
    Serve.Fingerprint.make ~weights:(Cosa.calibrate Spec.edge) ~strategy:Cosa.Joint
      ~certify:Cosa.Warn Spec.edge (Zoo.find "fc1000")
  in
  Alcotest.(check string) "edge hash" "212042b64a431245" (Serve.Fingerprint.hash edge);
  (* a record written under the pinned key comes back as a verified disk hit *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir (Serve.Fingerprint.hash f ^ ".cosa") in
      Out_channel.with_open_bin path (fun oc -> output_string oc pinned_record);
      let cache = Serve.Schedule_cache.create ~dir ~capacity:4 () in
      let layer = Zoo.find "3_56_64_64_1" in
      match Serve.Schedule_cache.find cache ~arch:Spec.baseline ~layer f with
      | Some (e, Serve.Schedule_cache.Disk) ->
        Alcotest.(check string) "mapping" pinned_body
          (Mapping_io.to_string e.Serve.Schedule_cache.mapping);
        check_bool "meta" true (e.Serve.Schedule_cache.meta = pinned_meta)
      | _ -> Alcotest.fail "expected the pinned record as a verified disk hit")

(* ---- the sharded tier ------------------------------------------------ *)

(* [Schedule_cache ~shards]: content-addressed placement, per-shard
   crash-safe persistence and independent recovery, the configurable
   stale-temp sweep, solve determinism through the sharded tier, and miss
   accounting under peek probes. These cases keep their own helpers:
   eight small distinct layers, and [fp]/[entry_of] over them. *)
module Sharded = struct
  let check_string = Alcotest.(check string)

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
end

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
      Alcotest.test_case "key format pinned" `Quick test_key_format_pinned;
      Alcotest.test_case "shard placement + aggregate stats" `Quick
        Sharded.test_shard_placement;
      Alcotest.test_case "per-shard persist/recover/corruption" `Quick
        Sharded.test_shard_persist_recover;
      Alcotest.test_case "stale-temp sweep age threshold" `Quick
        Sharded.test_tmp_sweep_age;
      Alcotest.test_case "jobs=1 = jobs=4 through sharded tier" `Slow
        Sharded.test_jobs_determinism;
      Alcotest.test_case "peek probes book no misses" `Quick
        Sharded.test_peek_no_miss_accounting;
    ] )
