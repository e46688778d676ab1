(* Tests for the cross-layer fusion subsystem: chain derivation over a
   network's execution order, the exact-arithmetic fusion certifier
   (Certify.Fuse_cert), the MIP-backed fusion planner and its degradation
   provenance, and fusion as a purely additive stage of the per-layer
   service. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let arch = Spec.baseline

let certified what = function
  | Certify.Certificate.Certified -> ()
  | Certify.Certificate.Violated _ as c ->
    Alcotest.failf "%s: expected certified, got %s" what
      (Certify.Certificate.to_string c)

let violated_on what frag cert =
  match cert with
  | Certify.Certificate.Certified -> Alcotest.failf "%s: expected a violation" what
  | Certify.Certificate.Violated vs ->
    let mentions (v : Certify.Certificate.violation) =
      let name = v.Certify.Certificate.constraint_name in
      let n = String.length name and m = String.length frag in
      let rec go i = i + m <= n && (String.sub name i m = frag || go (i + 1)) in
      go 0
    in
    check_bool
      (Printf.sprintf "%s: some violation names %S (got: %s)" what frag
         (String.concat "; "
            (List.map (fun v -> v.Certify.Certificate.constraint_name) vs)))
      true
      (List.exists mentions vs)

let net_of ~name entries =
  { Network.nname = name;
    entries = List.map (fun (l, repeats) -> { Network.layer = l; repeats }) entries }

(* the ResNet-50 conv2_x bottleneck chain *)
let bn1 = Layer.create ~name:"bn1" ~r:1 ~s:1 ~p:56 ~q:56 ~c:256 ~k:64 ~n:1 ()
let bn2 = Layer.create ~name:"bn2" ~r:3 ~s:3 ~p:56 ~q:56 ~c:64 ~k:64 ~n:1 ()
let bn3 = Layer.create ~name:"bn3" ~r:1 ~s:1 ~p:56 ~q:56 ~c:64 ~k:256 ~n:1 ()

(* a small chain so planner/service tests stay fast *)
let sm1 = Layer.create ~name:"sm1" ~r:3 ~s:3 ~p:8 ~q:8 ~c:8 ~k:16 ~n:1 ()
let sm2 = Layer.create ~name:"sm2" ~r:3 ~s:3 ~p:8 ~q:8 ~c:16 ~k:16 ~n:1 ()
let sm3 = Layer.create ~name:"sm3" ~r:1 ~s:1 ~p:8 ~q:8 ~c:16 ~k:32 ~n:1 ()
let small_chain = net_of ~name:"small_chain" [ (sm1, 1); (sm2, 1); (sm3, 1) ]

(* ---- chain derivation ------------------------------------------------- *)

let test_adjacent () =
  check_bool "bn1 -> bn2" true (Fuse.Chain.adjacent bn1 bn2);
  check_bool "bn2 -> bn3" true (Fuse.Chain.adjacent bn2 bn3);
  (* channel mismatch: bn2 produces 64, bn1 consumes 256 *)
  check_bool "bn2 -> bn1 (channels)" false (Fuse.Chain.adjacent bn2 bn1);
  (* spatial mismatch through stride *)
  let half = Layer.create ~name:"half" ~stride:2 ~r:3 ~s:3 ~p:28 ~q:28 ~c:64 ~k:64 ~n:1 () in
  check_bool "bn2 -> stride-2 consumer" true (Fuse.Chain.adjacent bn2 half);
  let bad = Layer.create ~name:"bad" ~r:3 ~s:3 ~p:28 ~q:28 ~c:64 ~k:64 ~n:1 () in
  check_bool "bn2 -> 28x28 stride-1 consumer" false (Fuse.Chain.adjacent bn2 bad);
  (* batch mismatch *)
  let b4 = Layer.create ~name:"b4" ~r:3 ~s:3 ~p:56 ~q:56 ~c:64 ~k:64 ~n:4 () in
  check_bool "batch mismatch" false (Fuse.Chain.adjacent bn1 b4)

let test_derive_block () =
  let groups = Fuse.Chain.derive Network.resnet50_block in
  check_int "one group" 1 (List.length groups);
  let g = List.hd groups in
  check_int "three members" 3 (List.length g.Fuse.Chain.members);
  check_int "count 1" 1 g.Fuse.Chain.count;
  check_int "grouped instances" 3 (Fuse.Chain.grouped_instances groups)

let test_derive_max_group () =
  let groups = Fuse.Chain.derive ~max_group:2 Network.resnet50_block in
  check_int "one group of two" 1 (List.length groups);
  check_int "two members" 2 (List.length (List.hd groups).Fuse.Chain.members);
  (* the leftover single instance is not a group *)
  check_int "grouped instances" 2 (Fuse.Chain.grouped_instances groups)

let test_derive_dedup () =
  (* bn3 (k=256) feeds bn1 (c=256) at the same spatial extent, so listing
     the block twice is one maximal run of 6, cut into two identical
     3-chains that dedup to a single group with count 2 *)
  let net =
    net_of ~name:"two_blocks"
      [ (bn1, 1); (bn2, 1); (bn3, 1); (bn1, 1); (bn2, 1); (bn3, 1) ]
  in
  let groups = Fuse.Chain.derive net in
  check_int "one distinct group" 1 (List.length groups);
  check_int "count 2" 2 (List.hd groups).Fuse.Chain.count;
  check_int "grouped instances" 6 (Fuse.Chain.grouped_instances groups)

let test_derive_no_chain () =
  let a = Layer.create ~name:"a" ~r:1 ~s:1 ~p:8 ~q:8 ~c:8 ~k:8 ~n:1 () in
  let b = Layer.create ~name:"b" ~r:1 ~s:1 ~p:8 ~q:8 ~c:32 ~k:8 ~n:1 () in
  check_int "no fusable pair" 0
    (List.length (Fuse.Chain.derive (net_of ~name:"nc" [ (a, 1); (b, 1) ])))

let test_group_hash () =
  let g = List.hd (Fuse.Chain.derive Network.resnet50_block) in
  let h = Fuse.Chain.group_hash arch g in
  check_int "16 hex chars" 16 (String.length h);
  String.iter
    (fun c ->
      check_bool "hex digit" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    h;
  (* name-blind: renaming members does not move the content address *)
  let renamed =
    { g with
      Fuse.Chain.members =
        List.map
          (fun (l : Layer.t) ->
            Layer.create ~name:"x" ~stride:l.Layer.stride ~r:l.Layer.r ~s:l.Layer.s
              ~p:l.Layer.p ~q:l.Layer.q ~c:l.Layer.c ~k:l.Layer.k ~n:l.Layer.n ())
          g.Fuse.Chain.members }
  in
  check_bool "name-blind" true (Fuse.Chain.group_hash arch renamed = h);
  let shrunk = { g with Fuse.Chain.members = [ bn1; bn2 ] } in
  check_bool "shape-sensitive" false (Fuse.Chain.group_hash arch shrunk = h)

let test_derive_resnet50 () =
  let groups = Fuse.Chain.derive Network.resnet50 in
  check_int "twelve distinct chains" 12 (List.length groups);
  check_int "32 of 54 instances grouped" 32 (Fuse.Chain.grouped_instances groups)

(* ---- the fusion certifier --------------------------------------------- *)

let block_group = List.hd (Fuse.Chain.derive Network.resnet50_block)

(* the planner's own certified claim for the block chain *)
let honest_claim () =
  match (Fuse.Plan.plan_group arch block_group).Fuse.Plan.g_outcome with
  | Fuse.Plan.Independent fs ->
    Alcotest.failf "block chain failed to fuse: %s"
      (String.concat "; " (List.map Robust.Failure.to_string fs))
  | Fuse.Plan.Fused f ->
    let keep = Array.of_list f.Fuse.Plan.f_keep in
    let wres = Array.of_list f.Fuse.Plan.f_wres in
    { Certify.Fuse_cert.f_arch = arch;
      f_members =
        List.mapi
          (fun j l ->
            { Certify.Fuse_cert.m_layer = l;
              m_keep_output = (j < Array.length keep && keep.(j));
              m_weights_resident = wres.(j) })
          block_group.Fuse.Chain.members;
      f_bands = f.Fuse.Plan.f_bands;
      f_gb_reserve_bytes = f.Fuse.Plan.f_gb_reserve_bytes;
      f_peak_gb_bytes = f.Fuse.Plan.f_peak_gb_bytes;
      f_dram_words = f.Fuse.Plan.f_dram_words }

let test_cert_accepts_honest () =
  certified "planner claim" (Certify.Fuse_cert.check (honest_claim ()))

let test_cert_rejects_peak_lie () =
  let c = honest_claim () in
  violated_on "understated peak" "fuse gb peak"
    (Certify.Fuse_cert.check
       { c with Certify.Fuse_cert.f_peak_gb_bytes = c.Certify.Fuse_cert.f_peak_gb_bytes - 1 });
  violated_on "overstated peak" "fuse gb peak"
    (Certify.Fuse_cert.check
       { c with Certify.Fuse_cert.f_peak_gb_bytes = c.Certify.Fuse_cert.f_peak_gb_bytes + 1 })

let test_cert_rejects_dram_lie () =
  let c = honest_claim () in
  violated_on "understated DRAM" "fuse dram accounting"
    (Certify.Fuse_cert.check
       { c with Certify.Fuse_cert.f_dram_words = c.Certify.Fuse_cert.f_dram_words - 1 })

let test_cert_rejects_buffer_overflow () =
  (* one band with every edge kept: both 56x56x64 intermediates resident at
     once blows the global buffer ledger *)
  let c = honest_claim () in
  let members =
    List.mapi
      (fun j (m : Certify.Fuse_cert.member) ->
        { m with Certify.Fuse_cert.m_keep_output = j < 2 })
      c.Certify.Fuse_cert.f_members
  in
  violated_on "keep-all at one band" "fuse gb ledger"
    (Certify.Fuse_cert.check
       { c with Certify.Fuse_cert.f_members = members; f_bands = 1 })

let test_cert_rejects_bad_propagation () =
  (* a chain whose middle member does not consume its producer's tiles is
     not a chain at all: the certifier rejects it structurally *)
  let c = honest_claim () in
  let swapped =
    match c.Certify.Fuse_cert.f_members with
    | [ a; b; z ] -> [ a; z; b ]
    | _ -> Alcotest.fail "expected 3 members"
  in
  violated_on "broken producer->consumer shapes" "fuse adjacency"
    (Certify.Fuse_cert.check { c with Certify.Fuse_cert.f_members = swapped })

let test_cert_rejects_kept_final_output () =
  let c = honest_claim () in
  let members =
    List.mapi
      (fun j (m : Certify.Fuse_cert.member) ->
        if j = List.length c.Certify.Fuse_cert.f_members - 1 then
          { m with Certify.Fuse_cert.m_keep_output = true }
        else m)
      c.Certify.Fuse_cert.f_members
  in
  violated_on "network output never leaves chip" "fuse last output spilled"
    (Certify.Fuse_cert.check { c with Certify.Fuse_cert.f_members = members })

let test_cert_rejects_degenerate () =
  let c = honest_claim () in
  violated_on "zero bands" "fuse band count"
    (Certify.Fuse_cert.check { c with Certify.Fuse_cert.f_bands = 0 });
  violated_on "single member" "fuse group size"
    (Certify.Fuse_cert.check
       { c with
         Certify.Fuse_cert.f_members = [ List.hd c.Certify.Fuse_cert.f_members ] })

(* ---- the planner ------------------------------------------------------ *)

let test_plan_block_fuses () =
  let gp = Fuse.Plan.plan_group arch block_group in
  (match gp.Fuse.Plan.g_outcome with
   | Fuse.Plan.Fused f ->
     check_bool "fused beats independent" true
       (f.Fuse.Plan.f_dram_words < gp.Fuse.Plan.g_independent_words);
     check_bool "positive savings" true (Fuse.Plan.group_savings gp > 0)
   | Fuse.Plan.Independent fs ->
     Alcotest.failf "expected fused, got independent: %s"
       (String.concat "; " (List.map Robust.Failure.to_string fs)))

let test_plan_fault_degrades () =
  (* a certain fault at the planning site degrades the group to the
     independent baseline with Injected provenance — never a crash *)
  let gp =
    Robust.Fault.with_faults ~rate:1.0 ~only:[ "fuse.plan" ] 7 (fun () ->
        Fuse.Plan.plan_group arch block_group)
  in
  (match gp.Fuse.Plan.g_outcome with
   | Fuse.Plan.Fused _ -> Alcotest.fail "fused through an injected fault"
   | Fuse.Plan.Independent fs ->
     check_bool "Injected provenance" true
       (List.exists Robust.Failure.is_injected fs));
  check_int "no savings when degraded" 0 (Fuse.Plan.group_savings gp)

let test_plan_network_rollup () =
  let plan = Fuse.Plan.plan_network ~mode:Fuse.Plan.Chains arch Network.resnet50_block in
  check_int "one group" 1 (List.length plan.Fuse.Plan.p_groups);
  check_int "instances" 3 plan.Fuse.Plan.p_instances;
  check_int "grouped" 3 plan.Fuse.Plan.p_grouped_instances;
  check_bool "network fused total below independent" true
    (plan.Fuse.Plan.p_fused_dram_words < plan.Fuse.Plan.p_independent_dram_words);
  (* Auto keeps a strictly beneficial fusion *)
  let auto = Fuse.Plan.plan_network ~mode:Fuse.Plan.Auto arch Network.resnet50_block in
  check_bool "auto keeps beneficial fusion" true
    (match (List.hd auto.Fuse.Plan.p_groups).Fuse.Plan.g_outcome with
     | Fuse.Plan.Fused _ -> true
     | Fuse.Plan.Independent _ -> false)

(* ---- fusion is additive over the per-layer service ------------------- *)

let serve_config ?(strategy = Cosa.Heuristic) ?jobs () =
  Serve.Service.config ~strategy ~node_limit:2_000 ~time_limit:60. ?jobs arch

(* equality on everything deterministic (mappings, objectives, totals,
   failure provenance) — wall-clock fields excluded *)
let same_report (a : Serve.Service.report) (b : Serve.Service.report) =
  let same_layer (x : Serve.Service.layer_report) (y : Serve.Service.layer_report) =
    Layer.key x.Serve.Service.layer = Layer.key y.Serve.Service.layer
    && x.Serve.Service.repeats = y.Serve.Service.repeats
    && x.Serve.Service.latency = y.Serve.Service.latency
    && x.Serve.Service.energy_pj = y.Serve.Service.energy_pj
    &&
    match (x.Serve.Service.served, y.Serve.Service.served) with
    | Ok sx, Ok sy ->
      sx.Serve.Service.mapping = sy.Serve.Service.mapping
      && sx.Serve.Service.objective = sy.Serve.Service.objective
      && sx.Serve.Service.verdict = sy.Serve.Service.verdict
      && sx.Serve.Service.fallback_chain = sy.Serve.Service.fallback_chain
    | Error fx, Error fy -> fx = fy
    | _ -> false
  in
  a.Serve.Service.network_name = b.Serve.Service.network_name
  && a.Serve.Service.instances = b.Serve.Service.instances
  && a.Serve.Service.distinct = b.Serve.Service.distinct
  && a.Serve.Service.failed = b.Serve.Service.failed
  && a.Serve.Service.total_latency = b.Serve.Service.total_latency
  && a.Serve.Service.total_energy_pj = b.Serve.Service.total_energy_pj
  && List.length a.Serve.Service.layers = List.length b.Serve.Service.layers
  && List.for_all2 same_layer a.Serve.Service.layers b.Serve.Service.layers

let test_fuse_chains_same_base () =
  (* fusion never perturbs the per-layer answers it annotates *)
  let cfg = serve_config () in
  let plain = Serve.Service.schedule_network cfg small_chain in
  let fused =
    Serve.Service.schedule_network ~fuse:Serve.Service.Fuse_chains cfg small_chain
  in
  check_bool "fusion present" true (fused.Serve.Service.fusion <> None);
  check_bool "base report unchanged" true (same_report plain fused)

let prop_fuse_chains_same_report =
  QCheck.Test.make ~name:"--fuse=chains adds only the plan, at any jobs" ~count:12
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 1)))
    (fun (jobs, which) ->
      let net = if which = 0 then small_chain else Network.resnet50_block in
      let cfg = serve_config ~jobs () in
      let plain = Serve.Service.schedule_network cfg net in
      let fused = Serve.Service.schedule_network ~fuse:Serve.Service.Fuse_chains cfg net in
      plain.Serve.Service.fusion = None
      && fused.Serve.Service.fusion <> None
      && same_report plain fused)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "fuse",
    [
      Alcotest.test_case "adjacency" `Quick test_adjacent;
      Alcotest.test_case "derive: bottleneck block" `Quick test_derive_block;
      Alcotest.test_case "derive: max_group cuts runs" `Quick test_derive_max_group;
      Alcotest.test_case "derive: dedup with counts" `Quick test_derive_dedup;
      Alcotest.test_case "derive: no fusable pair" `Quick test_derive_no_chain;
      Alcotest.test_case "group hash: stable content address" `Quick test_group_hash;
      Alcotest.test_case "derive: ResNet-50 chains" `Quick test_derive_resnet50;
      Alcotest.test_case "cert: honest claim accepted" `Quick test_cert_accepts_honest;
      Alcotest.test_case "cert: peak lie rejected" `Quick test_cert_rejects_peak_lie;
      Alcotest.test_case "cert: understated DRAM rejected" `Quick
        test_cert_rejects_dram_lie;
      Alcotest.test_case "cert: buffer overflow rejected" `Quick
        test_cert_rejects_buffer_overflow;
      Alcotest.test_case "cert: broken tile propagation rejected" `Quick
        test_cert_rejects_bad_propagation;
      Alcotest.test_case "cert: kept final output rejected" `Quick
        test_cert_rejects_kept_final_output;
      Alcotest.test_case "cert: degenerate claims rejected" `Quick
        test_cert_rejects_degenerate;
      Alcotest.test_case "plan: block chain fuses and saves" `Quick
        test_plan_block_fuses;
      Alcotest.test_case "plan: injected fault degrades typed" `Quick
        test_plan_fault_degrades;
      Alcotest.test_case "plan: network rollup and Auto" `Quick
        test_plan_network_rollup;
      Alcotest.test_case "serve: fusion leaves base report alone" `Quick
        test_fuse_chains_same_base;
      qc prop_fuse_chains_same_report;
    ] )
