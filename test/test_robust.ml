(* Robustness layer: typed failures, deadline propagation, deterministic
   fault injection, and the Cosa degradation ladder — including the
   ResNet-50 fault-injection soak. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let failure = Alcotest.testable Robust.Failure.pp Robust.Failure.equal

let arch = Spec.baseline
let tiny = Layer.create ~name:"rob_tiny" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 ()

(* --- Deadline --- *)

let test_deadline_none () =
  check_bool "never expires" false (Robust.Deadline.expired Robust.Deadline.none);
  check_bool "infinite remaining" true
    (Robust.Deadline.remaining Robust.Deadline.none = infinity);
  check_bool "not finite" false (Robust.Deadline.is_finite Robust.Deadline.none)

let test_deadline_zero () =
  let d = Robust.Deadline.after 0. in
  check_bool "expired immediately" true (Robust.Deadline.expired d);
  Alcotest.(check (float 0.)) "no time remaining" 0. (Robust.Deadline.remaining d);
  (match Robust.Deadline.check d with
   | Error f -> Alcotest.check failure "typed" Robust.Failure.Deadline_exceeded f
   | Ok () -> Alcotest.fail "expected expiry");
  (* negative budgets clamp to an immediate expiry, not the past *)
  check_bool "negative expires" true (Robust.Deadline.expired (Robust.Deadline.after (-5.)))

let test_deadline_future () =
  let d = Robust.Deadline.after 60. in
  check_bool "not yet expired" false (Robust.Deadline.expired d);
  let r = Robust.Deadline.remaining d in
  check_bool "remaining in (0, 60]" true (r > 0. && r <= 60.);
  check_bool "tighten picks earlier" true
    (Robust.Deadline.expired
       (Robust.Deadline.tighten d (Robust.Deadline.after 0.)));
  check_bool "tighten vs none keeps finite" true
    (Robust.Deadline.is_finite (Robust.Deadline.tighten Robust.Deadline.none d))

(* --- Fault injection --- *)

let test_fault_disarmed () =
  Robust.Fault.disarm ();
  check_bool "disarmed" false (Robust.Fault.armed ());
  for _ = 1 to 100 do
    check_bool "never fires" false (Robust.Fault.fire "anywhere")
  done

let test_fault_rates () =
  Robust.Fault.with_faults ~rate:0. 7 (fun () ->
      for _ = 1 to 100 do
        check_bool "rate 0 never fires" false (Robust.Fault.fire "site")
      done);
  Robust.Fault.with_faults ~rate:1. 7 (fun () ->
      for _ = 1 to 100 do
        check_bool "rate 1 always fires" true (Robust.Fault.fire "site")
      done;
      check_int "all logged" 100 (Robust.Fault.fired_count ()))

let test_fault_deterministic () =
  let run () =
    Robust.Fault.with_faults ~rate:0.3 42 (fun () ->
        for _ = 1 to 200 do
          ignore (Robust.Fault.fire "a");
          ignore (Robust.Fault.fire "b")
        done;
        Robust.Fault.fired ())
  in
  let first = run () in
  check_bool "some faults fired" true (List.length first > 0);
  check_bool "replay identical" true (first = run ());
  (* a different seed gives a different schedule *)
  let other =
    Robust.Fault.with_faults ~rate:0.3 43 (fun () ->
        for _ = 1 to 200 do
          ignore (Robust.Fault.fire "a");
          ignore (Robust.Fault.fire "b")
        done;
        Robust.Fault.fired ())
  in
  check_bool "seed changes schedule" true (first <> other)

let test_fault_only_filter () =
  Robust.Fault.with_faults ~rate:1. ~only:[ "a" ] 9 (fun () ->
      check_bool "selected site fires" true (Robust.Fault.fire "a");
      check_bool "other site quiet" false (Robust.Fault.fire "b"))

let test_fault_disarms_on_exception () =
  (try
     Robust.Fault.with_faults ~rate:1. 3 (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "disarmed after raise" false (Robust.Fault.armed ())

(* --- Simplex typed entry point --- *)

(* min x  s.t.  x = 1,  0 <= x <= 10 *)
let tiny_lp () =
  {
    Milp.Simplex.nrows = 1;
    ncols = 1;
    cols = [| ([| 0 |], [| 1. |]) |];
    cost = [| 1. |];
    lb = [| 0. |];
    ub = [| 10. |];
    rhs = [| 1. |];
  }

let test_simplex_deadline () =
  match Milp.Simplex.solve_r ~deadline:(Robust.Deadline.after 0.) (tiny_lp ()) with
  | Error f -> Alcotest.check failure "deadline" Robust.Failure.Deadline_exceeded f
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded"

let test_simplex_injected () =
  Robust.Fault.with_faults ~rate:1. ~only:[ "simplex.pivot" ] 1 (fun () ->
      match Milp.Simplex.solve_r (tiny_lp ()) with
      | Error f ->
        Alcotest.check failure "injected" (Robust.Failure.Injected "simplex.pivot") f
      | Ok _ -> Alcotest.fail "expected injected fault")

let test_simplex_clean_solve_matches () =
  match Milp.Simplex.solve_r (tiny_lp ()) with
  | Error f -> Alcotest.fail (Robust.Failure.to_string f)
  | Ok r ->
    check_bool "optimal" true (r.Milp.Simplex.status = Milp.Simplex.Optimal);
    Alcotest.(check (float 1e-9)) "x = 1" 1. r.Milp.Simplex.x.(0)

(* --- Branch and bound --- *)

let test_bb_infeasible_clean () =
  (* x integer in [0, 1] with x = 3: proved infeasible, no typed failures *)
  let m = Milp.Lp.create () in
  let x = Milp.Lp.add_var m ~integer:true ~lb:0. ~ub:1. "x" in
  Milp.Lp.add_constr m [ (1., x) ] Milp.Lp.Eq 3.;
  let r = Milp.Bb.solve m in
  check_bool "infeasible" true (r.Milp.Bb.status = Milp.Bb.Infeasible);
  check_int "no failures swallowed" 0 (List.length r.Milp.Bb.failures)

let feasible_model () =
  (* max x + y, x,y integer in [0, 3], x + y <= 4 *)
  let m = Milp.Lp.create () in
  let x = Milp.Lp.add_var m ~integer:true ~lb:0. ~ub:3. "x" in
  let y = Milp.Lp.add_var m ~integer:true ~lb:0. ~ub:3. "y" in
  Milp.Lp.add_constr m [ (1., x); (1., y) ] Milp.Lp.Le 4.;
  Milp.Lp.set_objective m `Maximize [ (1., x); (1., y) ];
  m

let test_bb_deadline_reported () =
  let r = Milp.Bb.solve ~deadline:(Robust.Deadline.after 0.) (feasible_model ()) in
  check_bool "no solution" true (r.Milp.Bb.status = Milp.Bb.No_solution);
  check_bool "deadline recorded" true
    (List.exists
       (Robust.Failure.equal Robust.Failure.Deadline_exceeded)
       r.Milp.Bb.failures)

let test_bb_faulted_nodes_recorded () =
  Robust.Fault.with_faults ~rate:1. ~only:[ "bb.node" ] 5 (fun () ->
      let r = Milp.Bb.solve (feasible_model ()) in
      check_bool "no solution when every node faults" true
        (r.Milp.Bb.status = Milp.Bb.No_solution);
      check_bool "injected failures recorded" true
        (List.exists Robust.Failure.is_injected r.Milp.Bb.failures));
  (* a warm start survives a total node blackout: anytime behaviour *)
  Robust.Fault.with_faults ~rate:1. ~only:[ "bb.node" ] 5 (fun () ->
      let r = Milp.Bb.solve ~warm_start:[| 1.; 2. |] (feasible_model ()) in
      check_bool "warm incumbent kept" true (r.Milp.Bb.status = Milp.Bb.Feasible);
      Alcotest.(check (float 1e-9)) "warm objective" 3. r.Milp.Bb.obj)

(* --- Decode --- *)

let test_decode_r_empty () =
  let f = Cosa_formulation.build arch tiny in
  let empty =
    { Milp.Bb.status = Milp.Bb.No_solution; obj = nan; values = [||]; bound = nan;
      nodes = 0; simplex_iterations = 0; elapsed = 0.; failures = [] }
  in
  (match Cosa_decode.decode_r f empty with
   | Error f -> Alcotest.check failure "typed" Robust.Failure.Decode_failed f
   | Ok _ -> Alcotest.fail "expected Decode_failed")

(* --- Degradation ladder --- *)

let test_ladder_happy_path () =
  let r = Cosa.schedule ~time_limit:2. arch tiny in
  check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping);
  check_int "no fallbacks on the happy path" 0 (List.length r.Cosa.fallback_chain);
  check_bool "MILP produced it" true
    (match r.Cosa.source with
     | Cosa.Milp_joint | Cosa.Milp_two_stage -> true
     | Cosa.Heuristic_sampler | Cosa.Trivial -> false)

let test_ladder_zero_budget () =
  let r = Cosa.schedule ~time_limit:0. arch tiny in
  check_bool "valid even at 0s budget" true (Mapping.is_valid arch r.Cosa.mapping);
  check_bool "trivial rung" true (r.Cosa.source = Cosa.Trivial);
  check_bool "no solution" true (r.Cosa.solver_status = Milp.Bb.No_solution);
  Alcotest.(check (list failure)) "chain is the deadline"
    [ Robust.Failure.Deadline_exceeded ] r.Cosa.fallback_chain

let test_ladder_decode_fault () =
  Robust.Fault.with_faults ~rate:1. ~only:[ "decode.decode" ] 11 (fun () ->
      let r = Cosa.schedule ~time_limit:2. arch tiny in
      check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping);
      check_bool "heuristic rung" true (r.Cosa.source = Cosa.Heuristic_sampler);
      check_bool "decode fault in chain" true
        (List.exists
           (Robust.Failure.equal (Robust.Failure.Injected "decode.decode"))
           r.Cosa.fallback_chain))

let test_ladder_walks_to_trivial () =
  (* kill the MIP start, every LP, and the sampler: only the trivial rung
     can answer, and the chain explains each dead rung *)
  Robust.Fault.with_faults ~rate:1.
    ~only:[ "cosa.warm"; "simplex.pivot"; "sampler.valid" ] 13 (fun () ->
      let r = Cosa.schedule ~time_limit:2. arch tiny in
      check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping);
      check_bool "trivial rung" true (r.Cosa.source = Cosa.Trivial);
      check_bool "injected failure recorded" true
        (List.exists Robust.Failure.is_injected r.Cosa.fallback_chain);
      check_bool "sampler exhaustion recorded" true
        (List.exists
           (Robust.Failure.equal Robust.Failure.Infeasible)
           r.Cosa.fallback_chain))

let test_schedule_never_exceeds_budget () =
  let layer = Zoo.find "3_14_256_256_1" in
  let r = Cosa.schedule ~time_limit:0.5 arch layer in
  check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping);
  check_bool "within 20% slack of the budget" true (r.Cosa.solve_time <= 0.6)

(* --- Fault-injection soak: all ResNet-50 layers, several seeds --- *)

let test_resnet_fault_soak () =
  let layers = List.assoc "ResNet-50" Zoo.suites in
  let budget = 2.0 in
  let fellback = ref 0 in
  List.iter
    (fun seed ->
      Robust.Fault.with_faults ~rate:0.02 seed (fun () ->
          List.iter
            (fun (layer : Layer.t) ->
              let r = Cosa.schedule ~node_limit:2_000 ~time_limit:budget arch layer in
              let tag = Printf.sprintf "seed %d %s" seed layer.Layer.name in
              check_bool (tag ^ " valid") true (Mapping.is_valid arch r.Cosa.mapping);
              check_bool
                (Printf.sprintf "%s within deadline (%.2fs)" tag r.Cosa.solve_time)
                true
                (r.Cosa.solve_time <= budget *. 1.2);
              if r.Cosa.fallback_chain <> [] then incr fellback)
            layers))
    [ 1; 2; 3; 4; 5 ];
  (* at a 2% per-visit rate the pivot loop is hit constantly, so a healthy
     harness must actually have exercised the ladder *)
  check_bool "faults actually degraded some solves" true (!fellback > 0)

(* --- Domain-parallel armed soak: the fault plan is process-global and
   the service pool solves on spawned domains, so every domain mutates
   the plan's streams/visits/log concurrently. This is the regression
   test for the plan's internal mutex: under tsan-like interleaving a
   race corrupts the visit hashtables or drops log entries. --- *)

let test_fault_armed_domain_parallel () =
  let layers =
    [ Layer.create ~name:"dp_a" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 ();
      Layer.create ~name:"dp_b" ~r:3 ~s:3 ~p:4 ~q:4 ~c:4 ~k:8 ~n:1 ();
      Layer.create ~name:"dp_c" ~r:1 ~s:1 ~p:8 ~q:8 ~c:4 ~k:4 ~n:1 ();
      Layer.create ~name:"dp_d" ~r:3 ~s:3 ~p:2 ~q:2 ~c:8 ~k:4 ~n:1 () ]
  in
  let net =
    { Network.nname = "dp";
      entries = List.map (fun l -> { Network.layer = l; repeats = 1 }) layers }
  in
  let total_fired = ref 0 in
  List.iter
    (fun seed ->
      Robust.Fault.with_faults ~rate:0.05 seed (fun () ->
          let cfg =
            Serve.Service.config ~strategy:Cosa.Auto ~node_limit:2_000
              ~time_limit:2. ~jobs:4 arch
          in
          let report = Serve.Service.schedule_network cfg net in
          check_int
            (Printf.sprintf "seed %d: all layers served" seed)
            0 report.Serve.Service.failed;
          List.iter
            (fun (lr : Serve.Service.layer_report) ->
              match lr.Serve.Service.served with
              | Ok s ->
                check_bool "mapping valid under armed faults" true
                  (Mapping.is_valid arch s.Serve.Service.mapping)
              | Error f -> Alcotest.fail (Robust.Failure.to_string f))
            report.Serve.Service.layers;
          (* the log must be coherent: every entry names a known site with
             a sane visit index (a racy harness tears these) *)
          List.iter
            (fun (site, visit) ->
              check_bool "fired site is non-empty" true (String.length site > 0);
              check_bool "visit index sane" true (visit >= 0))
            (Robust.Fault.fired ());
          total_fired := !total_fired + Robust.Fault.fired_count ()))
    [ 7; 8; 9 ];
  check_bool "armed domain-parallel soak actually fired faults" true
    (!total_fired > 0)

let suite =
  ( "robust",
    [
      Alcotest.test_case "deadline none" `Quick test_deadline_none;
      Alcotest.test_case "deadline zero" `Quick test_deadline_zero;
      Alcotest.test_case "deadline future" `Quick test_deadline_future;
      Alcotest.test_case "fault disarmed" `Quick test_fault_disarmed;
      Alcotest.test_case "fault rates" `Quick test_fault_rates;
      Alcotest.test_case "fault deterministic" `Quick test_fault_deterministic;
      Alcotest.test_case "fault only filter" `Quick test_fault_only_filter;
      Alcotest.test_case "fault disarms on raise" `Quick test_fault_disarms_on_exception;
      Alcotest.test_case "simplex deadline" `Quick test_simplex_deadline;
      Alcotest.test_case "simplex injected" `Quick test_simplex_injected;
      Alcotest.test_case "simplex clean" `Quick test_simplex_clean_solve_matches;
      Alcotest.test_case "bb infeasible clean" `Quick test_bb_infeasible_clean;
      Alcotest.test_case "bb deadline" `Quick test_bb_deadline_reported;
      Alcotest.test_case "bb faulted nodes" `Quick test_bb_faulted_nodes_recorded;
      Alcotest.test_case "decode_r empty" `Quick test_decode_r_empty;
      Alcotest.test_case "ladder happy path" `Quick test_ladder_happy_path;
      Alcotest.test_case "ladder zero budget" `Quick test_ladder_zero_budget;
      Alcotest.test_case "ladder decode fault" `Quick test_ladder_decode_fault;
      Alcotest.test_case "ladder to trivial" `Quick test_ladder_walks_to_trivial;
      Alcotest.test_case "budget respected" `Quick test_schedule_never_exceeds_budget;
      Alcotest.test_case "resnet fault soak" `Slow test_resnet_fault_soak;
      Alcotest.test_case "fault armed jobs=4" `Quick test_fault_armed_domain_parallel;
    ] )
