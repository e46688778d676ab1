(* The incremental LU engine (lib/milp/lu.ml): eta-updated factorizations
   must agree with from-scratch refactorization, and the stability trigger
   must fire on engineered trouble. *)

module Lu = Milp.Lu

let pivot_tol = 1e-9

(* Build sparse columns (row indices ascending) from a dense matrix given
   column-major: cols.(j) is the dense column j. *)
let sparse_of_dense dense =
  Array.map
    (fun col ->
      let entries = ref [] in
      Array.iteri (fun i v -> if v <> 0. then entries := (i, v) :: !entries) col;
      let entries = List.rev !entries in
      ( Array.of_list (List.map fst entries),
        Array.of_list (List.map snd entries) ))
    dense

(* A random pool of well-conditioned columns: diagonally dominant ones
   (index j has a strong entry in row [j mod m]) plus random fill, so both
   the initial basis and most pivot candidates stay far from singular. *)
let random_pool_gen =
  let open QCheck.Gen in
  int_range 3 8 >>= fun m ->
  int_range (m + 2) (3 * m) >>= fun ncols ->
  let col j =
    array_size (return m) (float_range (-1.) 1.) >>= fun fill ->
    float_range 2. 4. >>= fun diag ->
    return
      (Array.init m (fun i ->
           if i = j mod m then diag else fill.(i) *. 0.4))
  in
  let rec cols j acc =
    if j >= ncols then return (Array.of_list (List.rev acc))
    else col j >>= fun c -> cols (j + 1) (c :: acc)
  in
  cols 0 [] >>= fun dense ->
  list_size (int_range 1 20) (int_range 0 (ncols - 1)) >>= fun pivots ->
  return (m, dense, pivots)

(* Drive the engine through a random pivot sequence: start from the basis
   [0..m-1], refactor, then for each candidate column ftran it, pick the
   largest-magnitude pivot row among usable ones, and eta-update. Returns
   the final basis (or None if no pivot was usable). *)
let run_pivots lu scratch cols basis pivots =
  Lu.refactor lu ~scratch ~cols ~basis ~pivot_tol;
  let m = Lu.dim lu in
  let alpha = Array.make m 0. in
  List.iter
    (fun j ->
      if not (Array.exists (( = ) j) basis) then begin
        Lu.ftran lu cols.(j) alpha;
        let r = ref (-1) in
        for i = 0 to m - 1 do
          if Float.abs alpha.(i) > 0.1
             && (!r < 0 || Float.abs alpha.(i) > Float.abs alpha.(!r))
          then r := i
        done;
        if !r >= 0 then begin
          Lu.update lu ~pivot_tol !r alpha;
          basis.(!r) <- j
        end
      end)
    pivots

let prop_eta_matches_scratch =
  QCheck.Test.make ~name:"eta-updated inverse agrees with refactorization"
    ~count:300 (QCheck.make random_pool_gen)
    (fun (m, dense, pivots) ->
      let cols = sparse_of_dense dense in
      let basis = Array.init m Fun.id in
      let scratch = Array.make_matrix m m 0. in
      let eta = Lu.create m in
      run_pivots eta scratch cols basis pivots;
      (* a second engine factorizes the final basis from scratch *)
      let fresh = Lu.create m in
      Lu.refactor fresh ~scratch ~cols ~basis ~pivot_tol;
      let a1 = Array.make m 0. and a2 = Array.make m 0. in
      let y1 = Array.make m 0. and y2 = Array.make m 0. in
      let tol = 1e-6 in
      let close a b =
        Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))
      in
      (* FTRAN of every pool column must agree *)
      Array.iter
        (fun col ->
          Lu.ftran eta col a1;
          Lu.ftran fresh col a2;
          for i = 0 to m - 1 do
            if not (close a1.(i) a2.(i)) then
              QCheck.Test.fail_reportf "ftran drift: %g vs %g" a1.(i) a2.(i)
          done)
        cols;
      (* BTRAN of a deterministic cost vector must agree *)
      let c = Array.init m (fun i -> if i mod 2 = 0 then 1. +. float_of_int i else 0.) in
      Lu.btran eta c y1;
      Lu.btran fresh c y2;
      for i = 0 to m - 1 do
        if not (close y1.(i) y2.(i)) then
          QCheck.Test.fail_reportf "btran drift: %g vs %g" y1.(i) y2.(i)
      done;
      (* and apply (dense FTRAN) on the all-ones vector *)
      let ones = Array.make m 1. in
      Lu.apply eta ones a1;
      Lu.apply fresh ones a2;
      for i = 0 to m - 1 do
        if not (close a1.(i) a2.(i)) then
          QCheck.Test.fail_reportf "apply drift: %g vs %g" a1.(i) a2.(i)
      done;
      true)

(* The stability trigger: absorbing a tiny pivot must demand an immediate
   refactorization even though the chain is short. *)
let test_stability_trigger () =
  let m = 3 in
  let lu = Lu.create m in
  let cols =
    sparse_of_dense (Array.init m (fun j -> Array.init m (fun i -> if i = j then 1. else 0.)))
  in
  let basis = Array.init m Fun.id in
  let scratch = Array.make_matrix m m 0. in
  Lu.refactor lu ~scratch ~cols ~basis ~pivot_tol;
  Alcotest.(check bool) "fresh factorization needs no refactor" false
    (Lu.trigger lu <> Lu.No_refactor);
  (* a benign pivot keeps the chain healthy *)
  Lu.update lu ~pivot_tol 0 [| 2.; 0.1; 0. |];
  Alcotest.(check bool) "healthy chain needs no refactor" false
    (Lu.trigger lu <> Lu.No_refactor);
  (* an ill-conditioned pivot (|alpha_r| = 1e-9 < 1e-7 floor) fires it *)
  Lu.update lu ~pivot_tol 1 [| 0.3; 1e-9; 0.2 |];
  (match Lu.trigger lu with
   | Lu.Stability -> ()
   | Lu.Chain -> Alcotest.fail "expected Stability trigger, got Chain"
   | Lu.No_refactor -> Alcotest.fail "stability trigger did not fire");
  Alcotest.(check int) "chain length counts both updates" 2 (Lu.chain_length lu);
  (* refactorizing clears the trigger *)
  Lu.refactor lu ~scratch ~cols ~basis ~pivot_tol;
  Alcotest.(check bool) "refactor resets the trigger" true
    (Lu.trigger lu = Lu.No_refactor)

(* The chain-length cap fires after eta_chain_cap benign updates, and a
   pinned interval replaces it. *)
let test_chain_and_interval () =
  let m = 2 in
  let lu = Lu.create m in
  let cols = sparse_of_dense [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let basis = [| 0; 1 |] in
  let scratch = Array.make_matrix m m 0. in
  Lu.refactor lu ~scratch ~cols ~basis ~pivot_tol;
  for _ = 1 to Lu.eta_chain_cap - 1 do
    Lu.update lu ~pivot_tol 0 [| 1.; 0. |]
  done;
  Alcotest.(check bool) "below the cap: no refactor" true
    (Lu.trigger lu = Lu.No_refactor);
  (* a pinned interval fires much earlier on the same chain *)
  Alcotest.(check bool) "pinned interval fires below the cap" true
    (Lu.trigger ~interval:5 lu = Lu.Chain);
  Lu.update lu ~pivot_tol 0 [| 1.; 0. |];
  (match Lu.trigger lu with
   | Lu.Chain -> ()
   | _ -> Alcotest.fail "chain cap did not fire at eta_chain_cap");
  Alcotest.(check (float 0.)) "benign pivots leave min_pivot at 1" 1.
    (Lu.min_pivot lu)

(* End-to-end: a warm child solve fed the parent's canonical factor must
   return bit-identical results to the same solve without it, and must not
   refactorize at all when the parent optimum survives the bound change. *)
let test_factor_handoff () =
  let p =
    { Milp.Simplex.nrows = 2; ncols = 2;
      cols = [| ([| 0 |], [| 1. |]); ([| 1 |], [| 1. |]) |];
      cost = [| 1.; 1. |]; lb = [| 0.; 0. |]; ub = [| 10.; 10. |];
      rhs = [| 4.; 3. |] }
  in
  let parent =
    match Milp.Simplex.solve_r p with Ok r -> r | Error _ -> Alcotest.fail "parent"
  in
  let wb = Option.get parent.Milp.Simplex.basis in
  let wf = parent.Milp.Simplex.factor in
  Alcotest.(check bool) "optimal solve returns a factor" true (wf <> None);
  (* tighten a bound that does not cut the parent optimum *)
  let child = { p with ub = [| 9.; 10. |] } in
  let with_factor =
    match Milp.Simplex.solve_r ~warm:wb ?warm_factor:wf child with
    | Ok r -> r
    | Error _ -> Alcotest.fail "warm+factor"
  in
  let without_factor =
    match Milp.Simplex.solve_r ~warm:wb child with
    | Ok r -> r
    | Error _ -> Alcotest.fail "warm"
  in
  Alcotest.(check bool) "factor handoff is bit-transparent" true
    (with_factor.Milp.Simplex.x = without_factor.Milp.Simplex.x
    && with_factor.Milp.Simplex.obj = without_factor.Milp.Simplex.obj);
  (* counter check: the factor-fed solve performs zero refactorizations *)
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Fun.protect ~finally:(fun () -> Telemetry.Sink.set Telemetry.Sink.Null)
  @@ fun () ->
  Telemetry.Metrics.reset ();
  (match Milp.Simplex.solve_r ~warm:wb ?warm_factor:wf child with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "warm+factor re-solve");
  let snap = Telemetry.Metrics.snapshot () in
  let count name = Telemetry.Metrics.counter_value snap name in
  Alcotest.(check int) "no refactorizations with a factor in hand" 0
    (count "simplex.refactorizations");
  Alcotest.(check bool) "the entry factor was reused" true
    (count "simplex.factor_reuses" >= 1)

(* A pinned --refactor-interval may change wall time only: results stay
   bit-identical to the stability-triggered default. *)
let test_refactor_interval_identity () =
  let p =
    { Milp.Simplex.nrows = 3; ncols = 4;
      cols =
        [| ([| 0; 1 |], [| 1.; 2. |]); ([| 0; 2 |], [| 3.; 1. |]);
           ([| 1; 2 |], [| 1.; 1. |]); ([| 0; 1 |], [| 1.; 1. |]) |];
      cost = [| -1.; -2.; -1.; -3. |];
      lb = [| 0.; 0.; 0.; 0. |]; ub = [| 5.; 5.; 5.; 5. |];
      rhs = [| 6.; 5.; 4. |] }
  in
  let a =
    match Milp.Simplex.solve_r p with Ok r -> r | Error _ -> Alcotest.fail "default"
  in
  let b =
    match Milp.Simplex.solve_r ~refactor_interval:1 p with
    | Ok r -> r
    | Error _ -> Alcotest.fail "interval"
  in
  Alcotest.(check bool) "refactor-interval=1 is bit-identical" true
    (a.Milp.Simplex.x = b.Milp.Simplex.x && a.Milp.Simplex.obj = b.Milp.Simplex.obj)

(* Determinism does not rest on the factor cache, which is domain-local: a
   warm solve handed only a basis (no factor) in a fresh domain starts from
   an empty cache and must still return the bits of a cold solve in
   another fresh domain. *)
let probe_lp =
  { Milp.Simplex.nrows = 3; ncols = 4;
    cols =
      [| ([| 0; 1 |], [| 1.3; 2.7 |]); ([| 0; 2 |], [| 3.1; 1.9 |]);
         ([| 1; 2 |], [| 1.7; 1.3 |]); ([| 0; 1; 2 |], [| 0.9; 1.1; 0.7 |]) |];
    cost = [| -1.1; -2.3; -1.7; -3.3 |];
    lb = [| 0.; 0.; 0.; 0. |]; ub = [| 5.; 5.; 5.; 5. |];
    rhs = [| 6.1; 5.3; 4.7 |] }

let solved = function Ok r -> r | Error _ -> Alcotest.fail "solve failed"

let bits (r : Milp.Simplex.result) =
  ( r.Milp.Simplex.status,
    Array.map Int64.bits_of_float r.Milp.Simplex.x,
    Int64.bits_of_float r.Milp.Simplex.obj )

let in_fresh_domain f = Domain.join (Domain.spawn f)

let test_fresh_domain_warm_is_cold () =
  let parent = solved (Milp.Simplex.solve_r probe_lp) in
  let wb = Option.get parent.Milp.Simplex.basis in
  let cold = in_fresh_domain (fun () -> bits (solved (Milp.Simplex.solve_r probe_lp))) in
  let was_warm, warm =
    in_fresh_domain (fun () ->
        let r = solved (Milp.Simplex.solve_r ~warm:wb probe_lp) in
        (r.Milp.Simplex.warm, bits r))
  in
  Alcotest.(check bool) "warm path taken" true was_warm;
  Alcotest.(check bool) "warm without a factor = cold, bit for bit" true (warm = cold)

(* A session keeps no result state between solves: LP A solved after other
   LPs of the same matrix — an infeasible one, whose cold crash leaves
   -1-signed artificials behind, and a warm one — gives the bits of a fresh
   session, cold and warm. *)
let test_session_reuse () =
  let a = { probe_lp with Milp.Simplex.ub = [| 5.; 1.; 5.; 5. |] } in
  let infeasible = { probe_lp with Milp.Simplex.lb = [| 3.; 3.; 3.; 3. |] } in
  let b = { probe_lp with Milp.Simplex.lb = [| 1.; 0.; 0.; 1. |] } in
  let wb = Option.get (solved (Milp.Simplex.solve_r probe_lp)).Milp.Simplex.basis in
  let fresh =
    in_fresh_domain (fun () ->
        ( bits (solved (Milp.Simplex.solve_r a)),
          bits (solved (Milp.Simplex.solve_r ~warm:wb a)) ))
  in
  let inf, reused =
    in_fresh_domain (fun () ->
        let session = Milp.Simplex.session probe_lp in
        let go ?warm q = bits (solved (Milp.Simplex.solve_r ~session ?warm q)) in
        let inf = go infeasible in
        ignore (go ~warm:wb b);
        let cold = go a in
        ignore (go infeasible);
        (inf, (cold, go ~warm:wb a)))
  in
  let inf_status, _, _ = inf in
  Alcotest.(check bool) "the infeasible LP is infeasible" true
    (inf_status = Milp.Simplex.Infeasible);
  Alcotest.(check bool) "cold A in a used session = fresh session" true (fst reused = fst fresh);
  Alcotest.(check bool) "warm A in a used session = fresh session" true (snd reused = snd fresh);
  Alcotest.check_raises "a session refuses another matrix"
    (Invalid_argument "Simplex.solve_r: session built for another problem") (fun () ->
      ignore
        (Milp.Simplex.solve_r ~session:(Milp.Simplex.session probe_lp)
           { probe_lp with Milp.Simplex.cols = Array.copy probe_lp.Milp.Simplex.cols }))

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "lu",
    [ qc prop_eta_matches_scratch;
      Alcotest.test_case "stability trigger fires on tiny pivot" `Quick
        test_stability_trigger;
      Alcotest.test_case "chain cap and pinned interval" `Quick
        test_chain_and_interval;
      Alcotest.test_case "factor handoff: bit-transparent, no refactors" `Quick
        test_factor_handoff;
      Alcotest.test_case "refactor-interval pin is bit-transparent" `Quick
        test_refactor_interval_identity;
      Alcotest.test_case "fresh-domain warm solve without a factor = cold" `Quick
        test_fresh_domain_warm_is_cold;
      Alcotest.test_case "a reused session = a fresh session, bit for bit" `Quick
        test_session_reuse ] )
