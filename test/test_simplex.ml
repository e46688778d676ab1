(* Lower-level simplex tests: standard-form problems fed directly to
   Milp.Simplex (bypassing the Lp/Bb layers). *)

open Milp

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* build a standard-form problem from dense rows *)
let problem ~rows ~cost ~lb ~ub ~rhs =
  let nrows = Array.length rows in
  let ncols = Array.length cost in
  let cols =
    Array.init ncols (fun j ->
        let entries = ref [] in
        for i = nrows - 1 downto 0 do
          if rows.(i).(j) <> 0. then entries := (i, rows.(i).(j)) :: !entries
        done;
        ( Array.of_list (List.map fst !entries),
          Array.of_list (List.map snd !entries) ))
  in
  { Simplex.nrows; ncols; cols; cost; lb; ub; rhs }

let solve_ok ?max_iterations ?warm p =
  match Simplex.solve_r ?max_iterations ?warm p with
  | Ok r -> r
  | Error f -> Alcotest.failf "solve_r failed: %s" (Robust.Failure.to_string f)

let test_simple_equality () =
  (* min x1 + x2 st x1 + x2 = 2, 0 <= xi <= 2 -> obj 2 *)
  let p =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| 1.; 1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 2.; 2. |]
      ~rhs:[| 2. |]
  in
  let r = solve_ok p in
  check_bool "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "obj" 2. r.Simplex.obj;
  check_bool "feasible" true (Simplex.feasible p r.Simplex.x)

let test_bound_flip () =
  (* maximize x (cost -1) with a slack-style column: x + s = 10, x <= 3:
     x should flip to its upper bound without entering the basis chain *)
  let p =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| -1.; 0. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 3.; infinity |]
      ~rhs:[| 10. |]
  in
  let r = solve_ok p in
  check_float "x at upper bound" 3. r.Simplex.x.(0);
  check_float "slack fills" 7. r.Simplex.x.(1)

let test_negative_rhs () =
  (* x1 - x2 = -3 with x free-ish bounds *)
  let p =
    problem
      ~rows:[| [| 1.; -1. |] |]
      ~cost:[| 1.; 1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 10.; 10. |]
      ~rhs:[| -3. |]
  in
  let r = solve_ok p in
  check_bool "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "obj = 3 (x2 = 3)" 3. r.Simplex.obj

let test_degenerate () =
  (* several constraints intersecting at the same vertex: anti-cycling must
     still terminate *)
  let p =
    problem
      ~rows:[| [| 1.; 1.; 1. |]; [| 1.; 1.; 0. |]; [| 1.; 0.; 0. |] |]
      ~cost:[| -1.; -1.; -1. |]
      ~lb:[| 0.; 0.; 0. |]
      ~ub:[| infinity; infinity; infinity |]
      ~rhs:[| 1.; 1.; 1. |]
  in
  let r = solve_ok p in
  check_bool "terminates optimally" true (r.Simplex.status = Simplex.Optimal);
  check_float "obj" (-1.) r.Simplex.obj

let test_infeasible_equalities () =
  let p =
    problem
      ~rows:[| [| 1. |]; [| 1. |] |]
      ~cost:[| 0. |]
      ~lb:[| 0. |]
      ~ub:[| 10. |]
      ~rhs:[| 1.; 2. |]
  in
  check_bool "infeasible" true ((solve_ok p).Simplex.status = Simplex.Infeasible)

let test_free_variable () =
  (* a variable with no finite bounds, pinned only by an equality *)
  let p =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| 1.; 0. |]
      ~lb:[| neg_infinity; 0. |]
      ~ub:[| infinity; 5. |]
      ~rhs:[| 2. |]
  in
  let r = solve_ok p in
  (* min x1 with x1 = 2 - x2, x2 <= 5 -> x1 = -3 *)
  check_float "obj" (-3.) r.Simplex.obj

let test_larger_random_consistency () =
  (* a moderately sized random LP: simplex result must satisfy feasibility
     and match a second solve exactly (determinism) *)
  let rng = Prim.Rng.create 55 in
  let nrows = 12 and ncols = 20 in
  let rows =
    Array.init nrows (fun _ ->
        Array.init ncols (fun _ ->
            if Prim.Rng.int rng 3 = 0 then float_of_int (1 + Prim.Rng.int rng 4) else 0.))
  in
  (* guarantee feasibility: rhs = A * ones *)
  let rhs = Array.map (fun row -> Array.fold_left ( +. ) 0. row) rows in
  let cost = Array.init ncols (fun _ -> float_of_int (Prim.Rng.int rng 7 - 3)) in
  let p =
    problem ~rows ~cost
      ~lb:(Array.make ncols 0.)
      ~ub:(Array.make ncols 10.)
      ~rhs
  in
  let r1 = solve_ok p and r2 = solve_ok p in
  check_bool "optimal" true (r1.Simplex.status = Simplex.Optimal);
  check_bool "feasible" true (Simplex.feasible p r1.Simplex.x);
  check_float "deterministic" r1.Simplex.obj r2.Simplex.obj;
  (* all-ones is feasible, so the minimum is at most cost . ones *)
  let ones_obj = Array.fold_left ( +. ) 0. cost in
  check_bool "no worse than ones" true (r1.Simplex.obj <= ones_obj +. 1e-6)

let test_iteration_limit () =
  let p =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| -1.; -1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 5.; 5. |]
      ~rhs:[| 4. |]
  in
  let r = solve_ok ~max_iterations:0 p in
  check_bool "reports limit" true (r.Simplex.status = Simplex.Iteration_limit)

(* The pricing loops read columns unchecked, so a session refuses every
   malformed problem up front, and so does a solve without one. *)
let test_session_refuses_malformed () =
  let p =
    problem
      ~rows:[| [| 1.; 1. |]; [| 1.; -1. |] |]
      ~cost:[| -1.; -1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 5.; 5. |]
      ~rhs:[| 4.; 1. |]
  in
  ignore (Simplex.session p);
  let with_col j col =
    { p with Simplex.cols = Array.mapi (fun k c -> if k = j then col else c) p.Simplex.cols }
  in
  List.iter
    (fun (what, bad, msg) ->
      let expected = Invalid_argument ("Simplex.session: " ^ msg) in
      Alcotest.check_raises ("session: " ^ what) expected (fun () ->
          ignore (Simplex.session bad));
      Alcotest.check_raises ("solve_r: " ^ what) expected (fun () ->
          ignore (Simplex.solve_r bad)))
    [ ("row index = nrows", with_col 1 ([| 0; 2 |], [| 1.; 1. |]),
       "column row index out of range");
      ("negative row index", with_col 0 ([| -1 |], [| 1. |]), "column row index out of range");
      ("fewer coeffs than rows", with_col 0 ([| 0; 1 |], [| 1. |]),
       "column rows and coeffs differ in length");
      ("more coeffs than rows", with_col 0 ([| 0 |], [| 1.; 1. |]),
       "column rows and coeffs differ in length");
      ("cols shorter than ncols", { p with Simplex.ncols = 3; cost = [| 0.; 0.; 0. |];
                                           lb = [| 0.; 0.; 0. |]; ub = [| 1.; 1.; 1. |] },
       "cols, cost, lb or ub length is not ncols");
      ("cost length", { p with Simplex.cost = [| -1. |] }, "cols, cost, lb or ub length is not ncols");
      ("lb length", { p with Simplex.lb = [| 0.; 0.; 0. |] }, "cols, cost, lb or ub length is not ncols");
      ("ub length", { p with Simplex.ub = [| 5. |] }, "cols, cost, lb or ub length is not ncols");
      ("rhs length", { p with Simplex.rhs = [| 4. |] }, "rhs length is not nrows") ];
  (* a reused session checks the arrays its problems do not share *)
  let s = Simplex.session p in
  ignore (Simplex.solve_r ~session:s p);
  List.iter
    (fun (what, bad, msg) ->
      Alcotest.check_raises ("reused session: " ^ what)
        (Invalid_argument ("Simplex.session: " ^ msg))
        (fun () -> ignore (Simplex.solve_r ~session:s bad)))
    [ ("lb short", { p with Simplex.lb = [| 0. |] }, "cols, cost, lb or ub length is not ncols");
      ("lb long", { p with Simplex.lb = [| 0.; 0.; 0. |] },
       "cols, cost, lb or ub length is not ncols");
      ("ub short", { p with Simplex.ub = [| 5. |] }, "cols, cost, lb or ub length is not ncols");
      ("ub long", { p with Simplex.ub = [| 5.; 5.; 5. |] },
       "cols, cost, lb or ub length is not ncols");
      ("rhs short", { p with Simplex.rhs = [| 4. |] }, "rhs length is not nrows");
      ("rhs long", { p with Simplex.rhs = [| 4.; 1.; 0. |] }, "rhs length is not nrows") ];
  (* and still solves well-formed problems after refusing *)
  match Simplex.solve_r ~session:s p with
  | Ok r -> check_bool "reused session still optimal" true (r.Simplex.status = Simplex.Optimal)
  | Error _ -> Alcotest.fail "reused session failed after refusals"

(* ---- warm-start (dual simplex) unit tests ------------------------------ *)

let test_warm_basis_returned () =
  let p =
    problem
      ~rows:[| [| 1.; 1.; 1. |]; [| 1.; 2.; 0. |] |]
      ~cost:[| 1.; 2.; -1. |]
      ~lb:[| 0.; 0.; 0. |]
      ~ub:[| 4.; 4.; 4. |]
      ~rhs:[| 5.; 4. |]
  in
  let r = solve_ok p in
  check_bool "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_bool "cold solve" false r.Simplex.warm;
  check_bool "basis returned" true (r.Simplex.basis <> None)

let test_warm_agrees_with_cold () =
  (* tighten one bound (the branch-and-bound child situation): warm dual
     reoptimization from the parent basis must agree with a cold solve —
     same status, same objective, and bit-identical x after vertex
     canonicalization *)
  let parent =
    problem
      ~rows:[| [| 1.; 1.; 1.; 0. |]; [| 2.; 1.; 0.; 1. |] |]
      ~cost:[| -2.; -3.; 1.; 1. |]
      ~lb:[| 0.; 0.; 0.; 0. |]
      ~ub:[| 5.; 5.; 8.; 8. |]
      ~rhs:[| 6.; 7. |]
  in
  let root = solve_ok parent in
  check_bool "root optimal" true (root.Simplex.status = Simplex.Optimal);
  let basis = Option.get root.Simplex.basis in
  let ub = Array.copy parent.Simplex.ub in
  ub.(1) <- 1.;
  let child = { parent with Simplex.ub } in
  let w = solve_ok ~warm:basis child in
  let c = solve_ok child in
  check_bool "warm path used" true w.Simplex.warm;
  check_bool "same status" true (w.Simplex.status = c.Simplex.status);
  check_float "same objective" c.Simplex.obj w.Simplex.obj;
  check_bool "bit-identical solution" true (w.Simplex.x = c.Simplex.x);
  check_bool "warm solution feasible" true (Simplex.feasible child w.Simplex.x)

let test_warm_detects_infeasible_child () =
  (* both variables forced high while the equality pins their sum low: the
     warm dual solve must prove infeasibility, exactly like the cold one *)
  let parent =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| 1.; 1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 4.; 4. |]
      ~rhs:[| 3. |]
  in
  let root = solve_ok parent in
  let basis = Option.get root.Simplex.basis in
  let lb = [| 2.; 2. |] in
  let child = { parent with Simplex.lb } in
  let w = solve_ok ~warm:basis child in
  let c = solve_ok child in
  check_bool "cold infeasible" true (c.Simplex.status = Simplex.Infeasible);
  check_bool "warm infeasible" true (w.Simplex.status = Simplex.Infeasible)

let test_warm_rejects_stale_basis () =
  (* a basis with the wrong dimensions must fall back to the cold path, not
     fail the solve *)
  let p =
    problem
      ~rows:[| [| 1.; 1. |] |]
      ~cost:[| 1.; 1. |]
      ~lb:[| 0.; 0. |]
      ~ub:[| 2.; 2. |]
      ~rhs:[| 2. |]
  in
  let bogus =
    { Simplex.Basis.basic = [| 0; 1; 2 |];
      vstat = Array.make 7 Simplex.Basis.Vlower }
  in
  let r = solve_ok ~warm:bogus p in
  check_bool "fell back cold" false r.Simplex.warm;
  check_bool "still optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "obj" 2. r.Simplex.obj

let suite =
  ( "simplex",
    [
      Alcotest.test_case "equality" `Quick test_simple_equality;
      Alcotest.test_case "bound flip" `Quick test_bound_flip;
      Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
      Alcotest.test_case "degenerate" `Quick test_degenerate;
      Alcotest.test_case "infeasible equalities" `Quick test_infeasible_equalities;
      Alcotest.test_case "free variable" `Quick test_free_variable;
      Alcotest.test_case "random LP consistency" `Quick test_larger_random_consistency;
      Alcotest.test_case "iteration limit" `Quick test_iteration_limit;
      Alcotest.test_case "session refuses malformed problems" `Quick
        test_session_refuses_malformed;
      Alcotest.test_case "warm basis returned" `Quick test_warm_basis_returned;
      Alcotest.test_case "warm agrees with cold" `Quick test_warm_agrees_with_cold;
      Alcotest.test_case "warm detects infeasible child" `Quick
        test_warm_detects_infeasible_child;
      Alcotest.test_case "warm rejects stale basis" `Quick test_warm_rejects_stale_basis;
    ] )
