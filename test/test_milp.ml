(* Tests for the MILP substrate: model builder, simplex, branch-and-bound. *)

open Milp

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let status_pp = function
  | Bb.Optimal -> "optimal"
  | Bb.Feasible -> "feasible"
  | Bb.Infeasible -> "infeasible"
  | Bb.Unbounded -> "unbounded"
  | Bb.No_solution -> "no_solution"

let check_status what expect got =
  Alcotest.(check string) what (status_pp expect) (status_pp got)

(* --- Lp model builder --- *)

let test_lp_builder () =
  let m = Lp.create ~name:"t" () in
  let x = Lp.add_var m ~lb:1. ~ub:5. "x" in
  let y = Lp.add_var m ~integer:true "y" in
  Alcotest.(check int) "num_vars" 2 (Lp.num_vars m);
  Alcotest.(check string) "name" "x" (Lp.var_name m x);
  check_bool "integer flag" true (Lp.is_integer m y);
  check_bool "continuous flag" false (Lp.is_integer m x);
  Alcotest.(check (pair (float 0.) (float 0.))) "bounds" (1., 5.) (Lp.bounds m x);
  Lp.add_constr m [ (1., x); (2., x); (1., y) ] Lp.Le 10.;
  (* duplicate terms are merged *)
  let rows = Lp.constrs m in
  Alcotest.(check int) "one row" 1 (Array.length rows);
  let terms, _, _ = rows.(0) in
  Alcotest.(check int) "merged terms" 2 (Array.length terms);
  check_bool "dump mentions vars" true (String.length (Lp.to_string m) > 0)

let test_lp_bad_bounds () =
  let m = Lp.create () in
  Alcotest.check_raises "lb > ub"
    (Robust.Failure.Error (Robust.Failure.Invalid_input "Lp.add_var bad: lb > ub"))
    (fun () -> ignore (Lp.add_var m ~lb:2. ~ub:1. "bad"))

(* --- LP solving through the relaxation --- *)

let solve_lp m = Bb.solve ~node_limit:1000 ~time_limit:10. m

let test_lp_max () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constr m [ (1., x); (3., y) ] Lp.Le 6.;
  Lp.set_objective m `Maximize [ (3., x); (2., y) ];
  let r = solve_lp m in
  check_status "status" Bb.Optimal r.Bb.status;
  check_float "obj" 12. r.Bb.obj;
  check_float "x" 4. (Bb.value r x);
  check_float "y" 0. (Bb.value r y)

let test_lp_equality_and_ge () =
  (* min 2u + v st u + v = 7, u - v >= 1 -> u=4, v=3, obj 11 *)
  let m = Lp.create () in
  let u = Lp.add_var m "u" and v = Lp.add_var m "v" in
  Lp.add_constr m [ (1., u); (1., v) ] Lp.Eq 7.;
  Lp.add_constr m [ (1., u); (-1., v) ] Lp.Ge 1.;
  Lp.set_objective m `Minimize [ (2., u); (1., v) ];
  let r = solve_lp m in
  check_float "obj" 11. r.Bb.obj;
  check_float "u" 4. (Bb.value r u)

let test_lp_infeasible () =
  let m = Lp.create () in
  let w = Lp.add_var m ~ub:1. "w" in
  Lp.add_constr m [ (1., w) ] Lp.Ge 2.;
  check_status "status" Bb.Infeasible (solve_lp m).Bb.status

let test_lp_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.set_objective m `Maximize [ (1., x) ];
  check_status "status" Bb.Unbounded (solve_lp m).Bb.status

let test_lp_bounded_vars () =
  (* variable upper bounds must be honoured without explicit rows *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:2. ~ub:3. "x" and y = Lp.add_var m ~ub:10. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 8.;
  Lp.set_objective m `Maximize [ (1., x); (1., y) ];
  let r = solve_lp m in
  check_float "obj" 8. r.Bb.obj;
  check_bool "x within bounds" true (Bb.value r x <= 3. +. 1e-9 && Bb.value r x >= 2. -. 1e-9)

let test_lp_negative_lb () =
  (* min x st x >= -5 with objective x -> -5 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:(-5.) ~ub:5. "x" in
  Lp.set_objective m `Minimize [ (1., x) ];
  let r = solve_lp m in
  check_float "obj" (-5.) r.Bb.obj

let test_lp_objective_constant () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1. "x" in
  Lp.set_objective m `Maximize ~constant:10. [ (1., x) ];
  check_float "obj with constant" 11. (solve_lp m).Bb.obj

let test_lp_no_constraints () =
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:1. ~ub:4. "x" in
  Lp.set_objective m `Maximize [ (2., x) ];
  check_float "obj" 8. (solve_lp m).Bb.obj

(* --- MILP --- *)

let test_milp_knapsack () =
  (* max 5a + 4b + 3c st 2a + 3b + c <= 5, binaries -> a=b=1 (obj 9) *)
  let m = Lp.create () in
  let a = Lp.add_var m ~integer:true ~ub:1. "a" in
  let b = Lp.add_var m ~integer:true ~ub:1. "b" in
  let c = Lp.add_var m ~integer:true ~ub:1. "c" in
  Lp.add_constr m [ (2., a); (3., b); (1., c) ] Lp.Le 5.;
  Lp.set_objective m `Maximize [ (5., a); (4., b); (3., c) ];
  let r = solve_lp m in
  check_float "obj" 9. r.Bb.obj;
  check_float "a" 1. (Bb.value r a);
  check_float "c" 0. (Bb.value r c)

let test_milp_integrality () =
  (* LP optimum fractional; MILP must round down: max x st 2x <= 5, x int *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 5.;
  Lp.set_objective m `Maximize [ (1., x) ];
  check_float "x = 2" 2. (solve_lp m).Bb.obj

let test_milp_equality_int () =
  (* x + y = 7, x,y int in [0,4]: max 3x + y -> x=4,y=3 obj 15 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:4. "x" in
  let y = Lp.add_var m ~integer:true ~ub:4. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 7.;
  Lp.set_objective m `Maximize [ (3., x); (1., y) ];
  check_float "obj" 15. (solve_lp m).Bb.obj

let test_milp_warm_start () =
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:3. "x" in
  Lp.add_constr m [ (1., x) ] Lp.Le 3.;
  Lp.set_objective m `Maximize [ (1., x) ];
  (* feasible warm start is accepted *)
  check_bool "feasible ws" true (Bb.check_feasible m [| 2. |]);
  check_bool "infeasible ws" false (Bb.check_feasible m [| 9. |]);
  let r = Bb.solve ~warm_start:[| 2. |] ~node_limit:0 ~time_limit:10. m in
  (* with zero nodes, the warm start is the answer *)
  check_float "warm obj" 2. r.Bb.obj;
  let r2 = Bb.solve ~warm_start:[| 2. |] m in
  check_float "improves beyond warm" 3. r2.Bb.obj

let test_milp_gap () =
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:10. "x" in
  Lp.set_objective m `Maximize [ (1., x) ];
  Lp.add_constr m [ (1., x) ] Lp.Le 10.;
  let r = Bb.solve ~gap:100. ~warm_start:[| 5. |] m in
  (* huge gap: the warm incumbent is already within tolerance *)
  check_bool "within gap" true (r.Bb.obj >= 5. -. 1e-9)

let test_bb_warm_lp_identity () =
  (* LP warm starting must only change how fast node LPs solve, never the
     search: solutions, objective, and node counts must match exactly with
     warm_lp on and off (this is the tree-identity invariant the bench
     sweep gates end-to-end on ResNet-50) *)
  let build () =
    let m = Lp.create () in
    let vars =
      List.init 6 (fun i -> Lp.add_var m ~integer:true ~ub:4. (Printf.sprintf "x%d" i))
    in
    List.iteri
      (fun r weights ->
        Lp.add_constr m
          (List.map2 (fun w v -> (float_of_int w, v)) weights vars)
          Lp.Le (11 + (3 * r) |> float_of_int))
      [ [ 3; 5; 2; 1; 4; 2 ]; [ 2; 1; 4; 5; 1; 3 ]; [ 4; 2; 1; 3; 5; 1 ] ];
    Lp.set_objective m `Maximize
      (List.map2 (fun c v -> (float_of_int c, v)) [ 7; 9; 4; 6; 8; 5 ] vars);
    m
  in
  let on = Bb.solve ~warm_lp:true (build ()) in
  let off = Bb.solve ~warm_lp:false (build ()) in
  check_bool "status" true (on.Bb.status = off.Bb.status);
  check_bool "objective identical" true (on.Bb.obj = off.Bb.obj);
  check_bool "values identical" true (on.Bb.values = off.Bb.values);
  Alcotest.(check int) "node counts identical" off.Bb.nodes on.Bb.nodes

(* [Bb.result.bound] is a proven bound: on random 14-item 0/1 knapsacks
   (max value under a capacity, or min cost over a demand) it must never
   cut off the exact optimum, found by enumeration — with gap pruning,
   with node LPs aborted by injected faults, and under a node limit, with
   or without an incumbent. *)
let knapsack rng sense =
  let n = 14 in
  let w = Array.init n (fun _ -> 1 + Random.State.int rng 20) in
  let v = Array.init n (fun _ -> 1 + Random.State.int rng 30) in
  let cap = Array.fold_left ( + ) 0 w / 2 in
  let m = Lp.create () in
  let x = Array.init n (fun i -> Lp.add_var m ~integer:true ~ub:1. (Printf.sprintf "x%d" i)) in
  let terms c = Array.to_list (Array.mapi (fun i xi -> (float_of_int c.(i), xi)) x) in
  Lp.add_constr m (terms w) (if sense = `Maximize then Lp.Le else Lp.Ge) (float_of_int cap);
  Lp.set_objective m sense (terms v);
  let maximize = sense = `Maximize in
  let best = ref (if maximize then min_int else max_int) in
  for set = 0 to (1 lsl n) - 1 do
    let sum c =
      let s = ref 0 in
      Array.iteri (fun i ci -> if set land (1 lsl i) <> 0 then s := !s + ci) c;
      !s
    in
    let wt = sum w and value = sum v in
    if (if maximize then wt <= cap && value > !best else wt >= cap && value < !best) then
      best := value
  done;
  (m, float_of_int !best)

let bound_cases =
  List.concat_map
    (fun sense ->
      List.concat_map
        (fun gap ->
          List.concat_map
            (fun faults ->
              List.map (fun node_limit -> (sense, gap, faults, node_limit)) [ None; Some 5 ])
            [ false; true ])
        [ 0.; 3. ])
    [ `Minimize; `Maximize ]

let test_bb_bound_proven () =
  let rng = Random.State.make [| 17 |] in
  let instances = List.init 30 (fun _ -> (knapsack rng `Minimize, knapsack rng `Maximize)) in
  List.iter
    (fun (sense, gap, faults, node_limit) ->
      List.iteri
        (fun seed (min_case, max_case) ->
          let model, opt = if sense = `Minimize then min_case else max_case in
          let what =
            Printf.sprintf "%s gap %g faults %b limit %s seed %d"
              (if sense = `Minimize then "min" else "max")
              gap faults
              (match node_limit with Some k -> string_of_int k | None -> "none")
              seed
          in
          if faults then Robust.Fault.arm ~rate:0.2 ~only:[ "bb.node" ] seed;
          let r =
            Fun.protect ~finally:Robust.Fault.disarm (fun () -> Bb.solve ~gap ?node_limit model)
          in
          let tol = 1e-6 *. (1. +. Float.abs opt) in
          let cuts_off =
            match sense with
            | `Minimize -> r.Bb.bound > opt +. tol
            | `Maximize -> r.Bb.bound < opt -. tol
          in
          if Float.is_nan r.Bb.bound || cuts_off then
            Alcotest.failf "%s: %s obj %g bound %g, optimum %g" what (status_pp r.Bb.status)
              r.Bb.obj r.Bb.bound opt)
        instances)
    bound_cases

let test_milp_priority_runs () =
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:3. "x" in
  let y = Lp.add_var m ~integer:true ~ub:3. "y" in
  Lp.add_constr m [ (2., x); (2., y) ] Lp.Le 7.;
  Lp.set_objective m `Maximize [ (1., x); (1., y) ];
  let r = Bb.solve ~priority:[| 5.; 1. |] m in
  check_float "obj" 3. r.Bb.obj

let test_relax_shape () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constr m [ (1., x) ] Lp.Le 1.;
  Lp.add_constr m [ (1., y) ] Lp.Ge 0.;
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 1.;
  let p = Bb.relax m in
  Alcotest.(check int) "rows" 3 p.Simplex.nrows;
  (* two slacks for the two inequalities *)
  Alcotest.(check int) "cols" 4 p.Simplex.ncols

let test_simplex_feasible_checker () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. "x" in
  Lp.add_constr m [ (1., x) ] Lp.Le 1.5;
  let p = Bb.relax m in
  (* x = 1, slack = 0.5 satisfies the equality-form row *)
  check_bool "feasible point" true (Simplex.feasible p [| 1.0; 0.5 |]);
  check_bool "violated row" false (Simplex.feasible p [| 1.0; 2.0 |])

(* --- Property tests: random MILPs vs exhaustive enumeration --- *)

let random_milp_gen =
  let open QCheck.Gen in
  let small_int = int_range (-5) 5 in
  int_range 1 3 >>= fun nvars ->
  int_range 1 3 >>= fun nrows ->
  list_size (return nvars) small_int >>= fun obj ->
  list_size (return nrows) (pair (list_size (return nvars) small_int) (int_range 0 12))
  >>= fun rows -> return (nvars, obj, rows)

let brute_force nvars obj rows =
  (* integer box [0,4]^n *)
  let best = ref neg_infinity in
  let rec go assign = function
    | 0 ->
      let a = Array.of_list (List.rev assign) in
      let feasible =
        List.for_all
          (fun (coeffs, rhs) ->
            let lhs = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * a.(i)) coeffs) in
            lhs <= rhs)
          rows
      in
      if feasible then begin
        let v = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * a.(i)) obj) in
        if float_of_int v > !best then best := float_of_int v
      end
    | k ->
      for v = 0 to 4 do
        go (v :: assign) (k - 1)
      done
  in
  go [] nvars;
  !best

let prop_milp_matches_bruteforce =
  QCheck.Test.make ~name:"B&B matches brute force on tiny MILPs" ~count:60
    (QCheck.make random_milp_gen)
    (fun (nvars, obj, rows) ->
      let m = Lp.create () in
      let vars =
        List.init nvars (fun i -> Lp.add_var m ~integer:true ~ub:4. (Printf.sprintf "v%d" i))
      in
      List.iter
        (fun (coeffs, rhs) ->
          Lp.add_constr m
            (List.map2 (fun c v -> (float_of_int c, v)) coeffs vars)
            Lp.Le (float_of_int rhs))
        rows;
      Lp.set_objective m `Maximize (List.map2 (fun c v -> (float_of_int c, v)) obj vars);
      let expect = brute_force nvars obj rows in
      let r = Bb.solve ~node_limit:20_000 ~time_limit:10. m in
      match r.Bb.status with
      | Bb.Optimal -> Float.abs (r.Bb.obj -. expect) < 1e-6
      | Bb.Infeasible -> expect = neg_infinity
      | Bb.Feasible | Bb.Unbounded | Bb.No_solution -> false)

let prop_lp_solution_feasible =
  QCheck.Test.make ~name:"simplex solutions satisfy their problems" ~count:60
    (QCheck.make random_milp_gen)
    (fun (nvars, obj, rows) ->
      let m = Lp.create () in
      let vars =
        List.init nvars (fun i -> Lp.add_var m ~ub:4. (Printf.sprintf "v%d" i))
      in
      List.iter
        (fun (coeffs, rhs) ->
          Lp.add_constr m
            (List.map2 (fun c v -> (float_of_int c, v)) coeffs vars)
            Lp.Le (float_of_int rhs))
        rows;
      Lp.set_objective m `Maximize (List.map2 (fun c v -> (float_of_int c, v)) obj vars);
      let p = Bb.relax m in
      match Simplex.solve_r p with
      | Ok { Simplex.status = Simplex.Optimal; x; _ } -> Simplex.feasible p x
      | Ok _ -> true
      | Error _ -> false)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "milp",
    [
      Alcotest.test_case "lp builder" `Quick test_lp_builder;
      Alcotest.test_case "lp bad bounds" `Quick test_lp_bad_bounds;
      Alcotest.test_case "lp max" `Quick test_lp_max;
      Alcotest.test_case "lp eq + ge" `Quick test_lp_equality_and_ge;
      Alcotest.test_case "lp infeasible" `Quick test_lp_infeasible;
      Alcotest.test_case "lp unbounded" `Quick test_lp_unbounded;
      Alcotest.test_case "lp bounded vars" `Quick test_lp_bounded_vars;
      Alcotest.test_case "lp negative lb" `Quick test_lp_negative_lb;
      Alcotest.test_case "lp objective constant" `Quick test_lp_objective_constant;
      Alcotest.test_case "lp no constraints" `Quick test_lp_no_constraints;
      Alcotest.test_case "milp knapsack" `Quick test_milp_knapsack;
      Alcotest.test_case "milp integrality" `Quick test_milp_integrality;
      Alcotest.test_case "milp equality" `Quick test_milp_equality_int;
      Alcotest.test_case "milp warm start" `Quick test_milp_warm_start;
      Alcotest.test_case "milp gap" `Quick test_milp_gap;
      Alcotest.test_case "bb bound never cuts off the optimum" `Quick test_bb_bound_proven;
      Alcotest.test_case "milp priority" `Quick test_milp_priority_runs;
      Alcotest.test_case "bb warm-lp identity" `Quick test_bb_warm_lp_identity;
      Alcotest.test_case "relax shape" `Quick test_relax_shape;
      Alcotest.test_case "feasibility checker" `Quick test_simplex_feasible_checker;
      qc prop_milp_matches_bruteforce;
      qc prop_lp_solution_feasible;
    ] )
