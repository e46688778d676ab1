(* Tests for interval-propagation bound tightening. *)

open Milp

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let problem_of_model m = Bb.relax m

let test_equality_fixes_sibling () =
  (* x + y = 5 with x fixed to 2 must force y = 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~lb:2. ~ub:2. "x" in
  let y = Lp.add_var m ~integer:true ~ub:10. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 5.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = Presolve.tighten ~integer:[| true; true |] p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "y lower" 3. lb.(1);
  check_float "y upper" 3. ub.(1);
  check_bool "tightened something" true (r.Presolve.tightened > 0)

let test_detects_infeasible () =
  (* x + y = 10 with x,y <= 4 is impossible *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:4. "x" and y = Lp.add_var m ~ub:4. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 10.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = Presolve.tighten p rows lb ub in
  check_bool "infeasible detected" false r.Presolve.feasible

let test_le_slack_handling () =
  (* 2x <= 6 (slacked) should tighten x <= 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:100. "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 6.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = Presolve.tighten ~integer:[| true; false |] p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "x upper" 3. ub.(0)

let test_integer_rounding () =
  (* 2x + s = 7, s in [0, inf): x <= 3.5, integer rounding gives x <= 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:100. "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 7.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  ignore (Presolve.tighten ~integer:[| true; false |] p rows lb ub);
  check_float "x upper rounded" 3. ub.(0)

let test_no_change_when_loose () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1. "x" and y = Lp.add_var m ~ub:1. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 5.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = Presolve.tighten p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "x unchanged" 1. ub.(0);
  check_float "y unchanged" 1. ub.(1)

let test_bb_agrees_with_and_without () =
  (* end-to-end consistency: the MILP optimum is presolve-invariant (checked
     against brute force values computed by hand) *)
  let m = Lp.create () in
  let a = Lp.add_var m ~integer:true ~ub:4. "a" in
  let b = Lp.add_var m ~integer:true ~ub:4. "b" in
  let c = Lp.add_var m ~integer:true ~ub:4. "c" in
  Lp.add_constr m [ (1., a); (1., b); (1., c) ] Lp.Eq 6.;
  Lp.add_constr m [ (2., a); (1., b) ] Lp.Le 7.;
  Lp.set_objective m `Maximize [ (3., a); (2., b); (1., c) ];
  let r = Bb.solve m in
  (* optimum: a=2,b=3,c=1 -> 13? check a=1,b=4? b<=4: 3+8+1=12; a=2,b=3,c=1: 6+6+1=13;
     a=3,b=1,c=2: 9+2+2=13 but 2a+b=7<=7 ok -> 13 *)
  check_float "objective" 13. r.Bb.obj

let prop_tighten_preserves_integer_solutions =
  (* any integer point feasible before tightening stays within the
     tightened box *)
  QCheck.Test.make ~name:"tighten never cuts off feasible integer points" ~count:80
    QCheck.(pair (pair (int_range 0 4) (int_range 0 4)) (int_range 0 8))
    (fun ((xv, yv), rhs) ->
      let m = Lp.create () in
      let x = Lp.add_var m ~integer:true ~ub:4. "x" in
      let y = Lp.add_var m ~integer:true ~ub:4. "y" in
      Lp.add_constr m [ (1., x); (2., y) ] Lp.Le (float_of_int rhs);
      let p = problem_of_model m in
      let feasible_point = xv + (2 * yv) <= rhs in
      let rows = Presolve.rows_of p in
      let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
      let r = Presolve.tighten ~integer:[| true; true; false |] p rows lb ub in
      if not feasible_point then true
      else
        r.Presolve.feasible
        && float_of_int xv >= lb.(0) -. 1e-9
        && float_of_int xv <= ub.(0) +. 1e-9
        && float_of_int yv >= lb.(1) -. 1e-9
        && float_of_int yv <= ub.(1) +. 1e-9)

(* The presolve as it stood with list-of-pairs rows, kept verbatim as the
   slow reference: the struct-of-arrays rows and the dirty-row skip must
   reproduce its result and its bounds bit for bit. *)
module Reference = struct
  let tol = 1e-7

  let rows_of (p : Simplex.problem) =
    let rows = Array.make p.Simplex.nrows [] in
    Array.iteri
      (fun j (ridx, coeffs) ->
        Array.iteri (fun k r -> rows.(r) <- (j, coeffs.(k)) :: rows.(r)) ridx)
      p.Simplex.cols;
    Array.map Array.of_list rows

  let tighten ?(max_rounds = 4) ?integer (p : Simplex.problem) rows lb ub =
    let is_int j = match integer with Some a -> a.(j) | None -> false in
    let tightened = ref 0 in
    let feasible = ref true in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < max_rounds && !feasible do
      changed := false;
      incr rounds;
      Array.iteri
        (fun i row ->
          if !feasible then begin
            let b = p.Simplex.rhs.(i) in
            (* activity range of the row *)
            let minact = ref 0. and maxact = ref 0. in
            Array.iter
              (fun (j, a) ->
                if a > 0. then begin
                  minact := !minact +. (a *. lb.(j));
                  maxact := !maxact +. (a *. ub.(j))
                end
                else begin
                  minact := !minact +. (a *. ub.(j));
                  maxact := !maxact +. (a *. lb.(j))
                end)
              row;
            if !minact > b +. tol || !maxact < b -. tol then feasible := false
            else
              Array.iter
                (fun (j, a) ->
                  (* residual activity without column j's extreme contribution *)
                  let contrib_min = if a > 0. then a *. lb.(j) else a *. ub.(j) in
                  let contrib_max = if a > 0. then a *. ub.(j) else a *. lb.(j) in
                  let rest_min = !minact -. contrib_min in
                  let rest_max = !maxact -. contrib_max in
                  (* a * x_j = b - rest, rest in [rest_min, rest_max] *)
                  let x_hi = (b -. rest_min) /. a and x_lo = (b -. rest_max) /. a in
                  let new_lo = Float.min x_lo x_hi and new_hi = Float.max x_lo x_hi in
                  let new_lo = if is_int j then Float.round (ceil (new_lo -. tol)) else new_lo in
                  let new_hi = if is_int j then Float.round (floor (new_hi +. tol)) else new_hi in
                  if Float.is_nan new_lo || Float.is_nan new_hi then ()
                  else begin
                    if new_lo > lb.(j) +. tol && new_lo <> neg_infinity then begin
                      (* keep activities consistent with the updated bound *)
                      if a > 0. then minact := !minact +. (a *. (new_lo -. lb.(j)))
                      else maxact := !maxact +. (a *. (new_lo -. lb.(j)));
                      lb.(j) <- new_lo;
                      incr tightened;
                      changed := true
                    end;
                    if new_hi < ub.(j) -. tol && new_hi <> infinity then begin
                      if a > 0. then maxact := !maxact +. (a *. (new_hi -. ub.(j)))
                      else minact := !minact +. (a *. (new_hi -. ub.(j)));
                      ub.(j) <- new_hi;
                      incr tightened;
                      changed := true
                    end;
                    if lb.(j) > ub.(j) +. tol then feasible := false
                  end)
                row
          end)
        rows
    done;
    { Presolve.feasible = !feasible; tightened = !tightened; rounds = !rounds }
end

(* Random equality systems: up to 5 rows over up to 8 columns, half-integer
   coefficients (zero with some probability), each bound finite or
   infinite, random integer marks and round caps. *)
let random_system_gen =
  let open QCheck.Gen in
  int_range 1 5 >>= fun nrows ->
  int_range 2 8 >>= fun ncols ->
  array_size (return (nrows * ncols)) (frequency [ (2, return 0); (3, int_range (-6) 6) ])
  >>= fun coeffs ->
  array_size (return ncols) (pair (opt (int_range (-4) 2)) (opt (int_range 0 6)))
  >>= fun bounds ->
  array_size (return ncols) bool >>= fun integer ->
  array_size (return nrows) (int_range (-8) 16) >>= fun rhs ->
  int_range 1 6 >>= fun max_rounds ->
  return (nrows, ncols, coeffs, bounds, integer, rhs, max_rounds)

let system_problem (nrows, ncols, coeffs, bounds, _, rhs, _) =
  let cols =
    Array.init ncols (fun j ->
        let rs = List.filter (fun i -> coeffs.((i * ncols) + j) <> 0) (List.init nrows Fun.id) in
        ( Array.of_list rs,
          Array.of_list (List.map (fun i -> float_of_int coeffs.((i * ncols) + j) /. 2.) rs) ))
  in
  let lb =
    Array.map (fun (l, _) -> match l with Some l -> float_of_int l | None -> neg_infinity) bounds
  in
  let ub =
    Array.map
      (fun (l, w) ->
        match w with Some w -> float_of_int (Option.value l ~default:0 + w) | None -> infinity)
      bounds
  in
  { Simplex.nrows; ncols; cols; cost = Array.make ncols 0.; lb; ub;
    rhs = Array.map float_of_int rhs }

let prop_tighten_matches_reference =
  QCheck.Test.make ~name:"tighten is bit-identical to the list-of-pairs reference"
    ~count:1000 (QCheck.make random_system_gen)
    (fun ((_, _, _, _, integer, _, max_rounds) as case) ->
      let p = system_problem case in
      let lb1 = Array.copy p.Simplex.lb and ub1 = Array.copy p.Simplex.ub in
      let lb2 = Array.copy p.Simplex.lb and ub2 = Array.copy p.Simplex.ub in
      let r1 = Reference.tighten ~max_rounds ~integer p (Reference.rows_of p) lb1 ub1 in
      let r2 = Presolve.tighten ~max_rounds ~integer p (Presolve.rows_of p) lb2 ub2 in
      let bits a = Array.map Int64.bits_of_float a in
      r1 = r2 && bits lb1 = bits lb2 && bits ub1 = bits ub2)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "presolve",
    [
      Alcotest.test_case "equality fixes sibling" `Quick test_equality_fixes_sibling;
      Alcotest.test_case "detects infeasible" `Quick test_detects_infeasible;
      Alcotest.test_case "le slack" `Quick test_le_slack_handling;
      Alcotest.test_case "integer rounding" `Quick test_integer_rounding;
      Alcotest.test_case "loose rows untouched" `Quick test_no_change_when_loose;
      Alcotest.test_case "bb end-to-end" `Quick test_bb_agrees_with_and_without;
      qc prop_tighten_preserves_integer_solutions;
      qc prop_tighten_matches_reference;
    ] )
