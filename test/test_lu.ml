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

(* The chain-length cap fires after eta_chain_cap benign updates. *)
let test_chain_cap () =
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
  Lu.update lu ~pivot_tol 0 [| 1.; 0. |];
  (match Lu.trigger lu with
   | Lu.Chain -> ()
   | _ -> Alcotest.fail "chain cap did not fire at eta_chain_cap");
  Alcotest.(check (float 0.)) "benign pivots leave min_pivot at 1" 1.
    (Lu.min_pivot lu)

let solved = function Ok r -> r | Error _ -> Alcotest.fail "solve failed"

let bits (r : Milp.Simplex.result) =
  ( r.Milp.Simplex.status,
    Array.map Int64.bits_of_float r.Milp.Simplex.x,
    Int64.bits_of_float r.Milp.Simplex.obj )

(* End-to-end: a warm child solved right after its parent in one session
   (branch-and-bound's plunge order) starts from the parent's canonical
   factor, still held by the session's engine. It must return the bits of
   the same warm solve in a fresh session, which rebuilds that factor, and
   neither solve of the pair may refactorize when the parent optimum
   survives the bound change. *)
let test_factor_handoff () =
  let p =
    { Milp.Simplex.nrows = 2; ncols = 2;
      cols = [| ([| 0 |], [| 1. |]); ([| 1 |], [| 1. |]) |];
      cost = [| 1.; 1. |]; lb = [| 0.; 0. |]; ub = [| 10.; 10. |];
      rhs = [| 4.; 3. |] }
  in
  let wb = Option.get (solved (Milp.Simplex.solve_r p)).Milp.Simplex.basis in
  (* tighten a bound that does not cut the parent optimum *)
  let child = { p with ub = [| 9.; 10. |] } in
  let fresh = solved (Milp.Simplex.solve_r ~warm:wb child) in
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Fun.protect ~finally:(fun () -> Telemetry.Sink.set Telemetry.Sink.Null)
  @@ fun () ->
  Telemetry.Metrics.reset ();
  let session = Milp.Simplex.session p in
  ignore (solved (Milp.Simplex.solve_r ~session p));
  let plunged = solved (Milp.Simplex.solve_r ~session ~warm:wb child) in
  let snap = Telemetry.Metrics.snapshot () in
  let count name = Telemetry.Metrics.counter_value snap name in
  Alcotest.(check bool) "the child is warm-solved" true plunged.Milp.Simplex.warm;
  Alcotest.(check bool) "kept factor = rebuilt factor, bit for bit" true
    (bits plunged = bits fresh);
  Alcotest.(check int) "no refactorizations for parent and child" 0
    (count "simplex.refactorizations");
  Alcotest.(check int) "the child kept the parent's factor" 1
    (count "simplex.factor_cache_hits")

(* Determinism rests on no state outside a session: a warm solve handed
   only a basis in a fresh domain must return the bits of a cold solve in
   another fresh domain. *)
let probe_lp =
  { Milp.Simplex.nrows = 3; ncols = 4;
    cols =
      [| ([| 0; 1 |], [| 1.3; 2.7 |]); ([| 0; 2 |], [| 3.1; 1.9 |]);
         ([| 1; 2 |], [| 1.7; 1.3 |]); ([| 0; 1; 2 |], [| 0.9; 1.1; 0.7 |]) |];
    cost = [| -1.1; -2.3; -1.7; -3.3 |];
    lb = [| 0.; 0.; 0.; 0. |]; ub = [| 5.; 5.; 5.; 5. |];
    rhs = [| 6.1; 5.3; 4.7 |] }

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

(* What a session keeps between solves never changes a result: LP A solved
   after other LPs of the same matrix — an infeasible one, whose cold crash
   leaves -1-signed artificials behind, and a warm one — gives the bits of
   a fresh session, cold and warm. So does a warm child of the parent
   solved after the parent and an infeasible solve in between: the cold
   crash overwrites the parent's factor in the engine, so the child must
   rebuild it and take the fresh session's pivots. Bits alone would not
   show a stale entry factor (the epilogue rebuilds the factor before
   extracting), so the iteration counts must match too. *)
let test_session_reuse () =
  let a = { probe_lp with Milp.Simplex.ub = [| 5.; 1.; 5.; 5. |] } in
  let infeasible = { probe_lp with Milp.Simplex.lb = [| 3.; 3.; 3.; 3. |] } in
  let b = { probe_lp with Milp.Simplex.lb = [| 1.; 0.; 0.; 1. |] } in
  let wb = Option.get (solved (Milp.Simplex.solve_r probe_lp)).Milp.Simplex.basis in
  let with_iterations r = (bits r, r.Milp.Simplex.iterations) in
  let fresh =
    in_fresh_domain (fun () ->
        ( bits (solved (Milp.Simplex.solve_r a)),
          with_iterations (solved (Milp.Simplex.solve_r ~warm:wb a)) ))
  in
  let inf, reused, after_parent =
    in_fresh_domain (fun () ->
        let session = Milp.Simplex.session probe_lp in
        let go ?warm q = solved (Milp.Simplex.solve_r ~session ?warm q) in
        let inf = bits (go infeasible) in
        ignore (go ~warm:wb b);
        let cold = bits (go a) in
        ignore (go infeasible);
        let warm = with_iterations (go ~warm:wb a) in
        ignore (go probe_lp);
        ignore (go infeasible);
        (inf, (cold, warm), with_iterations (go ~warm:wb a)))
  in
  let inf_status, _, _ = inf in
  Alcotest.(check bool) "the infeasible LP is infeasible" true
    (inf_status = Milp.Simplex.Infeasible);
  Alcotest.(check bool) "cold A in a used session = fresh session" true (fst reused = fst fresh);
  Alcotest.(check bool) "warm A in a used session = fresh session" true (snd reused = snd fresh);
  Alcotest.(check bool) "warm A after its parent and an infeasible solve = fresh session"
    true (fst after_parent = fst (snd fresh));
  Alcotest.(check int) "... in as many iterations" (snd (snd fresh)) (snd after_parent);
  Alcotest.check_raises "a session refuses another matrix"
    (Invalid_argument "Simplex.solve_r: session built for another problem") (fun () ->
      ignore
        (Milp.Simplex.solve_r ~session:(Milp.Simplex.session probe_lp)
           { probe_lp with Milp.Simplex.cols = Array.copy probe_lp.Milp.Simplex.cols }))

(* The dense kernels the zero-skipping ones replaced, kept verbatim as the
   slow reference (eta bookkeeping left out): Lu must reproduce every
   nonzero of their inverse bit for bit, and may differ only in the sign
   of an exact zero. *)
module Dense = struct
  exception Singular

  type t = { m : int; binv : float array array }

  let create m = { m; binv = Array.make_matrix m m 0. }

  let refactor t ~scratch ~cols ~basis ~pivot_tol =
    let m = t.m in
    let mat = scratch in
    for i = 0 to m - 1 do
      Array.fill mat.(i) 0 m 0.
    done;
    for r = 0 to m - 1 do
      let rows, coeffs = cols.(basis.(r)) in
      for k = 0 to Array.length rows - 1 do
        mat.(rows.(k)).(r) <- coeffs.(k)
      done
    done;
    (* the inverse is eliminated in place, from the identity *)
    let inv = t.binv in
    for i = 0 to m - 1 do
      Array.fill inv.(i) 0 m 0.;
      inv.(i).(i) <- 1.
    done;
    for col = 0 to m - 1 do
      (* partial pivoting *)
      let best = ref col in
      for r = col + 1 to m - 1 do
        if Float.abs mat.(r).(col) > Float.abs mat.(!best).(col) then best := r
      done;
      if Float.abs mat.(!best).(col) < pivot_tol then raise Singular;
      if !best <> col then begin
        let t = mat.(col) in mat.(col) <- mat.(!best); mat.(!best) <- t;
        let t = inv.(col) in inv.(col) <- inv.(!best); inv.(!best) <- t
      end;
      let piv = mat.(col).(col) in
      for j = 0 to m - 1 do
        mat.(col).(j) <- mat.(col).(j) /. piv;
        inv.(col).(j) <- inv.(col).(j) /. piv
      done;
      for r = 0 to m - 1 do
        if r <> col then begin
          let f = mat.(r).(col) in
          if f <> 0. then
            for j = 0 to m - 1 do
              mat.(r).(j) <- mat.(r).(j) -. (f *. mat.(col).(j));
              inv.(r).(j) <- inv.(r).(j) -. (f *. inv.(col).(j))
            done
        end
      done
    done

  let update t ~pivot_tol r alpha =
    let m = t.m in
    let piv = alpha.(r) in
    let br = t.binv.(r) in
    for k = 0 to m - 1 do
      br.(k) <- br.(k) /. piv
    done;
    for i = 0 to m - 1 do
      if i <> r then begin
        let f = alpha.(i) in
        if Float.abs f > pivot_tol then begin
          let bi = t.binv.(i) in
          for k = 0 to m - 1 do
            bi.(k) <- bi.(k) -. (f *. br.(k))
          done
        end
      end
    done

  let ftran t (rows, coeffs) alpha =
    for i = 0 to t.m - 1 do
      let bi = t.binv.(i) in
      let s = ref 0. in
      for k = 0 to Array.length rows - 1 do
        s := !s +. (bi.(rows.(k)) *. coeffs.(k))
      done;
      alpha.(i) <- !s
    done

  let btran t c y =
    Array.fill y 0 t.m 0.;
    for r = 0 to t.m - 1 do
      let cr = c.(r) in
      if cr <> 0. then
        for i = 0 to t.m - 1 do
          y.(i) <- y.(i) +. (cr *. t.binv.(r).(i))
        done
    done

  let apply t v out =
    for i = 0 to t.m - 1 do
      let s = ref 0. in
      for k = 0 to t.m - 1 do
        s := !s +. (t.binv.(i).(k) *. v.(k))
      done;
      out.(i) <- !s
    done
end

(* A random sparse basis pool of [m] rows: small-integer entries of mixed
   sign (so eliminations cancel exactly and -0.0 arises) with some
   fractional ones, about a fifth of the columns singletons, and
   density 5-40% elsewhere. *)
let random_sparse_pool rng m =
  let entry () =
    let v = float_of_int (1 + Random.State.int rng 3) in
    let v =
      if Random.State.int rng 4 = 0 then v /. float_of_int (3 + Random.State.int rng 5) else v
    in
    if Random.State.bool rng then v else -.v
  in
  let density = 0.05 +. Random.State.float rng 0.35 in
  let dense =
    Array.init (m + 2 + Random.State.int rng (2 * m)) (fun j ->
        let col = Array.make m 0. in
        if Random.State.int rng 5 = 0 then col.(Random.State.int rng m) <- entry ()
        else begin
          (* a strong entry on a rotating row keeps most bases nonsingular *)
          col.(j mod m) <- entry ();
          for i = 0 to m - 1 do
            if Random.State.float rng 1. < density then col.(i) <- entry ()
          done
        end;
        col)
  in
  sparse_of_dense dense

let bits = Int64.bits_of_float

(* Compare the two inverses: a nonzero on either side must match bit for
   bit; zeros match as zeros. Returns how many zeros are -0.0 on either
   side. *)
let compare_inverses what lu (d : Dense.t) =
  let negative_zeros = ref 0 in
  for i = 0 to d.Dense.m - 1 do
    let row = Lu.row lu i in
    for j = 0 to d.Dense.m - 1 do
      let a = row.(j) and b = d.Dense.binv.(i).(j) in
      if a = 0. && b = 0. then
        (if Float.sign_bit a || Float.sign_bit b then incr negative_zeros)
      else if bits a <> bits b then
        Alcotest.failf "%s: B^-1(%d,%d) = %h, dense reference %h" what i j a b
    done
  done;
  !negative_zeros

let check_same_bits what a b =
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: entry %d = %h, dense reference %h" what i x b.(i))
    a

(* Every reader of B^-1 sums from +0, so its outputs agree bit for bit. *)
let compare_kernels rng what lu (d : Dense.t) cols =
  let m = d.Dense.m in
  let a1 = Array.make m 0. and a2 = Array.make m 0. in
  Array.iter
    (fun col ->
      Lu.ftran lu col a1;
      Dense.ftran d col a2;
      check_same_bits (what ^ " ftran") a1 a2)
    cols;
  let c =
    Array.init m (fun _ -> if Random.State.bool rng then 0. else Random.State.float rng 4. -. 2.)
  in
  Lu.btran lu c a1;
  Dense.btran d c a2;
  check_same_bits (what ^ " btran") a1 a2;
  let v = Array.init m (fun _ -> float_of_int (Random.State.int rng 7 - 3)) in
  Lu.apply lu v a1;
  Dense.apply d v a2;
  check_same_bits (what ^ " apply") a1 a2

(* Random sparse bases and pivot sequences through both engines, with
   refactorizations of the current basis mixed in. *)
let test_kernels_match_dense () =
  let rng = Random.State.make [| 1405 |] in
  let negative_zeros = ref 0 and refactors = ref 0 and singular = ref 0 in
  for case = 1 to 250 do
    let m = 1 + Random.State.int rng 40 in
    let cols = random_sparse_pool rng m in
    let basis = Array.init m Fun.id in
    let lu = Lu.create m and d = Dense.create m in
    let scratch = Array.make_matrix m m 0. and dscratch = Array.make_matrix m m 0. in
    let what = Printf.sprintf "case %d (m = %d)" case m in
    let refactor_both () =
      incr refactors;
      match
        ( (try Ok (Lu.refactor lu ~scratch ~cols ~basis ~pivot_tol) with Lu.Singular -> Error ()),
          try Ok (Dense.refactor d ~scratch:dscratch ~cols ~basis ~pivot_tol)
          with Dense.Singular -> Error () )
      with
      | Ok (), Ok () ->
        negative_zeros := !negative_zeros + compare_inverses (what ^ " refactor") lu d;
        true
      | Error (), Error () ->
        incr singular;
        false
      | Ok (), Error () | Error (), Ok () -> Alcotest.failf "%s: singularity differs" what
    in
    if refactor_both () then begin
      compare_kernels rng what lu d cols;
      let alpha = Array.make m 0. and dalpha = Array.make m 0. in
      let ok = ref true in
      for _ = 1 to Random.State.int rng (2 * m + 2) do
        if !ok then begin
          let j = Random.State.int rng (Array.length cols) in
          Lu.ftran lu cols.(j) alpha;
          Dense.ftran d cols.(j) dalpha;
          check_same_bits (what ^ " pivot column") alpha dalpha;
          let eligible = List.filter (fun i -> Float.abs alpha.(i) > 1e-2) (List.init m Fun.id) in
          if eligible <> [] then begin
            let r = List.nth eligible (Random.State.int rng (List.length eligible)) in
            Lu.update lu ~pivot_tol r alpha;
            Dense.update d ~pivot_tol r dalpha;
            basis.(r) <- j;
            negative_zeros := !negative_zeros + compare_inverses (what ^ " update") lu d;
            if Random.State.int rng 6 = 0 then ok := refactor_both ()
          end
        end
      done;
      if !ok then compare_kernels rng what lu d cols
    end
  done;
  (* the comparison is only as strong as its coverage: the pool must
     exercise signed zeros and both factorization outcomes *)
  Alcotest.(check bool) "-0.0 arises in the inverses" true (!negative_zeros > 0);
  Alcotest.(check bool) "some basis is singular" true (!singular > 0);
  Alcotest.(check bool) "refactorizations after pivots" true (!refactors > 300)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "lu",
    [ qc prop_eta_matches_scratch;
      Alcotest.test_case "zero-skipping kernels = dense reference, bit for bit" `Quick
        test_kernels_match_dense;
      Alcotest.test_case "stability trigger fires on tiny pivot" `Quick
        test_stability_trigger;
      Alcotest.test_case "chain-length cap fires" `Quick test_chain_cap;
      Alcotest.test_case "factor handoff: bit-transparent, no refactors" `Quick
        test_factor_handoff;
      Alcotest.test_case "fresh-domain warm solve without a factor = cold" `Quick
        test_fresh_domain_warm_is_cold;
      Alcotest.test_case "a reused session = a fresh session, bit for bit" `Quick
        test_session_reuse ] )
