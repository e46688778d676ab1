(* Property tests for warm-started dual simplex: for random bounded LPs and
   random single-bound tightenings (the branch-and-bound child situation),
   dual reoptimization from the parent basis and a cold primal solve must
   agree on status and objective to Tolerances precision — and the
   exact-arithmetic certifier must accept both solutions. *)

open Milp

let opt_tol = Simplex.Tolerances.default.Simplex.Tolerances.opt_tol

(* A random feasible bounded LP as an Lp model: equality-constrained with
   rhs = A x0 for an interior point x0, so feasibility holds by
   construction. Returns the model plus a random single-bound tightening
   (variable index, new-bound kind and value). *)
let random_warm_case_gen =
  let open QCheck.Gen in
  int_range 2 6 >>= fun nvars ->
  int_range 1 4 >>= fun nrows ->
  list_size (return (nvars * nrows)) (int_range (-3) 3) >>= fun coeffs ->
  list_size (return nvars) (int_range (-4) 4) >>= fun cost ->
  list_size (return nvars) (int_range 1 4) >>= fun x0 ->
  int_range 0 (nvars - 1) >>= fun tighten_var ->
  bool >>= fun tighten_upper ->
  int_range 0 3 >>= fun new_bound ->
  return (nvars, nrows, coeffs, cost, x0, tighten_var, tighten_upper, new_bound)

let build_model (nvars, nrows, coeffs, cost, x0, _, _, _) =
  let m = Lp.create ~name:"warm-prop" () in
  let vars =
    List.init nvars (fun i -> Lp.add_var m ~ub:6. (Printf.sprintf "v%d" i))
  in
  let coeffs = Array.of_list coeffs in
  let x0 = Array.of_list x0 in
  for r = 0 to nrows - 1 do
    let terms =
      List.filteri (fun j _ -> coeffs.((r * nvars) + j) <> 0) vars
      |> List.map (fun v ->
             let j = Lp.var_index v in
             (float_of_int coeffs.((r * nvars) + j), v))
    in
    if terms <> [] then begin
      let rhs =
        List.fold_left
          (fun acc (c, v) -> acc +. (c *. float_of_int x0.(Lp.var_index v)))
          0. terms
      in
      Lp.add_constr m terms Lp.Eq rhs
    end
  done;
  Lp.set_objective m `Minimize
    (List.map2 (fun c v -> (float_of_int c, v)) cost vars);
  m

let certified model x =
  match Certify.Lp_cert.check model x with
  | Certify.Certificate.Certified -> true
  | Certify.Certificate.Violated _ -> false

(* Bit-identity of two solves: status, objective bits, every primal bit and
   the basis. *)
let same_bits (a : Simplex.result) (b : Simplex.result) =
  let bits = Int64.bits_of_float in
  a.Simplex.status = b.Simplex.status
  && bits a.Simplex.obj = bits b.Simplex.obj
  && Array.length a.Simplex.x = Array.length b.Simplex.x
  && Array.for_all2 (fun u v -> bits u = bits v) a.Simplex.x b.Simplex.x
  && a.Simplex.basis = b.Simplex.basis

let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm dual reopt agrees with cold primal" ~count:200
    (QCheck.make random_warm_case_gen)
    (fun ((nvars, _, _, _, _, tighten_var, tighten_upper, new_bound) as case) ->
      let model = build_model case in
      let parent = Bb.relax model in
      match Simplex.solve_r parent with
      | Error _ -> QCheck.assume_fail ()
      | Ok { Simplex.status = Simplex.Optimal; basis = Some basis; x = px; _ } ->
        (* parent solution certifies against the model (structural prefix) *)
        if not (certified model (Array.sub px 0 nvars)) then false
        else begin
          let lb = Array.copy parent.Simplex.lb in
          let ub = Array.copy parent.Simplex.ub in
          let b = float_of_int new_bound in
          if tighten_upper then ub.(tighten_var) <- min ub.(tighten_var) b
          else lb.(tighten_var) <- max lb.(tighten_var) b;
          if lb.(tighten_var) > ub.(tighten_var) then QCheck.assume_fail ()
          else begin
            let child = { parent with Simplex.lb; ub } in
            match (Simplex.solve_r ~warm:basis child, Simplex.solve_r child) with
            | Ok w, Ok c ->
              (* one shared session solves the child cold, then warm, then
                 the parent and the child warm again (branch-and-bound's
                 plunge order, where the child keeps the parent's factor in
                 the session's engine), twice over: the repeats hit the
                 session's [rebase] memo (the warm solves also hit entries a
                 cold solve stored with −1 artificials), and every solve of
                 the child must return the fresh-session bits *)
              let s = Simplex.session child in
              let warm_check what =
                match Simplex.solve_r ~session:s ~warm:basis child with
                | Ok r when same_bits r w -> ()
                | Ok _ | Error _ ->
                  QCheck.Test.fail_reportf "%s warm solve differs from a fresh one" what
              in
              for _ = 1 to 2 do
                (match Simplex.solve_r ~session:s child with
                 | Ok r when same_bits r c -> ()
                 | Ok _ | Error _ ->
                   QCheck.Test.fail_reportf "shared-session cold solve differs from a fresh one");
                warm_check "shared-session";
                (match Simplex.solve_r ~session:s parent with
                 | Ok _ -> ()
                 | Error _ -> QCheck.Test.fail_reportf "shared-session parent solve failed");
                warm_check "plunge-order"
              done;
              if w.Simplex.status <> c.Simplex.status then
                QCheck.Test.fail_reportf "status mismatch: warm vs cold"
              else if w.Simplex.status = Simplex.Optimal then
                (* objectives agree to solver precision... *)
                Float.abs (w.Simplex.obj -. c.Simplex.obj)
                <= opt_tol *. (1. +. Float.abs c.Simplex.obj)
                (* ...both are feasible for the child LP... *)
                && Simplex.feasible child w.Simplex.x
                && Simplex.feasible child c.Simplex.x
                (* ...and both certify against the original model (the
                   child only tightened bounds, so its solutions satisfy
                   the parent's rows and looser bounds) *)
                && certified model (Array.sub w.Simplex.x 0 nvars)
                && certified model (Array.sub c.Simplex.x 0 nvars)
                (* vertex canonicalization: the solves are bit-identical *)
                && w.Simplex.x = c.Simplex.x
              else true
            | Error _, _ | _, Error _ -> QCheck.assume_fail ()
          end
        end
      | Ok _ -> QCheck.assume_fail ())

(* Tier-1 pin on the branch-and-bound tree: three suite layers, two-stage
   formulation, 500 nodes, and one of them again at the benchmark's budget
   of 3000 nodes. Each row is (layer, node limit, nodes, simplex iterations,
   digest of the decoded mapping and the objective bits), so a change that
   moves one bit of the node pipeline's arithmetic fails here, not only in
   the bench identity gate. These LPs have at most 32 rows, so their
   factors come from the prefix chain, and at 3000 nodes most [rebase]
   calls are memo hits. *)
let tree_pins =
  [ ("3_56_64_64_1", 500, 500, 2010, "54e0f32ab19f2307a53bbf81234e3595");
    ("ocr_35_700_2048", 500, 500, 1354, "7e211a49d2e622d088295458b8f93787");
    ("face_3_27_64_128_2", 500, 500, 1491, "b0ee393786498ea26c8449481fd87ba0");
    ("3_56_64_64_1", 3000, 3000, 8971, "7b0c825c8c08150b14c2d8e718996e8a") ]

(* The same pin on the joint formulation at 10 nodes: 62-196 rows, above
   the chain cutoff, so every factor is a scratch elimination. *)
let joint_tree_pins =
  [ ("fc1000", 10, 10, 214, "12f3207fb7b9310ecbd749d0213e23e4");
    ("face_fc_512_512", 10, 10, 227, "bde2a872f1d8b69850392a8856ea4f0b");
    ("1_56_64_256_1", 10, 10, 800, "febb9f2616288ac7a8b110746a5043fa") ]

let tree_fingerprint ~joint ~node_limit name =
  let f = Cosa_formulation.build ~joint_permutation:joint Spec.baseline (Zoo.find name) in
  let r =
    Bb.solve ~node_limit ~time_limit:600. ~priority:f.Cosa_formulation.priority
      f.Cosa_formulation.lp
  in
  let mapping =
    match Cosa_decode.decode_r f r with
    | Ok m -> Mapping_io.to_string m
    | Error e -> Robust.Failure.to_string e
  in
  ( r.Bb.nodes,
    r.Bb.simplex_iterations,
    Digest.to_hex (Digest.string (mapping ^ Int64.to_string (Int64.bits_of_float r.Bb.obj))) )

let check_tree_pins ~joint pins () =
  let got =
    List.map (fun (name, node_limit, _, _, _) -> tree_fingerprint ~joint ~node_limit name) pins
  in
  List.iter2
    (fun (name, _, nodes, iterations, digest) (n, i, d) ->
      Alcotest.(check int) (name ^ " nodes") nodes n;
      Alcotest.(check int) (name ^ " simplex iterations") iterations i;
      Alcotest.(check string) (name ^ " mapping and objective") digest d)
    pins got

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "warm",
    [ qc prop_warm_matches_cold;
      Alcotest.test_case "B&B tree pins on three suite layers" `Quick
        (check_tree_pins ~joint:false tree_pins);
      Alcotest.test_case "joint B&B tree pins above the chain cutoff" `Quick
        (check_tree_pins ~joint:true joint_tree_pins) ] )
