type weights = Cosa_formulation.weights = { w_util : float; w_comp : float; w_traf : float }

let default_weights = Cosa_formulation.default_weights

(* Weight the traffic term by the architecture's NoC cycles-per-word so
   that traffic and compute are commensurable; the compute and utilisation
   weights come from a micro-benchmark sweep on the baseline architecture
   (Section III-D4's procedure; see the abl_weights bench). Double
   buffering hides transfers behind compute in this substrate, so compute
   cycles carry the larger weight. *)
let calibrate arch =
  let gb = arch.Spec.levels.(Spec.level_count arch - 2) in
  let words_per_cycle = gb.Spec.bandwidth_words /. float_of_int (Spec.num_pes arch) in
  let cycles_per_word = 1. /. Float.max 1e-9 words_per_cycle in
  { w_util = 0.5; w_comp = 4.; w_traf = Float.max 0.5 (Float.min 4. cycles_per_word) }

type objective_breakdown = Cosa_objective.t = {
  util : float;
  comp : float;
  traf : float;
  total : float;
}

type strategy = Auto | Joint | Two_stage | Heuristic

let strategy_to_string = function
  | Auto -> "auto"
  | Joint -> "joint"
  | Two_stage -> "two-stage"
  | Heuristic -> "heuristic"

(* Which rung of the degradation ladder produced the returned mapping. *)
type source = Milp_joint | Milp_two_stage | Heuristic_sampler | Trivial

let source_to_string = function
  | Milp_joint -> "joint MIP"
  | Milp_two_stage -> "two-stage MIP"
  | Heuristic_sampler -> "heuristic sampler"
  | Trivial -> "trivial fallback"

type certify_mode = Certify.Certificate.mode = Off | Warn | Strict

let certify_mode_to_string = Certify.Certificate.mode_to_string

(* Outcome of the exact-arithmetic certification stage for the returned
   mapping (Cert_skipped exactly when certification ran in [Off] mode). *)
type certification = Cert_skipped | Cert_ok | Cert_failed of string list

let certification_to_string = function
  | Cert_skipped -> "certification skipped"
  | Cert_ok -> "certified"
  | Cert_failed vs -> "certification FAILED: " ^ String.concat "; " vs

type result = {
  mapping : Mapping.t;
  objective : objective_breakdown;
  solver_status : Milp.Bb.status;
  solve_time : float;
  nodes : int;
  repaired : bool;
  used_joint : bool;
  source : source;
  certification : certification;
      (* exact-arithmetic verdict on the returned mapping (and, for MIP
         rungs, on the solver's claimed solution) *)
  fallback_chain : Robust.Failure.t list;
      (* why each failed rung fell through, in the order the ladder was
         descended; empty exactly when the answer came without a fallback *)
}

let breakdown_of_mapping ?weights arch m = Cosa_objective.of_mapping ?weights arch m

(* Telemetry: one span per ladder rung (category "cosa") carrying the
   strategy and the certification verdict, plus counters for which rung
   served and how certification went. *)
let m_schedules = Telemetry.Metrics.counter "cosa.schedules"
let m_src_joint = Telemetry.Metrics.counter "cosa.source.joint"
let m_src_two_stage = Telemetry.Metrics.counter "cosa.source.two_stage"
let m_src_heuristic = Telemetry.Metrics.counter "cosa.source.heuristic"
let m_src_trivial = Telemetry.Metrics.counter "cosa.source.trivial"
let m_cert_ok = Telemetry.Metrics.counter "cosa.cert.ok"
let m_cert_failed = Telemetry.Metrics.counter "cosa.cert.failed"
let m_fallbacks = Telemetry.Metrics.counter "cosa.fallback_steps"

let source_counter = function
  | Milp_joint -> m_src_joint
  | Milp_two_stage -> m_src_two_stage
  | Heuristic_sampler -> m_src_heuristic
  | Trivial -> m_src_trivial

let verdict_token = function
  | Cert_skipped -> "skipped"
  | Cert_ok -> "ok"
  | Cert_failed _ -> "failed"

let trivial_mapping arch layer =
  let nlev = Spec.level_count arch in
  let dram = Spec.dram_level arch in
  let levels =
    Array.init nlev (fun i ->
        if i = dram then
          { Mapping.temporal =
              List.filter_map
                (fun d ->
                  let b = Layer.padded_bound layer d in
                  if b > 1 then Some { Mapping.dim = d; bound = b } else None)
                Cosa_decode.canonical_inner_order;
            spatial = [] }
        else { Mapping.temporal = []; spatial = [] })
  in
  Mapping.make layer levels

let schedule_impl ?weights ?(strategy = Auto) ?(node_limit = 50_000) ?(time_limit = 4.)
    ?(deadline = Robust.Deadline.none) ?(heuristic_retries = 3) ?(certify = Warn)
    ?(warm_start = true) arch layer =
  (* [warm_start] here toggles LP warm starting (parent-basis dual simplex)
     inside B&B; the MIP-start incumbent below reuses the name locally. *)
  let warm_lp_enabled = warm_start in
  let weights = match weights with Some w -> w | None -> calibrate arch in
  let t0 = Robust.Deadline.now () in
  (* effective budget: the tighter of the per-call time limit and the
     caller's absolute deadline; threaded through B&B into the simplex *)
  let dl = Robust.Deadline.tighten (Robust.Deadline.after time_limit) deadline in
  let failures = ref [] in
  let push f = failures := f :: !failures in
  let chain () = Robust.Failure.dedup_consecutive (List.rev !failures) in
  let last_status = ref Milp.Bb.No_solution in
  let total_nodes = ref 0 in
  let solve_time () = Robust.Deadline.now () -. t0 in
  let finish ?(repaired = false) ~certification ~source mapping =
    let fallback_chain = chain () in
    Telemetry.Metrics.incr (source_counter source);
    Telemetry.Metrics.add m_fallbacks (List.length fallback_chain);
    (match certification with
     | Cert_ok -> Telemetry.Metrics.incr m_cert_ok
     | Cert_failed _ -> Telemetry.Metrics.incr m_cert_failed
     | Cert_skipped -> ());
    {
      mapping;
      objective = Cosa_objective.of_mapping ~weights arch mapping;
      solver_status = !last_status;
      solve_time = solve_time ();
      nodes = !total_nodes;
      repaired;
      used_joint = (source = Milp_joint);
      source;
      certification;
      fallback_chain;
    }
  in
  (* Certification stage, run on every rung's candidate before it is
     accepted: replay the solver's claimed LP solution (MIP rungs only)
     and independently recheck the decoded mapping, both in exact
     arithmetic. Returns the verdict to record plus, on violation, the
     typed failure that [Strict] mode pushes before descending a rung. *)
  let certify_candidate ?lp mapping =
    match certify with
    | Off -> (Cert_skipped, None)
    | Warn | Strict ->
      let lp_cert =
        match lp with
        | Some (model, obj, values) -> Certify.Lp_cert.check ~obj model values
        | None -> Certify.Certificate.Certified
      in
      let cert =
        Certify.Certificate.combine lp_cert (Certify.Mapping_cert.check arch mapping)
      in
      (match cert with
       | Certify.Certificate.Certified -> (Cert_ok, None)
       | Certify.Certificate.Violated vs ->
         ( Cert_failed (List.map Certify.Certificate.violation_to_string vs),
           Certify.Certificate.to_failure cert ))
  in
  (* In [Strict] mode a candidate with a failed certificate is rejected —
     the violation joins the fallback chain and the ladder descends (via
     [retry]); in [Warn] mode the candidate is kept with the verdict
     recorded on the result. *)
  let accept_certified ?lp mapping retry k =
    match certify_candidate ?lp mapping with
    | _, Some f when certify = Strict ->
      push f;
      retry ()
    | verdict, _ -> k verdict
  in
  (* Sample up to [n] valid mappings and keep the best by the CoSA
     objective, evaluating each candidate exactly once. Used both to seed
     the branch-and-bound with an incumbent (MIP start) and as the
     heuristic rung of the degradation ladder. *)
  let best_sampled ~seed ~n =
    let rng = Prim.Rng.create seed in
    let scored =
      List.filter_map
        (fun _ ->
          match Sampler.valid rng arch layer with
          | None -> None
          | Some c ->
            Some ((Cosa_objective.of_mapping ~weights arch c).Cosa_objective.total, c))
        (List.init n Fun.id)
    in
    match scored with
    | [] -> None
    | first :: rest ->
      Some
        (snd
           (List.fold_left
              (fun (bs, bm) (s, m) -> if s < bs then (s, m) else (bs, bm))
              first rest))
  in
  let warm =
    if Robust.Deadline.expired dl || Robust.Fault.fire "cosa.warm" then None
    else best_sampled ~seed:0x5eed ~n:8
  in
  (* Rung 1: one-shot constrained optimisation. A failed attempt records
     why (typed) and yields None instead of raising. Each attempt gets an
     explicit share of the remaining budget so that under [Auto] the joint
     solve cannot starve the two-stage one; [dl] still caps the total. *)
  let attempt ~budget joint =
    let sp =
      Telemetry.Trace.begin_span ~cat:"cosa"
        (if joint then "cosa.rung.joint" else "cosa.rung.two_stage")
    in
    let outcome =
    match Cosa_formulation.build ~weights ~joint_permutation:joint arch layer with
    | exception Robust.Failure.Error f ->
      push f;
      None
    | exception e ->
      push (Robust.Failure.Invalid_input (Printexc.to_string e));
      None
    | f ->
      let warm_start =
        match warm with
        | Some wm -> Cosa_formulation.mip_start f wm
        | None -> None
      in
      let res =
        Milp.Bb.solve ~node_limit ~time_limit:budget ~deadline:dl
          ~priority:f.Cosa_formulation.priority ~gap:0.05 ?warm_start
          ~warm_lp:warm_lp_enabled f.Cosa_formulation.lp
      in
      total_nodes := !total_nodes + res.Milp.Bb.nodes;
      last_status := res.Milp.Bb.status;
      let fail_with fallback =
        (* prefer the solver's own typed failures; fall back to a
           status-derived cause when it swallowed none *)
        (match List.sort_uniq compare res.Milp.Bb.failures with
         | [] -> push fallback
         | fs -> List.iter push fs);
        None
      in
      (match res.Milp.Bb.status with
       | Milp.Bb.Optimal | Milp.Bb.Feasible -> (
         match Cosa_decode.decode_r f res with
         | Error df ->
           push df;
           None
         | Ok m ->
           let m = if joint then m else Cosa_decode.best_noc_order ~weights arch m in
           let m, repaired = Cosa_decode.repair arch m in
           if Mapping.is_valid arch m then
             accept_certified
               ~lp:(f.Cosa_formulation.lp, res.Milp.Bb.obj, res.Milp.Bb.values)
               m
               (fun () -> None)
               (fun verdict -> Some (m, res, repaired, verdict))
           else (
             push Robust.Failure.Decode_failed;
             None))
       | Milp.Bb.Infeasible | Milp.Bb.Unbounded -> fail_with Robust.Failure.Infeasible
       | Milp.Bb.No_solution ->
         fail_with
           (if Robust.Deadline.expired dl then Robust.Failure.Deadline_exceeded
            else Robust.Failure.Iteration_limit))
    in
    Telemetry.Trace.end_span
      ~args:
        [ ("strategy", strategy_to_string strategy);
          ( "verdict",
            match outcome with
            | Some (_, _, _, v) -> verdict_token v
            | None -> "fell-through" ) ]
      sp;
    outcome
  in
  let milp_attempts =
    match strategy with
    | Joint -> [ true ]
    | Two_stage -> [ false ]
    | Auto -> [ true; false ]
    | Heuristic -> [] (* skip the MIP rungs entirely; start at the sampler *)
  in
  let n_attempts = List.length milp_attempts in
  let milp_results =
    List.filter_map Fun.id
    @@ List.mapi
      (fun i joint ->
        if Robust.Deadline.expired dl then begin
          push Robust.Failure.Deadline_exceeded;
          None
        end
        else
          (* even split of what is left over the attempts still to run *)
          let budget =
            Robust.Deadline.remaining dl /. float_of_int (n_attempts - i)
          in
          match attempt ~budget joint with
          | Some (m, res, repaired, verdict) -> Some (joint, m, res, repaired, verdict)
          | None -> None)
      milp_attempts
  in
  (* Arbitrate between the (at most two) one-shot candidates with a single
     analytical-model evaluation each — deterministic and closed-form, not
     iterative search (see DESIGN.md fidelity notes). *)
  let scored =
    List.map
      (fun ((_, m, _, _, _) as cand) -> ((Model.evaluate arch m).Model.latency, cand))
      milp_results
  in
  match List.sort (fun (a, _) (b, _) -> compare a b) scored with
  | (_, (joint, mapping, res, repaired, verdict)) :: _ ->
    last_status := res.Milp.Bb.status;
    finish ~repaired ~certification:verdict
      ~source:(if joint then Milp_joint else Milp_two_stage)
      mapping
  | [] -> (
    (* Rung 2: heuristic sampler with seed-perturbed retries. *)
    let rec heuristic k =
      if Robust.Deadline.expired dl then begin
        push Robust.Failure.Deadline_exceeded;
        None
      end
      else if k > heuristic_retries then begin
        push Robust.Failure.Infeasible;
        None
      end
      else
        match best_sampled ~seed:(0x5eed + (0x9e37 * k)) ~n:8 with
        | Some m ->
          accept_certified m (fun () -> heuristic (k + 1)) (fun verdict -> Some (m, verdict))
        | None -> heuristic (k + 1)
    in
    (* the warm-start incumbent, when it exists, is already rung-2 output,
       but it too must pass certification before being returned *)
    let sp = Telemetry.Trace.begin_span ~cat:"cosa" "cosa.rung.heuristic" in
    let heuristic_result =
      match warm with
      | Some m -> accept_certified m (fun () -> heuristic 0) (fun verdict -> Some (m, verdict))
      | None -> heuristic 0
    in
    Telemetry.Trace.end_span
      ~args:
        [ ( "verdict",
            match heuristic_result with
            | Some (_, v) -> verdict_token v
            | None -> "fell-through" ) ]
      sp;
    match heuristic_result with
    | Some (m, verdict) -> finish ~certification:verdict ~source:Heuristic_sampler m
    | None ->
      (* Rung 3: the all-DRAM schedule — always constructible, always
         valid, never worth returning unless everything above failed. There
         is no rung below it, so a strict-mode certification failure here
         is recorded on the result (and in the chain) rather than hidden. *)
      let sp = Telemetry.Trace.begin_span ~cat:"cosa" "cosa.rung.trivial" in
      let m = trivial_mapping arch layer in
      let verdict, failure = certify_candidate m in
      (match failure with Some f when certify = Strict -> push f | _ -> ());
      Telemetry.Trace.end_span ~args:[ ("verdict", verdict_token verdict) ] sp;
      finish ~certification:verdict ~source:Trivial m)

(* Public entry point: one "cosa.schedule" span per call, annotated with
   the layer, the serving rung, and the certification verdict. *)
let schedule ?weights ?strategy ?node_limit ?time_limit ?deadline ?heuristic_retries
    ?certify ?warm_start arch layer =
  Telemetry.Metrics.incr m_schedules;
  let sp = Telemetry.Trace.begin_span ~cat:"cosa" "cosa.schedule" in
  let r =
    schedule_impl ?weights ?strategy ?node_limit ?time_limit ?deadline
      ?heuristic_retries ?certify ?warm_start arch layer
  in
  Telemetry.Trace.end_span
    ~args:
      [ ("layer", layer.Layer.name); ("source", source_to_string r.source);
        ("verdict", verdict_token r.certification) ]
    sp;
  r
