type status = Optimal | Feasible | Infeasible | Unbounded | No_solution

type result = {
  status : status;
  obj : float;
  values : float array;
  bound : float;
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
  failures : Robust.Failure.t list;
      (* typed failures swallowed during the search (pruned nodes whose LP
         aborted, expired deadline, injected faults), oldest first *)
}

let value r v = r.values.(Lp.var_index v)

(* Telemetry: one span per search plus one per evaluated node (category
   "bb"), a per-reason prune breakdown, and an instant event on every
   incumbent update so a trace shows the gap closing over time. *)
let m_nodes = Telemetry.Metrics.counter "bb.nodes"
let m_prune_bound = Telemetry.Metrics.counter "bb.prune.bound"
let m_prune_infeasible = Telemetry.Metrics.counter "bb.prune.infeasible"
let m_prune_gap = Telemetry.Metrics.counter "bb.prune.gap"
let m_prune_integral = Telemetry.Metrics.counter "bb.prune.integral"
let m_prune_aborted = Telemetry.Metrics.counter "bb.prune.aborted"
let m_incumbents = Telemetry.Metrics.counter "bb.incumbents"
let m_warm_nodes = Telemetry.Metrics.counter "bb.warm_nodes"
let m_cold_nodes = Telemetry.Metrics.counter "bb.cold_nodes"
let g_warm_rate = Telemetry.Metrics.gauge "bb.warm_start_rate"

(* Min-heap of B&B nodes keyed by LP bound. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let is_empty h = h.size = 0

  let push h key v =
    if h.size >= Array.length h.data then begin
      let ncap = max 16 (2 * Array.length h.data) in
      let nd = Array.make ncap (0., v) in
      Array.blit h.data 0 nd 0 h.size;
      h.data <- nd
    end;
    h.data.(h.size) <- (key, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      let p = (!i - 1) / 2 in
      let t = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- t;
      i := p
    done

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        let t = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- t;
        i := !smallest
      end
    done;
    top
end

(* Convert the model into equality standard form: one slack per inequality
   row. Structural columns keep their indices; slacks follow. *)
let relax model =
  let nv = Lp.num_vars model in
  let rows = Lp.constrs model in
  let m = Array.length rows in
  let nslack = Array.fold_left (fun acc (_, s, _) -> match s with Lp.Eq -> acc | Lp.Le | Lp.Ge -> acc + 1) 0 rows in
  let ncols = nv + nslack in
  let col_entries = Array.make ncols [] in
  let rhs = Array.make m 0. in
  let lb = Array.make ncols 0. and ub = Array.make ncols infinity in
  for j = 0 to nv - 1 do
    let l, u = Lp.bounds model (Lp.var_of_index model j) in
    lb.(j) <- l;
    ub.(j) <- u
  done;
  let next_slack = ref nv in
  Array.iteri
    (fun i (terms, sense, b) ->
      rhs.(i) <- b;
      Array.iter (fun (j, c) -> col_entries.(j) <- (i, c) :: col_entries.(j)) terms;
      (match sense with
       | Lp.Eq -> ()
       | Lp.Le ->
         col_entries.(!next_slack) <- [ (i, 1.) ];
         lb.(!next_slack) <- 0.;
         ub.(!next_slack) <- infinity;
         incr next_slack
       | Lp.Ge ->
         col_entries.(!next_slack) <- [ (i, -1.) ];
         lb.(!next_slack) <- 0.;
         ub.(!next_slack) <- infinity;
         incr next_slack))
    rows;
  let cols =
    Array.map
      (fun entries ->
        let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
        (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries)))
      col_entries
  in
  let cost = Array.make ncols 0. in
  let obj = Lp.objective_coeffs model in
  let sign = match Lp.objective_sense model with `Minimize -> 1. | `Maximize -> -1. in
  Array.iteri (fun j c -> cost.(j) <- sign *. c) obj;
  { Simplex.nrows = m; ncols; cols; cost; lb; ub; rhs }

(* A search node: bound deltas against the base relaxation, plus the
   parent's optimal LP basis, shared (never mutated) between the two
   children. A node holds no factorization: the session's engine still
   holds the parent's canonical factor when the plunge child is solved
   next, and any other warm entry rebuilds it from the basis. *)
type node = {
  nlb : (int * float) list;
  nub : (int * float) list;
  depth : int;
  nbasis : Simplex.Basis.t option;
}

(* Check a candidate assignment against the model's own constraints/bounds. *)
let check_feasible ?(tol = 1e-6) model x =
  let nv = Lp.num_vars model in
  Array.length x = nv
  && (let ok = ref true in
      for j = 0 to nv - 1 do
        let l, u = Lp.bounds model (Lp.var_of_index model j) in
        if x.(j) < l -. tol || x.(j) > u +. tol then ok := false;
        if Lp.is_integer model (Lp.var_of_index model j)
           && Float.abs (x.(j) -. Float.round x.(j)) > tol
        then ok := false
      done;
      Array.iter
        (fun (terms, sense, rhs) ->
          let lhs = Array.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0. terms in
          let scale = 1. +. Float.abs rhs in
          (match sense with
           | Lp.Le -> if lhs > rhs +. (tol *. scale) then ok := false
           | Lp.Ge -> if lhs < rhs -. (tol *. scale) then ok := false
           | Lp.Eq -> if Float.abs (lhs -. rhs) > tol *. scale then ok := false))
        (Lp.constrs model);
      !ok)

let solve_impl ?(node_limit = 200_000) ?(time_limit = 60.) ?(deadline = Robust.Deadline.none)
    ?(integrality_tol = 1e-6) ?priority ?(gap = 0.) ?warm_start ?(warm_lp = true) model =
  let t0 = Robust.Deadline.now () in
  (* the effective budget is the tighter of the relative time limit and the
     caller's absolute deadline; both propagate into every node's simplex *)
  let dl = Robust.Deadline.tighten (Robust.Deadline.after time_limit) deadline in
  let failures = ref [] in
  let nfailures = ref 0 in
  let record_failure f =
    (* cap the log so a fault storm cannot grow the result without bound *)
    if !nfailures < 64 then begin
      failures := f :: !failures;
      incr nfailures
    end
  in
  (* set when the search is cut short (budget, deadline, or aborted node
     LPs): the incumbent can then no longer be certified optimal *)
  let explored_all = ref true in
  let base = relax model in
  let nv = Lp.num_vars model in
  let int_vars =
    List.filter
      (fun j -> Lp.is_integer model (Lp.var_of_index model j))
      (List.init nv Fun.id)
    |> Array.of_list
  in
  let sign = match Lp.objective_sense model with `Minimize -> 1. | `Maximize -> -1. in
  let obj_const = Lp.objective_constant model in
  let user_obj internal = (sign *. internal) +. obj_const in
  let nodes = ref 0 and simplex_iterations = ref 0 in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in (* internal (minimisation) sense *)
  (match warm_start with
   | Some x when check_feasible ~tol:integrality_tol model x ->
     let obj = Lp.objective_coeffs model in
     let v = ref 0. in
     Array.iteri (fun j c -> v := !v +. (c *. x.(j))) obj;
     incumbent := Some (Array.copy x);
     incumbent_obj := sign *. !v
   | Some _ | None -> ());
  let heap = Heap.create () in
  let rows = Presolve.rows_of base in
  let integer_cols =
    let a = Array.make base.ncols false in
    Array.iter (fun j -> a.(j) <- true) int_vars;
    a
  in
  (* Node bound arrays are blitted into two scratch buffers allocated once
     per search instead of freshly copied per node: the simplex reads them
     only during its own setup, so reuse across (sequential) node solves is
     safe and removes two ncols-sized allocations from every node. Heap
     siblings carry only their bound-delta lists — no arrays are copied on
     branch. Every node LP shares [base]'s matrix and costs, so one solver
     session serves the whole search. *)
  let scratch_lb = Array.make base.ncols 0. in
  let scratch_ub = Array.make base.ncols 0. in
  let session = Simplex.session base in
  let lp_warm = ref 0 and lp_cold = ref 0 in
  let solve_node node =
    Array.blit base.lb 0 scratch_lb 0 base.ncols;
    Array.blit base.ub 0 scratch_ub 0 base.ncols;
    let lb = scratch_lb and ub = scratch_ub in
    List.iter (fun (j, v) -> let l = lb.(j) in lb.(j) <- (if l >= v then l else v)) node.nlb;
    List.iter (fun (j, v) -> let u = ub.(j) in ub.(j) <- (if u <= v then u else v)) node.nub;
    let conflict = ref false in
    List.iter (fun (j, _) -> if lb.(j) > ub.(j) +. 1e-12 then conflict := true) node.nlb;
    List.iter (fun (j, _) -> if lb.(j) > ub.(j) +. 1e-12 then conflict := true) node.nub;
    if !conflict then
      Ok { Simplex.status = Simplex.Infeasible; obj = infinity; x = [||];
           iterations = 0; warm = false; basis = None }
    else begin
      (* propagate the branching decisions through the equality rows; this
         often fixes sibling variables or proves the node infeasible
         before any simplex work *)
      let pre = Presolve.tighten ~integer:integer_cols base rows lb ub in
      if not pre.Presolve.feasible then
        Ok { Simplex.status = Simplex.Infeasible; obj = infinity; x = [||];
             iterations = 0; warm = false; basis = None }
      else begin
        (* a bound change keeps the parent basis dual feasible, so child
           LPs reoptimize with a few dual pivots instead of a cold solve *)
        let warm = if warm_lp then node.nbasis else None in
        let res = Simplex.solve_r ~session ?warm ~deadline:dl { base with lb; ub } in
        (match res with
         | Ok r when node.depth > 0 ->
           if r.Simplex.warm then begin
             incr lp_warm;
             Telemetry.Metrics.incr m_warm_nodes
           end
           else begin
             incr lp_cold;
             Telemetry.Metrics.incr m_cold_nodes
           end
         | Ok _ | Error _ -> ());
        res
      end
    end
  in
  let fractional x =
    (* branch on the highest-priority fractional integer variable,
       most-fractional within a priority class *)
    let best = ref (-1) and best_prio = ref neg_infinity and best_score = ref 0. in
    for i = 0 to Array.length int_vars - 1 do
      let j = int_vars.(i) in
      let f = x.(j) -. floor x.(j) in
      let score = Float.min f (1. -. f) in
      let pj = match priority with Some p -> p.(j) | None -> 0. in
      if score > integrality_tol
         && (pj > !best_prio || (pj = !best_prio && score > !best_score))
      then begin
        best := j;
        best_prio := pj;
        best_score := score
      end
    done;
    !best
  in
  let root = { nlb = []; nub = []; depth = 0; nbasis = None } in
  let unbounded = ref false in
  (* Smallest LP bound (internal sense) of a node dropped without proof
     that it holds nothing better than the incumbent: aborted and
     iteration-limited nodes, nodes cut off only thanks to [gap], and nodes
     left open when the budget ran out. The reported bound folds it in. *)
  let dropped = ref infinity in
  let drop b = if b < !dropped then dropped := b in
  (* a prune against the incumbent is a proof only within 1e-9 *)
  let drop_gap_pruned b = if b < !incumbent_obj -. 1e-9 then drop b in
  (* Evaluate one node. Returns the preferred child to plunge into (the one
     matching the LP value's rounding) after queueing its sibling. *)
  let process node parent_bound =
    if parent_bound >= !incumbent_obj -. gap -. 1e-9 then begin
      Telemetry.Metrics.incr m_prune_bound;
      drop_gap_pruned parent_bound;
      None
    end
    else begin
      incr nodes;
      Telemetry.Metrics.incr m_nodes;
      Telemetry.Trace.with_span ~cat:"bb" "bb.node" @@ fun () ->
      match
        match Robust.Fault.check "bb.node" with
        | Error f -> Error f
        | Ok () -> solve_node node
      with
      | Error f ->
        (* a node LP that aborts (singular basis, NaN, deadline, injected
           fault) is pruned, but the search can no longer claim optimality *)
        record_failure f;
        explored_all := false;
        drop parent_bound;
        Telemetry.Metrics.incr m_prune_aborted;
        None
      | Ok res ->
      simplex_iterations := !simplex_iterations + res.Simplex.iterations;
      match res.Simplex.status with
      | Simplex.Infeasible ->
        Telemetry.Metrics.incr m_prune_infeasible;
        None
      | Simplex.Iteration_limit ->
        (* an LP stopped short proves nothing about the subtree: handled
           like an aborted one, under its historical prune counter *)
        explored_all := false;
        drop parent_bound;
        Telemetry.Metrics.incr m_prune_infeasible;
        None
      | Simplex.Unbounded ->
        if node.depth = 0 then unbounded := true;
        Telemetry.Metrics.incr m_prune_infeasible;
        None
      | Simplex.Optimal ->
        if res.Simplex.obj >= !incumbent_obj -. gap -. 1e-9 then begin
          Telemetry.Metrics.incr m_prune_gap;
          drop_gap_pruned res.Simplex.obj;
          None
        end
        else begin
          let bv = fractional res.Simplex.x in
          if bv < 0 then begin
            (* integral: new incumbent; snap integer values exactly *)
            let x = Array.sub res.Simplex.x 0 nv in
            Array.iter (fun j -> x.(j) <- Float.round x.(j)) int_vars;
            incumbent := Some x;
            incumbent_obj := res.Simplex.obj;
            Telemetry.Metrics.incr m_prune_integral;
            Telemetry.Metrics.incr m_incumbents;
            Telemetry.Trace.instant ~cat:"bb" "bb.incumbent"
              ~args:
                [ ("obj", Printf.sprintf "%.6g" (user_obj res.Simplex.obj));
                  ("nodes", string_of_int !nodes) ];
            None
          end
          else begin
            let fv = res.Simplex.x.(bv) in
            (* both children start from this node's optimal basis (shared,
               immutable) — the branch only tightens one bound, so the
               basis stays dual feasible for either side. The plunge child
               is solved next, from the factor the session still holds. *)
            let down =
              { node with nub = (bv, floor fv) :: node.nub;
                depth = node.depth + 1; nbasis = res.Simplex.basis }
            in
            let up =
              { node with nlb = (bv, ceil fv) :: node.nlb;
                depth = node.depth + 1; nbasis = res.Simplex.basis }
            in
            let first, second = if fv -. floor fv <= 0.5 then (down, up) else (up, down) in
            Heap.push heap res.Simplex.obj second;
            Some (res.Simplex.obj, first)
          end
        end
    end
  in
  (* Depth-first plunge from a node until it prunes, then resume best-first
     from the heap. Plunging finds integral incumbents quickly, which best-
     first search alone postpones indefinitely. *)
  let out_of_budget () = !nodes >= node_limit || Robust.Deadline.expired dl in
  let rec plunge node bound =
    if out_of_budget () then begin
      explored_all := false;
      drop bound
    end
    else
      match process node bound with
      | Some (b, child) -> plunge child b
      | None -> ()
  in
  plunge root neg_infinity;
  (try
     while not (Heap.is_empty heap) do
       if out_of_budget () then begin
         (* the heap's top is the tightest outstanding bound *)
         let b, _ = Heap.pop heap in
         drop b;
         explored_all := false;
         raise Exit
       end;
       let bound, node = Heap.pop heap in
       plunge node bound
     done
   with Exit -> ());
  let elapsed = Robust.Deadline.now () -. t0 in
  (* fraction of non-root node LPs served by warm-started dual simplex *)
  (if !lp_warm + !lp_cold > 0 then
     Telemetry.Metrics.set_gauge g_warm_rate
       (float_of_int !lp_warm /. float_of_int (!lp_warm + !lp_cold)));
  if Robust.Deadline.expired dl
     && not !explored_all
     && not (List.exists (Robust.Failure.equal Robust.Failure.Deadline_exceeded) !failures)
  then failures := Robust.Failure.Deadline_exceeded :: !failures;
  let failures = List.rev !failures in
  let limit_hit = not !explored_all in
  (* the optimum is the incumbent or lies in a node dropped without proof *)
  let bound = user_obj (Float.min !incumbent_obj !dropped) in
  match !incumbent with
  | Some x ->
    { status = (if limit_hit then Feasible else Optimal);
      obj = user_obj !incumbent_obj;
      values = x;
      bound;
      nodes = !nodes;
      simplex_iterations = !simplex_iterations;
      elapsed;
      failures }
  | None ->
    if !unbounded then
      { status = Unbounded; obj = (match Lp.objective_sense model with
          | `Minimize -> neg_infinity | `Maximize -> infinity);
        values = Array.make nv 0.; bound = nan; nodes = !nodes;
        simplex_iterations = !simplex_iterations; elapsed; failures }
    else if limit_hit then
      { status = No_solution; obj = nan; values = Array.make nv 0.; bound;
        nodes = !nodes; simplex_iterations = !simplex_iterations; elapsed; failures }
    else
      { status = Infeasible; obj = nan; values = Array.make nv 0.; bound = nan;
        nodes = !nodes; simplex_iterations = !simplex_iterations; elapsed; failures }

(* Public entry point: one "bb.solve" span covers the whole search. *)
let solve ?node_limit ?time_limit ?deadline ?integrality_tol ?priority ?gap ?warm_start
    ?warm_lp model =
  Telemetry.Trace.with_span ~cat:"bb" "bb.solve" (fun () ->
      solve_impl ?node_limit ?time_limit ?deadline ?integrality_tol ?priority ?gap
        ?warm_start ?warm_lp model)
