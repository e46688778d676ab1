type status = Optimal | Infeasible | Unbounded | Iteration_limit

(* Internal control-flow exception: aborts the current solve with a typed
   failure (singular basis, deadline, NaN corruption, injected fault).
   Never escapes [solve_r], which returns it as an [Error]. *)
exception Lp_abort of Robust.Failure.t

type problem = {
  nrows : int;
  ncols : int;
  cols : (int array * float array) array;
  cost : float array;
  lb : float array;
  ub : float array;
  rhs : float array;
}

(* An explicit simplex basis: which column is basic in each row, plus the
   resting status of every column (structural first, then one logical per
   row). A basis returned from an optimal solve of a parent LP stays dual
   feasible after any bound change — reduced costs depend on the basis and
   costs only — so a child LP in branch-and-bound can reoptimize with a few
   dual pivots instead of a cold two-phase solve. *)
module Basis = struct
  type vstat = Vbasic | Vlower | Vupper | Vfree

  type t = {
    basic : int array;  (* column basic in row r, length nrows *)
    vstat : vstat array;  (* per-column status, length ncols + nrows *)
  }
end

type result = {
  status : status;
  obj : float;
  x : float array;
  iterations : int;
  warm : bool;  (* solved by dual reoptimization from a supplied basis *)
  basis : Basis.t option;  (* final basis when [status = Optimal] *)
}

(* The solver's numerical tolerances, exposed as one record so the exact-
   arithmetic certifier (lib/certify) checks against the very same values
   the pivot loop used — the checker and the solver cannot drift apart. *)
module Tolerances = struct
  type t = { feas_tol : float; opt_tol : float; pivot_tol : float }

  let default = { feas_tol = 1e-7; opt_tol = 1e-7; pivot_tol = 1e-9 }
end

let feas_tol = Tolerances.default.Tolerances.feas_tol
let opt_tol = Tolerances.default.Tolerances.opt_tol
let pivot_tol = Tolerances.default.Tolerances.pivot_tol

(* Relative row-residual threshold: past this, accumulated eta roundoff in
   the incremental factorization is visibly corrupting the basic values and
   a refactorization is forced at the next checkpoint. *)
let residual_tol = 1e-6

(* Telemetry: aggregate counters recorded per solve, per refactorization,
   or per pivot (eta updates) — each a single atomic flag load when
   telemetry is disabled, invisible next to the O(m²) pivot itself. *)
let m_solves = Telemetry.Metrics.counter "simplex.solves"
let m_phase1 = Telemetry.Metrics.counter "simplex.phase1_iterations"
let m_phase2 = Telemetry.Metrics.counter "simplex.phase2_iterations"
let m_dual = Telemetry.Metrics.counter "simplex.dual_iterations"
let m_warm = Telemetry.Metrics.counter "simplex.warm_solves"
let m_cold = Telemetry.Metrics.counter "simplex.cold_solves"
let m_warm_fallback = Telemetry.Metrics.counter "simplex.warm_fallbacks"
let m_refactor = Telemetry.Metrics.counter "simplex.refactorizations"
let m_bland = Telemetry.Metrics.counter "simplex.bland_activations"
let m_eta = Telemetry.Metrics.counter "simplex.eta_updates"
let m_trig_chain = Telemetry.Metrics.counter "simplex.refactor_triggers.chain"
let m_trig_stability = Telemetry.Metrics.counter "simplex.refactor_triggers.stability"
let m_trig_residual = Telemetry.Metrics.counter "simplex.refactor_triggers.residual"
(* warm entries that keep the engine's factor: the solves that build none
   (the name predates the kept engine; bench/perf's hit ratio reads it) *)
let m_factor_hit = Telemetry.Metrics.counter "simplex.factor_cache_hits"
(* eta steps of the canonical chain *)
let m_factor_ext = Telemetry.Metrics.counter "simplex.factor_extensions"

(* Location of a column: basic in some row, or nonbasic resting at a bound. *)
type location = Basic of int | At_lower | At_upper | Free_zero

(* Solver state. Every array is sized once per session (see [session]) and
   re-initialized at the start of each solve; only [p] and the mutable
   scalars change identity between solves. [canon] and [canon_ok] alone
   outlive a solve: they say which basis [fac] still holds canonically,
   so the next warm entry from that very basis keeps the engine. *)
type state = {
  mutable p : problem;           (* the LP being solved: session's cols/cost *)
  m : int;                       (* rows *)
  ntot : int;                    (* structural + artificial columns *)
  acols : (int array * float array) array; (* all columns incl. artificials *)
  plus : (int array * float array) array;  (* +1 logical column of each row *)
  basic_at : location array;     (* [Basic r] of each row, shared *)
  alb : float array;
  aub : float array;
  loc : location array;
  basis : int array;             (* column basic in each row *)
  fac : Lu.t;                    (* incremental basis factorization engine *)
  xb : float array;              (* values of basic variables, by row *)
  xn : float array;              (* resting value of every column when nonbasic *)
  canon : int array;             (* basis [finalize] installed, in slot order *)
  mutable canon_ok : bool;       (* [fac] still holds its canonical factor *)
  mutable degenerate_streak : int;
  mutable bland : bool;
  mutable iterations : int;
}

(* Scratch shared by every stage of a solve — pivot loops, pricing,
   refactorization, and the canonical epilogue — so no stage allocates
   beyond the arrays a result hands back. *)
type workspace = {
  wy : float array;           (* dual vector *)
  wcb : float array;          (* basic costs c_B, by row *)
  walpha : float array;       (* ftran result column *)
  wmat : float array array;   (* refactorization scratch (basis matrix) *)
  wres : float array;         (* rhs/residual scratch *)
  wdev : float array;         (* devex reference weights, by row *)
  wx : float array;           (* rebase: vertex value of every column *)
  wpat : Bytes.t;             (* rebase: interior pattern, '1' per interior column *)
  wlb : float array;          (* canonicalize: saved lower bounds *)
  wub : float array;          (* canonicalize: saved upper bounds *)
  wflag : bool array;         (* per column: warm basic-set check, rebase basic set *)
  wrow : bool array;          (* per row: rebase pivoted rows, chain wanted logicals *)
  wpiv : int array;           (* rebase: pivot row of each accepted column *)
  wacc : int array;           (* rebase: accepted columns *)
  wnz : int array;            (* rebase: nonzero rows of each accepted column *)
  wnzs : int array;           (* rebase: start of each accepted column's rows in [wnz] *)
  wslot : int array;          (* chain: column basic in each row *)
}

let make_workspace m ntot =
  let n = max 1 m in
  { wy = Array.make n 0.; wcb = Array.make n 0.; walpha = Array.make n 0.;
    wmat = Array.make_matrix n n 0.; wres = Array.make n 0.;
    wdev = Array.make n 1.; wx = Array.make ntot 0.;
    wpat = Bytes.make ntot '0';
    wlb = Array.make ntot 0.; wub = Array.make ntot 0.;
    wflag = Array.make ntot false; wrow = Array.make n false;
    wpiv = Array.make n 0; wacc = Array.make n 0;
    wnz = Array.make (n * n) 0; wnzs = Array.make (n + 1) 0;
    wslot = Array.make n 0 }

(* Rest nonbasic column [j] at its lower bound, else at its upper, else
   (no finite bound) free at zero; [rest_upper] tries the upper first. *)
let rest_lower st j =
  let l = st.alb.(j) and u = st.aub.(j) in
  if l > neg_infinity then begin st.loc.(j) <- At_lower; st.xn.(j) <- l end
  else if u < infinity then begin st.loc.(j) <- At_upper; st.xn.(j) <- u end
  else begin st.loc.(j) <- Free_zero; st.xn.(j) <- 0. end

let rest_upper st j =
  let u = st.aub.(j) in
  if u < infinity then begin st.loc.(j) <- At_upper; st.xn.(j) <- u end
  else rest_lower st j

(* Fresh per-attempt scalars, bounds and resting state. The logical
   columns are bounded by [0, logical_ub]: locked at zero on the warm path,
   phase-1 artificials (unbounded above) on the cold one. *)
let reset st ~logical_ub =
  let p = st.p and m = st.m in
  st.degenerate_streak <- 0;
  st.bland <- false;
  st.iterations <- 0;
  Array.blit p.lb 0 st.alb 0 p.ncols;
  Array.fill st.alb p.ncols m 0.;
  Array.blit p.ub 0 st.aub 0 p.ncols;
  Array.fill st.aub p.ncols m logical_ub;
  Array.fill st.xn 0 st.ntot 0.;
  Array.fill st.loc 0 st.ntot At_lower;
  Array.fill st.xb 0 m 0.

(* ---- canonical factor: size cutoff and basic-set order ----------------- *)

let int_array_eq (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do incr i done;
  !i = n

(* Which canonical factorization a basic set gets (see [finalize]) depends
   on the row count alone, so the choice stays path-independent: the
   prefix chain of [chain_build] up to this many rows (the two-stage node
   LPs, 9-15 rows), the sorted-order scratch elimination above it (the
   joint one-shot formulations, 62-196 rows). The elimination at every
   size would be simpler, but it defines other bits and so other trees.
   [rebase]'s memo uses the same cutoff. *)
let chain_max_rows = 32

(* Allocation-free insertion sort with no closure call per comparison:
   [rebase] emits a basic set as two ascending runs. *)
let sort_basis (a : int array) =
  for i = 1 to Array.length a - 1 do
    let v = a.(i) and j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* ---- factorization ----------------------------------------------------- *)

(* Rebuild the basis inverse from scratch. Raises [Lp_abort Singular_basis]
   on a singular basis; in a cold solve that indicates an internal invariant
   violation, in a warm solve it rejects a stale parent basis. *)
let refactor_basis st ws =
  (match Robust.Fault.check "simplex.refactor" with
   | Ok () -> ()
   | Error f -> raise (Lp_abort f));
  Telemetry.Metrics.incr m_refactor;
  try Lu.refactor st.fac ~scratch:ws.wmat ~cols:st.acols ~basis:st.basis ~pivot_tol
  with Lu.Singular -> raise (Lp_abort Robust.Failure.Singular_basis)

(* ws.wres = rhs − Σ A_j v_j, with v_j the resting value of every
   nonbasic column, plus (when [with_basic]) the basic value of every
   basic one. *)
let residual st ws ~with_basic =
  let r = ws.wres in
  Array.blit st.p.rhs 0 r 0 st.m;
  for j = 0 to st.ntot - 1 do
    let v =
      match st.loc.(j) with
      | Basic i -> if with_basic then st.xb.(i) else 0.
      | At_lower | At_upper | Free_zero -> st.xn.(j)
    in
    if v <> 0. then begin
      let rows, coeffs = st.acols.(j) in
      for k = 0 to Array.length rows - 1 do
        let row = rows.(k) in
        r.(row) <- r.(row) -. (coeffs.(k) *. v)
      done
    end
  done;
  r

(* xb = binv * (rhs - sum_{nonbasic j} A_j * xn_j) *)
let compute_xb st ws = Lu.apply st.fac (residual st ws ~with_basic:false) st.xb

let refactorize st ws =
  refactor_basis st ws;
  compute_xb st ws

(* Row-residual audit: ‖B xb + N xn − rhs‖∞ relative to the rhs scale.
   Catches eta-chain drift that the per-pivot magnitude test missed. *)
let residual_excess st ws =
  let r = residual st ws ~with_basic:true in
  let scale = ref 1. and worst = ref 0. in
  for i = 0 to st.m - 1 do
    let a = Float.abs st.p.rhs.(i) in
    if a > !scale then scale := a;
    let a = Float.abs r.(i) in
    if a > !worst then worst := a
  done;
  !worst > residual_tol *. !scale

(* NaN/Inf anywhere in the basic values means the eta updates have silently
   corrupted the factorization; surface it as a typed failure instead of
   letting garbage propagate into branching decisions. *)
let check_health st =
  for i = 0 to st.m - 1 do
    if not (Float.is_finite st.xb.(i)) then
      raise (Lp_abort Robust.Failure.Numerical_instability)
  done

(* The deadline is polled every [deadline_every] iterations — frequent
   enough that a single solve cannot overshoot its budget by more than a
   few pivots, rare enough that the clock read does not show up in
   profiles. *)
let deadline_every = 32

(* Run before every pivot of both loops: the [simplex.pivot] fault site;
   every [deadline_every] iterations the deadline, the health check and
   the residual audit (skipped on a fresh factorization: nothing to fix);
   then the stability trigger (a long eta chain or a dangerously small
   pivot). Returns whether the factor was rebuilt, so the dual loop can
   reset its devex frame. *)
let checkpoint st ws deadline =
  (match Robust.Fault.check "simplex.pivot" with
   | Ok () -> ()
   | Error f -> raise (Lp_abort f));
  let audited =
    st.iterations mod deadline_every = 0
    && begin
      if Robust.Deadline.expired deadline then
        raise (Lp_abort Robust.Failure.Deadline_exceeded);
      check_health st;
      Lu.chain_length st.fac > 0 && residual_excess st ws
    end
  in
  if audited then begin
    Telemetry.Metrics.incr m_trig_residual;
    refactorize st ws
  end;
  let triggered =
    match Lu.trigger st.fac with
    | Lu.No_refactor -> false
    | Lu.Chain -> Telemetry.Metrics.incr m_trig_chain; true
    | Lu.Stability -> Telemetry.Metrics.incr m_trig_stability; true
  in
  if triggered then refactorize st ws;
  audited || triggered

(* Degeneracy bookkeeping after each pivot of either loop: a long enough
   streak of degenerate steps switches pricing to Bland's rule. *)
let note_step st ~degenerate =
  if degenerate then st.degenerate_streak <- st.degenerate_streak + 1
  else st.degenerate_streak <- 0;
  if (not st.bland) && st.degenerate_streak > 2 * (st.m + st.ntot) then begin
    st.bland <- true;
    Telemetry.Metrics.incr m_bland
  end

(* Reduced cost of column j given the dual vector y. Inlined so the float
   result stays unboxed in the pricing loops. Its loop, the dual ratio
   test's row dot and [rebase]'s elimination index unchecked: [session]
   validated every column, and the logical columns are unit vectors. *)
let[@inline] reduced_cost st cost y j =
  let rows, coeffs = st.acols.(j) in
  let s = ref cost.(j) in
  for k = 0 to Array.length rows - 1 do
    s := !s -. (Array.unsafe_get y (Array.unsafe_get rows k) *. Array.unsafe_get coeffs k)
  done;
  !s

(* The direction in which a nonbasic column resting at [loc] with reduced
   cost [d] improves the objective by more than [tol]: 1. up, -1. down
   (a free column can go either way), 0. when it is dual feasible. *)
let[@inline] price_dir loc d tol =
  match loc with
  | At_lower -> if d < -.tol then 1. else 0.
  | At_upper -> if d > tol then -1. else 0.
  | Free_zero | Basic _ -> if d < -.tol then 1. else if d > tol then -1. else 0.

(* y = c_B B⁻¹: btran over the cost of the basic columns. *)
let compute_duals st ws cost y =
  let cb = ws.wcb in
  for r = 0 to st.m - 1 do
    cb.(r) <- cost.(st.basis.(r))
  done;
  Lu.btran st.fac cb y

(* alpha = binv * column j, sparse in the column's nonzero pattern *)
let ftran st j alpha = Lu.ftran st.fac st.acols.(j) alpha

(* Product-form eta update after [j] enters in row [r] with pivot column
   [alpha] (shared by the primal and dual pivot loops). *)
let eta_update st r alpha =
  Lu.update st.fac ~pivot_tol r alpha;
  Telemetry.Metrics.incr m_eta

exception Lp_unbounded
exception Lp_iteration_limit

(* One phase of the primal simplex: minimize [cost] from the current basis.
   Mutates [st]; returns when no improving nonbasic column remains. *)
let optimize st cost ws max_iterations deadline =
  let m = st.m in
  let y = ws.wy and alpha = ws.walpha in
  let continue_ = ref true in
  while !continue_ do
    if st.iterations >= max_iterations then raise Lp_iteration_limit;
    ignore (checkpoint st ws deadline);
    compute_duals st ws cost y;
    (* Pricing: Dantzig rule normally, Bland's rule after a degenerate streak. *)
    let entering = ref (-1) in
    let entering_dir = ref 1. in
    let best_score = ref opt_tol in
    (try
       for j = 0 to st.ntot - 1 do
         match st.loc.(j) with
         | Basic _ -> ()
         | loc ->
           if st.aub.(j) -. st.alb.(j) > pivot_tol then begin
             let d = reduced_cost st cost y j in
             let dir = price_dir loc d opt_tol in
             if dir <> 0. then
               if st.bland then begin
                 entering := j;
                 entering_dir := dir;
                 raise Exit
               end
               else if Float.abs d > !best_score then begin
                 best_score := Float.abs d;
                 entering := j;
                 entering_dir := dir
               end
           end
       done
     with Exit -> ());
    if !entering < 0 then continue_ := false
    else begin
      let j = !entering and dir = !entering_dir in
      ftran st j alpha;
      (* Ratio test: largest step t >= 0 keeping all basics inside their
         bounds; the entering variable may also be blocked by its own
         opposite bound (a bound flip, which needs no basis change). *)
      let own_limit = st.aub.(j) -. st.alb.(j) in
      let t = ref own_limit in
      let leaving = ref (-1) in
      let leaving_to_upper = ref false in
      for i = 0 to m - 1 do
        let rate = dir *. alpha.(i) in
        (* the basic value moves up toward its upper bound or down toward
           its lower; an infinite bound leaves infinite room *)
        let up = rate < -.pivot_tol and bj = st.basis.(i) in
        let room =
          if up then st.aub.(bj) -. st.xb.(i)
          else if rate > pivot_tol then st.xb.(i) -. st.alb.(bj)
          else infinity
        in
        if room < infinity then begin
          let step = room /. Float.abs rate in
          if step < !t -. pivot_tol || (step < !t +. pivot_tol && !leaving >= 0
               && Float.abs alpha.(i) > Float.abs alpha.(!leaving)) then begin
            t := max 0. step;
            leaving := i;
            leaving_to_upper := up
          end
        end
      done;
      if !t = infinity then raise Lp_unbounded;
      let t = !t in
      note_step st ~degenerate:(t < feas_tol);
      (* apply the step to basic values *)
      for i = 0 to m - 1 do
        st.xb.(i) <- st.xb.(i) -. (dir *. t *. alpha.(i))
      done;
      if !leaving < 0 then begin
        (* bound flip of the entering variable *)
        st.xn.(j) <- st.xn.(j) +. (dir *. t);
        st.loc.(j) <- (if dir > 0. then At_upper else At_lower)
      end
      else begin
        let r = !leaving in
        let old = st.basis.(r) in
        (* leaving variable rests at the bound it reached *)
        st.loc.(old) <- (if !leaving_to_upper then At_upper else At_lower);
        st.xn.(old) <- (if !leaving_to_upper then st.aub.(old) else st.alb.(old));
        (* entering variable becomes basic in row r *)
        st.basis.(r) <- j;
        st.loc.(j) <- st.basic_at.(r);
        st.xb.(r) <- st.xn.(j) +. (dir *. t);
        eta_update st r alpha
      end;
      st.iterations <- st.iterations + 1
    end
  done

(* ---- dual simplex ------------------------------------------------------ *)

(* Dual unboundedness with a verified dual-feasible basis: the primal LP is
   infeasible. *)
exception Dual_infeasible

(* Numerical trouble (stalled pivot, cycling, budget) in the dual loop: the
   warm attempt retreats to the cold two-phase path, which preserves every
   existing robustness guarantee. *)
exception Dual_giveup

let dual_feasible st cost y =
  let tol = 10. *. opt_tol in
  try
    for j = 0 to st.ntot - 1 do
      match st.loc.(j) with
      | Basic _ -> ()
      | loc ->
        if st.aub.(j) -. st.alb.(j) > pivot_tol
           && price_dir loc (reduced_cost st cost y j) tol <> 0.
        then raise Exit
    done;
    true
  with Exit -> false

(* Bounded-variable dual simplex: from a dual-feasible basis, drive the
   primal infeasibilities (basic values outside their bounds) to zero.
   Leaving row: devex pricing — the largest violation²/weight over a
   reference-framework weight per row (weights start at 1, grow with the
   pivot column, reset at refactorization), which approximates steepest-
   edge row selection at Dantzig cost. Entering column: smallest dual
   ratio |d_j| / |alpha_rj| over sign-eligible nonbasic columns, which
   keeps every reduced cost on its feasible side. Raises [Dual_infeasible]
   when no column can absorb the violation (the classic infeasibility
   proof), [Dual_giveup] on a stalled pivot or when [cap] pivots were
   spent without reaching feasibility (cycling guard). *)
let dual_optimize st cost ws ~cap deadline =
  let m = st.m in
  let y = ws.wy and alpha = ws.walpha and dw = ws.wdev in
  Array.fill dw 0 m 1.;
  let start = st.iterations in
  Fun.protect
    ~finally:(fun () -> Telemetry.Metrics.add m_dual (st.iterations - start))
  @@ fun () ->
  let continue_ = ref true in
  while !continue_ do
    if st.iterations - start >= cap then raise Dual_giveup;
    if checkpoint st ws deadline then Array.fill dw 0 m 1.;
    (* leaving row: largest violation²/weight (devex) *)
    let r = ref (-1) in
    let best_score = ref 0. in
    let s = ref 1. in   (* +1: must decrease (above ub); -1: must increase *)
    for i = 0 to m - 1 do
      let b = st.basis.(i) in
      let below = st.alb.(b) -. st.xb.(i) in
      let above = st.xb.(i) -. st.aub.(b) in
      let viol = if below > above then below else above in
      if viol > feas_tol then begin
        let score = viol *. viol /. dw.(i) in
        if score > !best_score then begin
          best_score := score;
          r := i;
          s := (if below > above then -1. else 1.)
        end
      end
    done;
    if !r < 0 then continue_ := false   (* primal feasible: optimal *)
    else begin
      let r = !r and s = !s in
      compute_duals st ws cost y;
      let row = Lu.row st.fac r in
      (* entering column: min dual ratio; ties prefer the larger pivot for
         stability, or the smallest index once Bland's rule is active *)
      let enter = ref (-1) in
      let best_ratio = ref infinity in
      let best_alpha = ref 0. in
      for j = 0 to st.ntot - 1 do
        match st.loc.(j) with
        | Basic _ -> ()
        | loc ->
          if st.aub.(j) -. st.alb.(j) > pivot_tol then begin
            let rows, coeffs = st.acols.(j) in
            let a = ref 0. in
            for k = 0 to Array.length rows - 1 do
              a := !a +. (Array.unsafe_get row (Array.unsafe_get rows k) *. Array.unsafe_get coeffs k)
            done;
            let a = !a in
            let eligible =
              match loc with
              | At_lower -> s *. a > pivot_tol
              | At_upper -> s *. a < -.pivot_tol
              | Free_zero -> Float.abs a > pivot_tol
              | Basic _ -> false
            in
            if eligible then begin
              let d = reduced_cost st cost y j in
              let ratio = Float.abs d /. Float.abs a in
              if ratio < !best_ratio -. 1e-12
                 || ((not st.bland) && ratio < !best_ratio +. 1e-12
                     && Float.abs a > Float.abs !best_alpha)
              then begin
                best_ratio := ratio;
                best_alpha := a;
                enter := j
              end
            end
          end
      done;
      if !enter < 0 then begin
        (* no column can absorb the violation: infeasible — but only claim
           it if the basis really is dual feasible, so a drifted basis can
           never prune a feasible child (it falls back to the cold path) *)
        if dual_feasible st cost y then raise Dual_infeasible else raise Dual_giveup
      end
      else begin
        let j = !enter in
        ftran st j alpha;
        if Float.abs alpha.(r) < pivot_tol then raise Dual_giveup;
        (* dual degeneracy (zero-ratio pivots) can cycle: same Bland ladder
           as the primal loop *)
        note_step st ~degenerate:(!best_ratio < opt_tol);
        let b = st.basis.(r) in
        let target = if s > 0. then st.aub.(b) else st.alb.(b) in
        let t = (st.xb.(r) -. target) /. alpha.(r) in
        for i = 0 to m - 1 do
          if i <> r then st.xb.(i) <- st.xb.(i) -. (t *. alpha.(i))
        done;
        st.loc.(b) <- (if s > 0. then At_upper else At_lower);
        st.xn.(b) <- target;
        st.basis.(r) <- j;
        st.loc.(j) <- st.basic_at.(r);
        st.xb.(r) <- st.xn.(j) +. t;
        (* devex reference-framework update from the pivot column *)
        let ar = alpha.(r) in
        let wr = dw.(r) in
        for i = 0 to m - 1 do
          if i <> r then begin
            let ai = alpha.(i) in
            if Float.abs ai > pivot_tol then begin
              let cand = ai /. ar *. (ai /. ar) *. wr in
              if cand > dw.(i) then dw.(i) <- cand
            end
          end
        done;
        dw.(r) <- Float.max 1. (wr /. (ar *. ar));
        eta_update st r alpha;
        st.iterations <- st.iterations + 1
      end
    end
  done

(* ---- vertex canonicalization ------------------------------------------- *)

(* The CoSA LPs are massively dual degenerate: the optimal face has many
   vertices, and which one a solve lands on depends on the pivot path — so
   a warm dual reoptimization and a cold two-phase solve of the same LP
   would return different (equally optimal) solutions, which would diverge
   the branch-and-bound trees of warm and cold runs. To keep the
   solution a function of the problem alone, every optimal solve finishes
   by minimizing a fixed generic secondary objective over the optimal face
   (entering columns restricted to zero reduced cost in the true
   objective, which preserves optimality exactly): a generic objective has
   a unique face optimum, so both paths converge to the same vertex. *)

(* Deterministic generic weight for column j in [1, 2) (splitmix64 hash):
   no two columns share a weight, making ties measure-zero. *)
let canonical_weight j =
  let h = Int64.of_int (j + 1) in
  let h = Int64.mul h 0x9E3779B97F4A7C15L in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul h 0xBF58476D1CE4E5B9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  1. +. (Int64.to_float (Int64.logand h 0xFFFFFFL) /. 16777216.)

let canonicalize st cost weights ws deadline =
  compute_duals st ws cost ws.wy;
  (* freeze every nonbasic column with a nonzero true reduced cost at its
     resting value: pricing then only ever enters face columns, so the true
     objective is invariant under the cleanup pivots *)
  let frozen_lb = ws.wlb and frozen_ub = ws.wub in
  Array.blit st.alb 0 frozen_lb 0 st.ntot;
  Array.blit st.aub 0 frozen_ub 0 st.ntot;
  for j = 0 to st.ntot - 1 do
    match st.loc.(j) with
    | Basic _ -> ()
    | At_lower | At_upper | Free_zero ->
      if
        st.aub.(j) -. st.alb.(j) > pivot_tol
        && Float.abs (reduced_cost st cost ws.wy j) > opt_tol
      then begin
        st.alb.(j) <- st.xn.(j);
        st.aub.(j) <- st.xn.(j)
      end
  done;
  st.bland <- false;
  st.degenerate_streak <- 0;
  (* bounded effort: a cleanup that stalls or roams an unbounded face just
     keeps the vertex it reached — identity is gated empirically, never at
     the cost of a solve failing *)
  (try optimize st weights ws (st.iterations + 50 + (4 * st.m)) deadline
   with Lp_unbounded | Lp_iteration_limit -> ());
  Array.blit frozen_lb 0 st.alb 0 st.ntot;
  Array.blit frozen_ub 0 st.aub 0 st.ntot

(* The canonical vertex can still be degenerate — represented by several
   bases — and which one a path ends at leaks into the extracted floats at
   the ulp level (different B⁻¹, different roundoff), which is enough to
   eventually diverge branching. [rebase] re-derives the basis from the
   vertex itself: interior columns (strictly between their bounds) must be
   basic, and the rest of the basis is completed by greedy elimination in
   ascending column order — a function of (problem, vertex) only. The
   logical columns are unit vectors, so completion always succeeds.

   The accepted set depends only on which columns are interior (not on
   [x], the bounds, the path or the sign of a logical column), so up to
   [chain_max_rows] a session memoizes it per pattern; DESIGN §10 gives
   the argument. *)
let rebase st ws memo =
  let m = st.m in
  let x = ws.wx and pat = ws.wpat in
  for j = 0 to st.ntot - 1 do
    (match st.loc.(j) with
     | Basic r -> x.(j) <- st.xb.(r)
     | At_lower | At_upper | Free_zero -> x.(j) <- st.xn.(j));
    let l = st.alb.(j) and u = st.aub.(j) in
    let interior =
      if l > neg_infinity || u < infinity then
        x.(j) > l +. feas_tol && x.(j) < u -. feas_tol
      else Float.abs x.(j) > feas_tol
    in
    Bytes.set pat j (if interior then '1' else '0')
  done;
  (* incremental elimination: lcols holds each accepted column after
     elimination against its predecessors, pivrow its pivot row, and
     nz.(nzs.(t) .. nzs.(t+1)-1) the rows where column t is nonzero — the
     only rows its elimination step can change *)
  let lcols = ws.wmat and w = ws.wres in
  let pivrow = ws.wpiv and pivoted = ws.wrow and accepted = ws.wacc in
  let nz = ws.wnz and nzs = ws.wnzs in
  Array.fill pivoted 0 m false;
  nzs.(0) <- 0;
  let count = ref 0 in
  let try_accept j =
    if !count < m then begin
      Array.fill w 0 m 0.;
      let rows, coeffs = st.acols.(j) in
      for k = 0 to Array.length rows - 1 do
        w.(rows.(k)) <- coeffs.(k)
      done;
      (* a zero at the pivot row gives a ±0 multiplier, skipped anyway *)
      for t = 0 to !count - 1 do
        let lt = Array.unsafe_get lcols t and pr = Array.unsafe_get pivrow t in
        let wp = Array.unsafe_get w pr in
        if wp <> 0. then begin
          let f = wp /. Array.unsafe_get lt pr in
          if f <> 0. then
            for q = Array.unsafe_get nzs t to Array.unsafe_get nzs (t + 1) - 1 do
              let r = Array.unsafe_get nz q in
              Array.unsafe_set w r (Array.unsafe_get w r -. (f *. Array.unsafe_get lt r))
            done
        end
      done;
      let best = ref (-1) in
      for r = 0 to m - 1 do
        if (not pivoted.(r))
           && (!best < 0 || Float.abs w.(r) > Float.abs w.(!best))
        then best := r
      done;
      if !best >= 0 && Float.abs w.(!best) > 1e-7 then begin
        let c = !count in
        pivrow.(c) <- !best;
        pivoted.(!best) <- true;
        let lc = lcols.(c) and n = ref nzs.(c) in
        for r = 0 to m - 1 do
          let v = w.(r) in
          lc.(r) <- v;
          if v <> 0. then begin
            nz.(!n) <- r;
            incr n
          end
        done;
        nzs.(c + 1) <- !n;
        accepted.(c) <- j;
        incr count
      end
    end
  in
  let memo_on = m <= chain_max_rows in
  (match if memo_on then Hashtbl.find_opt memo pat else None with
   | Some (Some known) ->
     Array.blit known 0 accepted 0 m;
     count := m
   | Some None -> ()
   | None ->
     for j = 0 to st.ntot - 1 do
       if Bytes.get pat j = '1' then try_accept j
     done;
     for j = 0 to st.ntot - 1 do
       if Bytes.get pat j <> '1' then try_accept j
     done;
     if memo_on then
       Hashtbl.add memo (Bytes.copy pat)
         (if !count = m then Some (Array.sub accepted 0 m) else None));
  if !count = m then begin
    let in_basis = ws.wflag in
    Array.fill in_basis 0 st.ntot false;
    for t = 0 to m - 1 do
      in_basis.(accepted.(t)) <- true
    done;
    for j = 0 to st.ntot - 1 do
      let l = st.alb.(j) and u = st.aub.(j) in
      if in_basis.(j) then st.loc.(j) <- st.basic_at.(0) (* row fixed in [finalize] *)
      else if l > neg_infinity && (u = infinity || x.(j) -. l <= u -. x.(j)) then
        rest_lower st j
      else rest_upper st j
    done;
    Array.blit accepted 0 st.basis 0 m
  end
(* a failed completion (cannot happen while the logical columns span the
   row space) keeps the path-dependent basis: identity is gated
   empirically, never at the cost of a solve failing *)

(* Canonicalize the logical columns to the warm path's uniform +1 sign
   before the final factorization: the cold crash path may have built a
   −1-signed artificial, and the canonical factor must be a function of
   (problem, basis set) alone — never of the path that reached it — for a
   warm entry to keep it. Safe here: every logical is locked at zero by
   this point, so flipping a basic artificial's sign can only negate its
   own (zero) basic value, and [compute_xb] rebuilds xb from the
   factorization afterwards anyway. *)
let normalize_logicals st =
  for i = 0 to st.m - 1 do
    let _, coeffs = st.acols.(st.p.ncols + i) in
    if coeffs.(0) <> 1. then st.acols.(st.p.ncols + i) <- st.plus.(i)
  done

(* A chain pivot (see [chain_build]) has no freedom to reject small
   elements, so a step whose pivot falls at or below this abandons the
   chain and the caller falls back to the pivoting from-scratch
   elimination — a predicate of (columns, basis set) as well, keeping the
   fallback deterministic too. *)
let chain_floor = 1e-6

(* [chain_build st ws]: called with [st.basis] holding the sorted basic
   set. On success, installs the chain factorization in [st.fac], rewrites
   [st.basis] into the chain's canonical slot order, and returns true; on
   failure, or above [chain_max_rows], leaves [st.basis] sorted and the
   engine trashed for the caller to rebuild from scratch.

   Construction: starting from the identity factorization, insert the
   set's structural columns in ascending column order; each insertion
   FTRANs the column and pivots at the largest-magnitude alpha over the
   still-unclaimed rows (ties to the smallest row), an eta update.
   Finally the set's own logical columns are swapped into the leftover
   rows (ascending to ascending). Every choice is forced by the
   (columns, basic set) pair, so the resulting bits — and the slot order —
   are path-independent, as the canonicalization contract requires. The
   finished chain counts as a fresh factorization, as a scratch
   elimination does: its eta bookkeeping is reset, so the stability
   triggers of whoever pivots from it next see the same state either
   way. *)
let chain_build st ws =
  let m = st.m and ncols = st.p.ncols in
  if m > chain_max_rows then false
  else begin
    let sset = st.basis in
    (* structural columns form the sorted set's prefix *)
    let nstr = ref 0 in
    while !nstr < m && sset.(!nstr) < ncols do incr nstr done;
    let k = !nstr in
    let b = ws.wslot and id = ws.wmat in
    for i = 0 to m - 1 do
      Array.fill id.(i) 0 m 0.;
      id.(i).(i) <- 1.;
      b.(i) <- ncols + i
    done;
    Lu.load st.fac id;
    let ok = ref true in
    let d = ref 0 in
    while !ok && !d < k do
      let j = sset.(!d) in
      Lu.ftran st.fac st.acols.(j) ws.walpha;
      let best = ref (-1) in
      for r = 0 to m - 1 do
        if b.(r) >= ncols
           && (!best < 0 || Float.abs ws.walpha.(r) > Float.abs ws.walpha.(!best))
        then best := r
      done;
      if !best < 0 || Float.abs ws.walpha.(!best) <= chain_floor then ok := false
      else begin
        Lu.update st.fac ~pivot_tol !best ws.walpha;
        Telemetry.Metrics.incr m_factor_ext;
        b.(!best) <- j;
        incr d
      end
    done;
    (* swap the set's logicals into the leftover rows: a wanted logical
       whose own row is unclaimed is already in place; the rest pair with
       the claimed-over rows, ascending to ascending *)
    if !ok && k < m then begin
      let wanted = ws.wrow in
      Array.fill wanted 0 m false;
      for i = k to m - 1 do
        wanted.(sset.(i) - ncols) <- true
      done;
      (* two ascending cursors: [r] over unclaimed unwanted rows, [i] over
         wanted logicals whose row a structural claimed; a swap keeps
         [b.(r)] a logical, so neither cursor's predicate changes *)
      let r = ref 0 and i = ref k in
      let next () =
        while !r < m && not (b.(!r) >= ncols && not wanted.(!r)) do incr r done;
        while !i < m && b.(sset.(!i) - ncols) >= ncols do incr i done
      in
      next ();
      while !ok && !r < m && !i < m do
        let w = sset.(!i) in
        Lu.ftran st.fac st.acols.(w) ws.walpha;
        if Float.abs ws.walpha.(!r) <= chain_floor then ok := false
        else begin
          Lu.update st.fac ~pivot_tol !r ws.walpha;
          Telemetry.Metrics.incr m_factor_ext;
          b.(!r) <- w;
          incr r;
          incr i;
          next ()
        end
      done
    end;
    if !ok then begin
      Array.blit b 0 st.basis 0 m;
      Lu.reset st.fac
    end;
    !ok
  end

(* Canonical extraction: install the canonical factorization of the final
   basic set, so the returned floats depend only on (problem, basis set) —
   never on which pivot path produced the basis or how rows happened to be
   assigned along the way. The canonical form (slot order and inverse
   bits) is the chain of [chain_build], or the sorted-order from-scratch
   elimination above [chain_max_rows] or when a chain pivot is
   untrustworthy — both functions of the set alone. The engine keeps the
   factor after the solve, and [canon] records its basis: a warm child
   solved next from exactly that basis (branch-and-bound's plunge child)
   enters without rebuilding it. *)
let finalize st ws =
  sort_basis st.basis;
  normalize_logicals st;
  if not (chain_build st ws) then refactor_basis st ws;
  Array.blit st.basis 0 st.canon 0 st.m;
  st.canon_ok <- true;
  for r = 0 to st.m - 1 do
    st.loc.(st.basis.(r)) <- st.basic_at.(r)
  done;
  compute_xb st ws;
  check_health st

let extract_x st =
  let x = Array.make st.p.ncols 0. in
  for j = 0 to st.p.ncols - 1 do
    match st.loc.(j) with
    | Basic r -> x.(j) <- st.xb.(r)
    | At_lower | At_upper | Free_zero -> x.(j) <- st.xn.(j)
  done;
  x

let objective_value p x =
  let s = ref 0. in
  for j = 0 to p.ncols - 1 do
    s := !s +. (p.cost.(j) *. x.(j))
  done;
  !s

let basis_of_state st =
  let vstat = Array.make st.ntot Basis.Vbasic in
  for j = 0 to st.ntot - 1 do
    match st.loc.(j) with
    | Basic _ -> ()
    | At_lower -> vstat.(j) <- Basis.Vlower
    | At_upper -> vstat.(j) <- Basis.Vupper
    | Free_zero -> vstat.(j) <- Basis.Vfree
  done;
  { Basis.basic = Array.copy st.basis; vstat }

(* ---- session ----------------------------------------------------------- *)

(* A solver session: the state, the workspace and the per-problem constants
   for a family of LPs sharing one constraint matrix and one cost vector —
   the nodes of one branch-and-bound search, which differ only in bounds.
   Every solve re-initializes all the state it reads, so a result never
   depends on what the session solved before. The session saves the
   allocation, and its engine keeps the last canonical factor for the
   next warm entry from the same basis (see [finalize]). *)
type session = {
  st : state;
  ws : workspace;
  minus : (int array * float array) array;  (* −1 logical of each row *)
  singleton : int array;  (* cold crash: slack-like column of each row, or −1 *)
  phase1_cost : float array;
  phase2_cost : float array;
  weights : float array;  (* [canonical_weight] of every column *)
  memo : (Bytes.t, int array option) Hashtbl.t;  (* [rebase]'s accepted sets *)
}

let bad what = invalid_arg ("Simplex.session: " ^ what)

(* [lb], [ub], [rhs]: not shared by a session's problems, so checked per solve. *)
let validate_bounds p =
  if Array.length p.lb <> p.ncols || Array.length p.ub <> p.ncols then
    bad "cols, cost, lb or ub length is not ncols";
  if Array.length p.rhs <> p.nrows then bad "rhs length is not nrows"

(* The pricing loops read columns unchecked: a malformed problem is
   refused here, once per session. *)
let validate p =
  let m = p.nrows and n = p.ncols in
  if Array.length p.cols <> n || Array.length p.cost <> n then
    bad "cols, cost, lb or ub length is not ncols";
  validate_bounds p;
  Array.iter (fun (rows, coeffs) ->
      if Array.length coeffs <> Array.length rows then bad "column rows and coeffs differ in length";
      if Array.exists (fun r -> r < 0 || r >= m) rows then bad "column row index out of range")
    p.cols

let session p =
  validate p;
  let m = p.nrows and ncols = p.ncols in
  let ntot = ncols + m in
  let plus = Array.init m (fun i -> ([| i |], [| 1. |])) in
  let acols = Array.make ntot ([||], [||]) in
  Array.blit p.cols 0 acols 0 ncols;
  Array.blit plus 0 acols ncols m;
  let singleton = Array.make m (-1) in
  for j = ncols - 1 downto 0 do
    let rows, coeffs = p.cols.(j) in
    if Array.length rows = 1 && Float.abs coeffs.(0) > pivot_tol then
      singleton.(rows.(0)) <- j
  done;
  let phase1_cost = Array.make ntot 0. in
  Array.fill phase1_cost ncols m 1.;
  let phase2_cost = Array.make ntot 0. in
  Array.blit p.cost 0 phase2_cost 0 ncols;
  let st =
    { p; m; ntot; acols; plus; basic_at = Array.init m (fun r -> Basic r);
      alb = Array.make ntot 0.; aub = Array.make ntot 0.;
      loc = Array.make ntot At_lower; basis = Array.make m 0;
      fac = Lu.create m; xb = Array.make m 0.; xn = Array.make ntot 0.;
      canon = Array.make m 0; canon_ok = false; degenerate_streak = 0;
      bland = false; iterations = 0 }
  in
  { st; ws = make_workspace m ntot;
    minus = Array.init m (fun i -> ([| i |], [| -1. |]));
    singleton; phase1_cost; phase2_cost;
    weights = Array.init ntot canonical_weight; memo = Hashtbl.create 256 }

(* A result that carries no basis: every status but [Optimal]. *)
let no_basis st status obj ~warm =
  { status; obj; x = extract_x st; iterations = st.iterations; warm; basis = None }

(* Phase 2 and the canonical epilogue, shared by both paths: optimize the
   true objective from a feasible basis, settle on the canonical vertex
   and its canonical factor, and extract. A non-finite objective aborts
   as [Numerical_instability]: the warm path falls back to cold on it, the
   cold path returns it. *)
let phase2 s ~max_iterations ~deadline ~warm =
  let st = s.st and ws = s.ws in
  let start = st.iterations in
  st.bland <- false;
  st.degenerate_streak <- 0;
  optimize st s.phase2_cost ws max_iterations deadline;
  canonicalize st s.phase2_cost s.weights ws deadline;
  rebase st ws s.memo;
  finalize st ws;
  Telemetry.Metrics.add m_phase2 (st.iterations - start);
  let x = extract_x st in
  let obj = objective_value st.p x in
  if not (Float.is_finite obj) then raise (Lp_abort Robust.Failure.Numerical_instability);
  { status = Optimal; obj; x; iterations = st.iterations; warm;
    basis = Some (basis_of_state st) }

(* ---- warm path --------------------------------------------------------- *)

(* A warm attempt that cannot proceed (stale/singular basis, dimension
   mismatch, dual stall) raises [Warm_reject]; the caller falls back to the
   cold two-phase solve, so warm starting can never make a solve fail that
   would have succeeded cold. *)
exception Warm_reject

let warm_attempt s ~max_iterations ~deadline (wb : Basis.t) =
  let st = s.st and ws = s.ws in
  let m = st.m and ntot = st.ntot in
  if Array.length wb.Basis.basic <> m || Array.length wb.Basis.vstat <> ntot then
    raise Warm_reject;
  (* logical columns take the uniform +1 sign and are locked at zero: a
     warm solve never needs phase-1 artificials, only a nonsingular square
     basis (a parent's sign-flipped artificial still yields one) *)
  reset st ~logical_ub:0.;
  Array.blit st.plus 0 st.acols st.p.ncols m;
  for j = 0 to ntot - 1 do
    match wb.Basis.vstat.(j) with
    | Basis.Vbasic -> ()   (* patched below from the basic set *)
    | Basis.Vupper -> rest_upper st j
    | Basis.Vlower | Basis.Vfree ->
      (* a bound may have appeared under a free column since the parent
         (presolve tightening): it snaps to it; the primal cleanup absorbs
         any dual-sign mismatch *)
      rest_lower st j
  done;
  let loc = st.loc and basis = st.basis in
  Array.blit wb.Basis.basic 0 basis 0 m;
  let seen = ws.wflag in
  Array.fill seen 0 ntot false;
  for r = 0 to m - 1 do
    let c = basis.(r) in
    if c < 0 || c >= ntot || seen.(c) || wb.Basis.vstat.(c) <> Basis.Vbasic then
      raise Warm_reject;
    seen.(c) <- true;
    loc.(c) <- st.basic_at.(r)
  done;
  for j = 0 to ntot - 1 do
    if wb.Basis.vstat.(j) = Basis.Vbasic && not seen.(j) then raise Warm_reject
  done;
  (* a handful of dual pivots is the expected case; a warm solve that needs
     more than this is cheaper to restart cold than to let cycle *)
  let dual_cap = 200 + (2 * (m + ntot)) in
  try
    (* Entry factorization. The basis matrix ignores bounds, so the
       parent's canonical factor is bit-valid for this child. The engine
       still holds it when this basis is, slot for slot, the one the
       session's last solve finalized (branch-and-bound's plunge child).
       Otherwise the entry rebuilds it from the basic set, and uses it if
       the warm basis is in its canonical slot order; a basis in any other
       order is factorized in that order. Either way the entry then pivots
       the engine, so it no longer holds a canonical factor. *)
    let keep = st.canon_ok && int_array_eq st.canon basis in
    st.canon_ok <- false;
    if keep then begin
      Telemetry.Metrics.incr m_factor_hit;
      compute_xb st ws
    end
    else begin
      sort_basis basis;
      if chain_build st ws && int_array_eq basis wb.Basis.basic then compute_xb st ws
      else begin
        Array.blit wb.Basis.basic 0 basis 0 m;
        refactorize st ws
      end
    end;
    check_health st;
    dual_optimize st s.phase2_cost ws ~cap:dual_cap deadline;
    (* phase 2 is the primal cleanup: it absorbs any reduced-cost drift;
       from an already optimal warm basis it terminates without pivoting *)
    Ok (phase2 s ~max_iterations ~deadline ~warm:true)
  with
  | Dual_infeasible -> Ok (no_basis st Infeasible infinity ~warm:true)
  | Dual_giveup | Lp_unbounded | Lp_iteration_limit
  | Lp_abort Robust.Failure.Singular_basis
  | Lp_abort Robust.Failure.Numerical_instability ->
    (* anything numerically suspicious retreats to the cold path; only
       deadline expiry and injected faults surface as typed errors *)
    raise Warm_reject
  | Lp_abort f -> Error f

(* ---- cold path --------------------------------------------------------- *)

let cold_solve s ~max_iterations ~deadline =
  let st = s.st and ws = s.ws in
  let p = st.p and m = st.m and ntot = st.ntot in
  reset st ~logical_ub:infinity;
  let acols = st.acols and aub = st.aub in
  let xn = st.xn and loc = st.loc and basis = st.basis and xb = st.xb in
  for j = 0 to p.ncols - 1 do
    rest_lower st j
  done;
  (* residuals decide the sign of each artificial column *)
  let resid = residual st ws ~with_basic:false in
  (* Crash basis: prefer a singleton (slack-like) column per row when the
     residual fits its bounds; fall back to an artificial otherwise. This
     usually makes phase 1 trivial for inequality-heavy models. The crash
     inverse is diagonal, built in the refactorization scratch; loading it
     overwrites the last canonical factor. *)
  let binv = ws.wmat in
  for i = 0 to m - 1 do
    Array.fill binv.(i) 0 m 0.
  done;
  for i = 0 to m - 1 do
    let crashed =
      let j = s.singleton.(i) in
      if j >= 0 then begin
        let _, coeffs = p.cols.(j) in
        let a = coeffs.(0) in
        (* residual currently includes this column's resting contribution *)
        let v = (resid.(i) +. (a *. xn.(j))) /. a in
        if v >= p.lb.(j) -. feas_tol && v <= p.ub.(j) +. feas_tol then begin
          resid.(i) <- resid.(i) +. (a *. xn.(j));
          basis.(i) <- j;
          loc.(j) <- st.basic_at.(i);
          binv.(i).(i) <- 1. /. a;
          xb.(i) <- v;
          (* the artificial for this row is never used: pin it to zero *)
          acols.(p.ncols + i) <- st.plus.(i);
          aub.(p.ncols + i) <- 0.;
          true
        end
        else false
      end
      else false
    in
    if not crashed then begin
      let sign = if resid.(i) >= 0. then 1. else -1. in
      acols.(p.ncols + i) <- (if sign = 1. then st.plus.(i) else s.minus.(i));
      basis.(i) <- p.ncols + i;
      loc.(p.ncols + i) <- st.basic_at.(i);
      binv.(i).(i) <- sign;
      xb.(i) <- Float.abs resid.(i)
    end
  done;
  st.canon_ok <- false;
  Lu.load st.fac binv;
  try
    optimize st s.phase1_cost ws max_iterations deadline;
    Telemetry.Metrics.add m_phase1 st.iterations;
    let infeas = ref 0. in
    for i = 0 to m - 1 do
      if st.basis.(i) >= p.ncols then infeas := !infeas +. st.xb.(i)
    done;
    for j = p.ncols to ntot - 1 do
      match st.loc.(j) with
      | At_upper -> infeas := !infeas +. st.xn.(j)
      | At_lower | Free_zero | Basic _ -> ()
    done;
    if !infeas > 1e-6 then Ok (no_basis st Infeasible infinity ~warm:false)
    else begin
      (* lock artificials at zero for phase 2 *)
      for j = p.ncols to ntot - 1 do
        st.aub.(j) <- 0.;
        (match st.loc.(j) with
         | At_upper -> st.loc.(j) <- At_lower
         | At_lower | Free_zero | Basic _ -> ());
        st.xn.(j) <- 0.
      done;
      Ok (phase2 s ~max_iterations ~deadline ~warm:false)
    end
  with
  | Lp_unbounded -> Ok (no_basis st Unbounded neg_infinity ~warm:false)
  | Lp_iteration_limit -> Ok (no_basis st Iteration_limit nan ~warm:false)
  | Lp_abort f -> Error f

(* Result-returning entry point, with one span (category "simplex") and
   one solve-count tick per LP; phase iteration counters are recorded
   inside the solve. All abnormal terminations (singular basis, blown
   deadline, NaN corruption, injected faults) come back as a typed
   [Error]; [Unbounded]/[Infeasible]/[Iteration_limit] remain ordinary
   statuses because branch-and-bound treats them as prunable outcomes. *)
let solve_r ?session:s ?max_iterations ?(deadline = Robust.Deadline.none) ?warm p =
  Telemetry.Metrics.incr m_solves;
  Telemetry.Trace.with_span ~cat:"simplex" "simplex.solve" @@ fun () ->
  let m = p.nrows in
  let max_iterations =
    match max_iterations with
    | Some k -> k
    | None -> 2000 + (200 * (m + p.ncols))
  in
  if m = 0 then begin
    (* No constraints: each variable goes to its cost-minimising bound. *)
    let x = Array.make p.ncols 0. in
    let unbounded = ref false in
    for j = 0 to p.ncols - 1 do
      let v =
        if p.cost.(j) > 0. then p.lb.(j)
        else if p.cost.(j) < 0. then p.ub.(j)
        else if p.lb.(j) > neg_infinity then p.lb.(j)
        else if p.ub.(j) < infinity then p.ub.(j)
        else 0.
      in
      if Float.abs v = infinity then unbounded := true else x.(j) <- v
    done;
    if !unbounded then
      Ok { status = Unbounded; obj = neg_infinity; x; iterations = 0;
           warm = false; basis = None }
    else
      Ok { status = Optimal; obj = objective_value p x; x; iterations = 0;
           warm = false; basis = None }
  end
  else begin
    let s =
      match s with
      | None -> session p
      | Some s ->
        if p.cols != s.st.p.cols || p.cost != s.st.p.cost || p.nrows <> s.st.m
           || p.ncols + p.nrows <> s.st.ntot
        then invalid_arg "Simplex.solve_r: session built for another problem";
        validate_bounds p;
        s
    in
    s.st.p <- p;
    let cold () =
      Telemetry.Metrics.incr m_cold;
      cold_solve s ~max_iterations ~deadline
    in
    match warm with
    | None -> cold ()
    | Some wb ->
      (match warm_attempt s ~max_iterations ~deadline wb with
       | res ->
         Telemetry.Metrics.incr m_warm;
         res
       | exception Warm_reject ->
         Telemetry.Metrics.incr m_warm_fallback;
         cold ())
  end

let feasible ?(tol = 1e-6) p x =
  let ok = ref true in
  for j = 0 to p.ncols - 1 do
    if x.(j) < p.lb.(j) -. tol || x.(j) > p.ub.(j) +. tol then ok := false
  done;
  let lhs = Array.make p.nrows 0. in
  for j = 0 to p.ncols - 1 do
    let rows, coeffs = p.cols.(j) in
    Array.iteri (fun k row -> lhs.(row) <- lhs.(row) +. (coeffs.(k) *. x.(j))) rows
  done;
  for i = 0 to p.nrows - 1 do
    if Float.abs (lhs.(i) -. p.rhs.(i)) > tol *. (1. +. Float.abs p.rhs.(i)) then ok := false
  done;
  !ok
