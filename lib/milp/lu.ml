(* Incremental basis factorization: dense inverse + product-form eta
   updates, with the bookkeeping (chain length, worst pivot magnitude) that
   drives stability-triggered refactorization. The elimination and eta
   kernels skip exact zeros: a skipped operation is [x -. f *. 0.] or
   [0. /. piv], which leaves a nonzero [x] unchanged and a zero a zero, so
   every nonzero entry of the inverse comes from the same operation on the
   same operands as the dense loop; only the sign of an exact zero may
   differ (see lu.mli for why no reader can see it). *)

exception Singular

type t = {
  m : int;
  binv : float array array;  (* dense basis inverse, m x m *)
  nz : int array;            (* nonzero columns of the inverse pivot row *)
  nzm : int array;           (* refactor: nonzero columns of the scratch pivot row *)
  mutable etas : int;        (* eta updates since last refactor/load *)
  mutable min_pivot : float; (* smallest |pivot| absorbed since then *)
}

type trigger = No_refactor | Chain | Stability

let eta_chain_cap = 64
let stability_pivot_floor = 1e-7

let create m =
  { m; binv = Array.make_matrix m m 0.; nz = Array.make m 0; nzm = Array.make m 0;
    etas = 0; min_pivot = infinity }
let dim t = t.m
let row t r = t.binv.(r)
let chain_length t = t.etas
let min_pivot t = t.min_pivot

let reset t =
  t.etas <- 0;
  t.min_pivot <- infinity

(* Divide the nonzeros of [row] from column [from] on by [piv], recording
   their columns in [nz]; returns how many there are. *)
let[@inline] scale_gather row from m piv nz =
  let n = ref 0 in
  for j = from to m - 1 do
    let v = row.(j) in
    if v <> 0. then begin
      row.(j) <- v /. piv;
      nz.(!n) <- j;
      incr n
    end
  done;
  !n

(* [row.(j) <- row.(j) -. f *. piv_row.(j)] at the [n] columns listed in
   [nz]: an eta row operation restricted to the pivot row's nonzeros. *)
let[@inline] axpy_at row f piv_row nz n =
  for q = 0 to n - 1 do
    let j = nz.(q) in
    row.(j) <- row.(j) -. (f *. piv_row.(j))
  done

(* Gauss-Jordan with partial pivoting. Columns left of the pivot are never
   read again (pivot search, multipliers and row operations all look at
   the pivot column and to its right), so the scratch matrix is updated
   only right of it. *)
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
    let mc = mat.(col) and ic = inv.(col) in
    let piv = mc.(col) in
    let nm = scale_gather mc (col + 1) m piv t.nzm in
    let ni = scale_gather ic 0 m piv t.nz in
    for r = 0 to m - 1 do
      if r <> col then begin
        let mr = mat.(r) in
        let f = mr.(col) in
        if f <> 0. then begin
          axpy_at mr f mc t.nzm nm;
          axpy_at inv.(r) f ic t.nz ni
        end
      end
    done
  done;
  reset t

let load t src =
  for i = 0 to t.m - 1 do
    Array.blit src.(i) 0 t.binv.(i) 0 t.m
  done;
  reset t

let snapshot t = Array.init t.m (fun i -> Array.copy t.binv.(i))

(* alpha = B⁻¹ a for a sparse column a: each output row dots the column's
   nonzeros against the corresponding inverse entries. *)
let ftran t (rows, coeffs) alpha =
  let m = t.m in
  for i = 0 to m - 1 do
    let bi = t.binv.(i) in
    let s = ref 0. in
    for k = 0 to Array.length rows - 1 do
      s := !s +. (bi.(rows.(k)) *. coeffs.(k))
    done;
    alpha.(i) <- !s
  done

(* y = c B⁻¹ for a dense row-indexed c, skipping zero entries of c — the
   dual vectors the solver builds are cost vectors with few basic nonzeros. *)
let btran t c y =
  let m = t.m in
  Array.fill y 0 m 0.;
  for r = 0 to m - 1 do
    let cr = c.(r) in
    if cr <> 0. then begin
      let br = t.binv.(r) in
      for i = 0 to m - 1 do
        y.(i) <- y.(i) +. (cr *. br.(i))
      done
    end
  done

let apply t v out =
  let m = t.m in
  for i = 0 to m - 1 do
    let bi = t.binv.(i) in
    let s = ref 0. in
    for k = 0 to m - 1 do
      s := !s +. (bi.(k) *. v.(k))
    done;
    out.(i) <- !s
  done

(* Product-form eta update after the column with FTRAN image [alpha] enters
   the basis in row [r]: the pivot row's nonzeros are gathered once, and
   each row with a usable multiplier is updated at those columns only. *)
let update t ~pivot_tol r alpha =
  let m = t.m in
  let piv = alpha.(r) in
  let br = t.binv.(r) in
  let n = scale_gather br 0 m piv t.nz in
  for i = 0 to m - 1 do
    if i <> r then begin
      let f = alpha.(i) in
      if Float.abs f > pivot_tol then axpy_at t.binv.(i) f br t.nz n
    end
  done;
  t.etas <- t.etas + 1;
  let ap = Float.abs piv in
  if ap < t.min_pivot then t.min_pivot <- ap

let trigger ?interval t =
  match interval with
  | Some n -> if t.etas >= max 1 n then Chain else No_refactor
  | None ->
    if t.etas > 0 && t.min_pivot < stability_pivot_floor then Stability
    else if t.etas >= eta_chain_cap then Chain
    else No_refactor
