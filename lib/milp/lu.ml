(* Incremental basis factorization: dense inverse + product-form eta
   updates, with the bookkeeping (chain length, worst pivot magnitude) that
   drives stability-triggered refactorization. The elimination and eta
   kernels skip exact zeros: a skipped operation is [x -. f *. 0.] or
   [0. /. piv], which leaves a nonzero [x] unchanged and a zero a zero, so
   every nonzero entry of the inverse comes from the same operation on the
   same operands as the dense loop; only the sign of an exact zero may
   differ (see lu.mli for why no reader can see it). The innermost loops
   index unchecked, each kernel checking the arrays it is handed first. *)

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
    let v = Array.unsafe_get row j in
    if v <> 0. then begin
      Array.unsafe_set row j (v /. piv);
      Array.unsafe_set nz !n j;
      incr n
    end
  done;
  !n

(* [row.(j) <- row.(j) -. f *. piv_row.(j)] at the [n] columns listed in
   [nz]: an eta row operation restricted to the pivot row's nonzeros. *)
let[@inline] axpy_at row f piv_row nz n =
  for q = 0 to n - 1 do
    let j = Array.unsafe_get nz q in
    Array.unsafe_set row j (Array.unsafe_get row j -. (f *. Array.unsafe_get piv_row j))
  done

let check_length what a m = if Array.length a < m then invalid_arg ("Lu." ^ what)

(* Gauss-Jordan with partial pivoting. Columns left of the pivot are never
   read again (pivot search, multipliers and row operations all look at
   the pivot column and to its right), so the scratch matrix is updated
   only right of it. *)
let refactor t ~scratch ~cols ~basis ~pivot_tol =
  let m = t.m in
  let mat = scratch in
  (* checked: refuses a scratch smaller than m x m *)
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
    let best = ref col and mag = ref (Float.abs mat.(col).(col)) in
    for r = col + 1 to m - 1 do
      let a = Float.abs (Array.unsafe_get (Array.unsafe_get mat r) col) in
      if a > !mag then begin best := r; mag := a end
    done;
    if !mag < pivot_tol then raise Singular;
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
        let mr = Array.unsafe_get mat r in
        let f = Array.unsafe_get mr col in
        if f <> 0. then begin
          axpy_at mr f mc t.nzm nm;
          axpy_at (Array.unsafe_get inv r) f ic t.nz ni
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

(* alpha = B⁻¹ a for a sparse column a: each output row dots the column's
   nonzeros against the corresponding inverse entries. *)
let ftran t (rows, coeffs) alpha =
  let m = t.m and nk = Array.length rows in
  check_length "ftran" alpha m;
  if Array.length coeffs <> nk then invalid_arg "Lu.ftran: rows and coeffs differ in length";
  Array.iter (fun r -> if r < 0 || r >= m then invalid_arg "Lu.ftran: row out of range") rows;
  for i = 0 to m - 1 do
    let bi = Array.unsafe_get t.binv i in
    let s = ref 0. in
    for k = 0 to nk - 1 do
      s := !s +. (Array.unsafe_get bi (Array.unsafe_get rows k) *. Array.unsafe_get coeffs k)
    done;
    Array.unsafe_set alpha i !s
  done

(* y = c B⁻¹ for a dense row-indexed c, skipping zero entries of c. The
   nonzero rows, gathered once into the index scratch, are added four per
   sweep of y: each y_i takes the same additions in the same row order as
   with one row per sweep, at a quarter of the loads and stores of y. *)
let btran t c y =
  let m = t.m and b = t.binv and nz = t.nz in
  check_length "btran" c m;
  check_length "btran" y m;
  Array.fill y 0 m 0.;
  let n = ref 0 in
  for r = 0 to m - 1 do
    if Array.unsafe_get c r <> 0. then begin Array.unsafe_set nz !n r; incr n end
  done;
  let q = ref 0 in
  while !q + 3 < !n do
    let r0 = nz.(!q) and r1 = nz.(!q + 1) and r2 = nz.(!q + 2) and r3 = nz.(!q + 3) in
    let c0 = c.(r0) and c1 = c.(r1) and c2 = c.(r2) and c3 = c.(r3) in
    let b0 = b.(r0) and b1 = b.(r1) and b2 = b.(r2) and b3 = b.(r3) in
    for i = 0 to m - 1 do
      let s = Array.unsafe_get y i +. (c0 *. Array.unsafe_get b0 i) +. (c1 *. Array.unsafe_get b1 i) in
      Array.unsafe_set y i (s +. (c2 *. Array.unsafe_get b2 i) +. (c3 *. Array.unsafe_get b3 i))
    done;
    q := !q + 4
  done;
  for q = !q to !n - 1 do
    let cr = c.(nz.(q)) and br = b.(nz.(q)) in
    for i = 0 to m - 1 do
      Array.unsafe_set y i (Array.unsafe_get y i +. (cr *. Array.unsafe_get br i))
    done
  done

let apply t v out =
  let m = t.m in
  check_length "apply" v m;
  check_length "apply" out m;
  for i = 0 to m - 1 do
    let bi = Array.unsafe_get t.binv i in
    let s = ref 0. in
    for k = 0 to m - 1 do
      s := !s +. (Array.unsafe_get bi k *. Array.unsafe_get v k)
    done;
    Array.unsafe_set out i !s
  done

(* Product-form eta update after the column with FTRAN image [alpha] enters
   the basis in row [r]: the pivot row's nonzeros are gathered once, and
   each row with a usable multiplier is updated at those columns only. *)
let update t ~pivot_tol r alpha =
  let m = t.m in
  check_length "update" alpha m;
  let piv = alpha.(r) in
  let br = t.binv.(r) in
  let n = scale_gather br 0 m piv t.nz in
  for i = 0 to m - 1 do
    if i <> r then begin
      let f = Array.unsafe_get alpha i in
      if Float.abs f > pivot_tol then axpy_at (Array.unsafe_get t.binv i) f br t.nz n
    end
  done;
  t.etas <- t.etas + 1;
  let ap = Float.abs piv in
  if ap < t.min_pivot then t.min_pivot <- ap

let trigger t =
  if t.etas > 0 && t.min_pivot < stability_pivot_floor then Stability
  else if t.etas >= eta_chain_cap then Chain
  else No_refactor
