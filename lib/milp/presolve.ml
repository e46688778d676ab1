type result = { feasible : bool; tightened : int; rounds : int }

let tol = 1e-7

(* Filling each row from its end while the columns run ascending leaves its
   entries in descending column order — the order the activity sums of
   [tighten] accumulate in. *)
let rows_of (p : Simplex.problem) =
  let len = Array.make p.Simplex.nrows 0 in
  Array.iter
    (fun (ridx, _) -> Array.iter (fun r -> len.(r) <- len.(r) + 1) ridx)
    p.Simplex.cols;
  let rows = Array.map (fun n -> (Array.make n 0, Array.make n 0.)) len in
  Array.iteri
    (fun j (ridx, coeffs) ->
      for k = 0 to Array.length ridx - 1 do
        let r = ridx.(k) in
        let cols, vals = rows.(r) in
        len.(r) <- len.(r) - 1;
        cols.(len.(r)) <- j;
        vals.(len.(r)) <- coeffs.(k)
      done)
    p.Simplex.cols;
  rows

let tighten ?(max_rounds = 4) ?integer (p : Simplex.problem) rows lb ub =
  let is_int j = match integer with Some a -> a.(j) | None -> false in
  (* [dirty.(i)]: row i's last evaluation changed a bound, or a bound of one
     of its columns changed since. A clean row would recompute the same
     activities and derive no change, so it is skipped. *)
  let dirty = Array.make (Array.length rows) true in
  let touch j =
    let ridx, _ = p.Simplex.cols.(j) in
    for k = 0 to Array.length ridx - 1 do
      dirty.(ridx.(k)) <- true
    done
  in
  let tightened = ref 0 in
  let feasible = ref true in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds && !feasible do
    changed := false;
    incr rounds;
    for i = 0 to Array.length rows - 1 do
      if !feasible && dirty.(i) then begin
        dirty.(i) <- false;
        let cols, coeffs = rows.(i) in
        let b = p.Simplex.rhs.(i) in
        (* activity range of the row *)
        let minact = ref 0. and maxact = ref 0. in
        for k = 0 to Array.length cols - 1 do
          let j = cols.(k) and a = coeffs.(k) in
          if a > 0. then begin
            minact := !minact +. (a *. lb.(j));
            maxact := !maxact +. (a *. ub.(j))
          end
          else begin
            minact := !minact +. (a *. ub.(j));
            maxact := !maxact +. (a *. lb.(j))
          end
        done;
        if !minact > b +. tol || !maxact < b -. tol then feasible := false
        else
          for k = 0 to Array.length cols - 1 do
            let j = cols.(k) and a = coeffs.(k) in
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
                touch j;
                incr tightened;
                changed := true
              end;
              if new_hi < ub.(j) -. tol && new_hi <> infinity then begin
                if a > 0. then maxact := !maxact +. (a *. (new_hi -. ub.(j)))
                else minact := !minact +. (a *. (new_hi -. ub.(j)));
                ub.(j) <- new_hi;
                touch j;
                incr tightened;
                changed := true
              end;
              if lb.(j) > ub.(j) +. tol then feasible := false
            end
          done
      end
    done
  done;
  { feasible = !feasible; tightened = !tightened; rounds = !rounds }
