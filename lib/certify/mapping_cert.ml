(* Independent exact recheck of a decoded mapping.

   Deliberately shares no code with Cosa_decode or Mapping.validate: tile
   footprints and factorization products are recomputed here from first
   principles in integer arithmetic (capacities, which the architecture
   stores as floats, are compared exactly: natively where the tile size
   converts to a float exactly, via Prim.Ratio beyond that). A schedule that
   passes this check satisfies the paper's hard constraints — tiling
   factors multiply to the padded layer dimensions, per-level tile
   footprints fit the buffers, spatial factors fit the fanout and the NoC
   mesh — regardless of what the float pipeline believed. *)

module R = Prim.Ratio

let bad ~constraint_name ~residual ~detail =
  Certificate.violation ~constraint_name ~residual ~detail

(* The certifier's own tiling products, in one pass over the loops:
   [pre.(i * 7 + dim_index d)] is the product of dimension [d]'s temporal
   and spatial bounds over levels [0, i), for i in [0, levels]. *)
let dim_prefix (m : Mapping.t) =
  let n = Array.length m.Mapping.levels in
  let pre = Array.make ((n + 1) * 7) 1 in
  for i = 0 to n - 1 do
    Array.blit pre (i * 7) pre ((i + 1) * 7) 7;
    let mul (l : Mapping.loop) =
      let j = ((i + 1) * 7) + Dims.dim_index l.Mapping.dim in
      pre.(j) <- pre.(j) * l.Mapping.bound
    in
    List.iter mul m.Mapping.levels.(i).Mapping.temporal;
    List.iter mul m.Mapping.levels.(i).Mapping.spatial
  done;
  pre

(* Exact integer tile footprint of tensor [v] held at level [i]; the
   input-activation halo uses the sliding-window extent. *)
let tile_words (m : Mapping.t) pre i v =
  let d x = pre.((i * 7) + Dims.dim_index x) in
  let stride = m.Mapping.layer.Layer.stride in
  match v with
  | Dims.W -> d Dims.R * d Dims.S * d Dims.C * d Dims.K
  | Dims.OA -> d Dims.P * d Dims.Q * d Dims.K * d Dims.N
  | Dims.IA ->
    let w = ((d Dims.P - 1) * stride) + d Dims.R in
    let h = ((d Dims.Q - 1) * stride) + d Dims.S in
    w * h * d Dims.C * d Dims.N

let check arch (m : Mapping.t) =
  match Robust.Fault.check "certify.mapping" with
  | Error f ->
    Certificate.Violated
      [ bad ~constraint_name:"certify.mapping" ~residual:"0"
          ~detail:(Robust.Failure.to_string f) ]
  | Ok () ->
    let nlev = Array.length m.Mapping.levels in
    if nlev <> Spec.level_count arch then
      Certificate.Violated
        [ bad ~constraint_name:"level count"
            ~residual:(string_of_int (nlev - Spec.level_count arch))
            ~detail:
              (Printf.sprintf "mapping has %d levels, architecture %d" nlev
                 (Spec.level_count arch)) ]
    else begin
      let violations = ref [] in
      let push v = violations := v :: !violations in
      (* all loop bounds positive *)
      Array.iteri
        (fun i lm ->
          let positive (l : Mapping.loop) =
            if l.Mapping.bound < 1 then
              push
                (bad
                   ~constraint_name:
                     (Printf.sprintf "level %d loop %s bound" i (Dims.dim_name l.Mapping.dim))
                   ~residual:(string_of_int (1 - l.Mapping.bound))
                   ~detail:(Printf.sprintf "bound %d < 1" l.Mapping.bound))
          in
          List.iter positive lm.Mapping.temporal;
          List.iter positive lm.Mapping.spatial)
        m.Mapping.levels;
      let pre = dim_prefix m in
      (* tiling factors multiply to the padded layer dimensions *)
      List.iter
        (fun d ->
          let prod = pre.((nlev * 7) + Dims.dim_index d) in
          let expect = Layer.padded_bound m.Mapping.layer d in
          if prod <> expect then
            push
              (bad
                 ~constraint_name:(Printf.sprintf "dim %s factorization" (Dims.dim_name d))
                 ~residual:(string_of_int (prod - expect))
                 ~detail:
                   (Printf.sprintf "factors multiply to %d, padded bound is %d" prod
                      expect)))
        Dims.all_dims;
      (* spatial factors fit each level's fanout *)
      for i = 0 to nlev - 1 do
        let used =
          List.fold_left
            (fun a (l : Mapping.loop) -> a * l.Mapping.bound)
            1 m.Mapping.levels.(i).Mapping.spatial
        in
        let fanout = arch.Spec.levels.(i).Spec.fanout in
        if used > fanout then
          push
            (bad
               ~constraint_name:(Printf.sprintf "level %d spatial fanout" i)
               ~residual:(string_of_int (used - fanout))
               ~detail:(Printf.sprintf "spatial product %d exceeds fanout %d" used fanout));
        (* the NoC-boundary spatial factors must also fit the physical mesh *)
        if i = arch.Spec.noc_level then begin
          let mesh = arch.Spec.noc.Spec.mesh_x * arch.Spec.noc.Spec.mesh_y in
          if used > mesh then
            push
              (bad ~constraint_name:"NoC mesh fanout"
                 ~residual:(string_of_int (used - mesh))
                 ~detail:
                   (Printf.sprintf "spatial product %d exceeds the %dx%d mesh" used
                      arch.Spec.noc.Spec.mesh_x arch.Spec.noc.Spec.mesh_y))
        end
      done;
      (* tile footprints fit the buffers (exact words vs capacity) *)
      for i = 0 to nlev - 1 do
        if i <> Spec.dram_level arch then
          List.iter
            (fun v ->
              if Spec.stores arch i v then begin
                let words = tile_words m pre i v in
                let cap = Spec.capacity_words arch i v in
                (* exact either way: below 2^53 an int converts to a
                   float exactly *)
                if Float.is_finite cap
                   && (if abs words < 1 lsl 53 then float_of_int words > cap
                       else R.compare (R.of_int words) (R.of_float cap) > 0)
                then
                  push
                    (bad
                       ~constraint_name:
                         (Printf.sprintf "level %d %s capacity" i (Dims.tensor_name v))
                       ~residual:
                         (R.to_string (R.sub (R.of_int words) (R.of_float cap)))
                       ~detail:
                         (Printf.sprintf "tile of %d words exceeds capacity %g words"
                            words cap))
              end)
            Dims.all_tensors
      done;
      match List.rev !violations with
      | [] -> Certificate.Certified
      | vs -> Certificate.Violated vs
    end
