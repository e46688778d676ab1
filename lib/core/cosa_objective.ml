type t = { util : float; comp : float; traf : float; total : float }

let log_prod x = if x <= 0 then 0. else log (float_of_int x)

let dims = Array.of_list Dims.all_dims
let tensors = [| Dims.W; Dims.IA; Dims.OA |]

(* Index of the innermost of [loops.(0 .. n-1)] whose bound is > 1 and
   whose dim is relevant to [v]; -1 if there is none. *)
let innermost (loops : Mapping.loop array) n v =
  let k = ref (n - 1) in
  while
    !k >= 0
    &&
    let l = loops.(!k) in
    not (l.Mapping.bound > 1 && Dims.relevant l.Mapping.dim v)
  do
    decr k
  done;
  !k

(* Sum of [log_prod] of the spatial bounds in [loops] relevant to [v]. *)
let rec spatial_log v acc = function
  | [] -> acc
  | (l : Mapping.loop) :: rest ->
    spatial_log v (if Dims.relevant l.Mapping.dim v then acc +. log_prod l.Mapping.bound else acc) rest

let rec put loops logs k = function
  | [] -> k
  | (l : Mapping.loop) :: rest ->
    loops.(k) <- l;
    logs.(k) <- log_prod l.Mapping.bound;
    put loops logs (k + 1) rest

let of_mapping ?(weights = Cosa_formulation.default_weights) arch (m : Mapping.t) =
  let nlev = Spec.level_count arch in
  let pre = Mapping.dim_prefix m in
  (* [log_prod] of each dim prefix product at most once, at
     [level * 7 + dim index]; nan until taken *)
  let prefix_logs = Array.make (nlev * 7) Float.nan in
  let tile_log level v =
    let acc = ref 0. in
    for di = 0 to 6 do
      if Dims.relevant dims.(di) v then begin
        let j = (level * 7) + di in
        if Float.is_nan prefix_logs.(j) then
          prefix_logs.(j) <- log_prod (Mapping.prefix_product m pre ~upto:level dims.(di));
        acc := !acc +. prefix_logs.(j)
      end
    done;
    !acc
  in
  let util = ref 0. in
  for i = 0 to nlev - 2 do
    for vi = 0 to 2 do
      if Spec.stores arch i tensors.(vi) then util := !util +. tile_log i tensors.(vi)
    done
  done;
  let comp = log (float_of_int (Mapping.total_temporal m)) in
  let noc = arch.Spec.noc_level and dram = Spec.dram_level arch in
  (* The NoC-boundary temporal loops (levels [noc, dram], the
     formulation's [noc_temporal_levels]) outermost first, so the DRAM
     level's [n_dram] come first; with their [log_prod]s. *)
  let n_dram = List.length m.Mapping.levels.(dram).Mapping.temporal in
  let n = ref 0 in
  for i = noc to dram do n := !n + List.length m.Mapping.levels.(i).Mapping.temporal done;
  let loops = Array.make !n { Mapping.dim = Dims.R; bound = 1 } and logs = Array.make !n 0. in
  let k = ref 0 in
  for i = dram downto noc do k := put loops logs !k m.Mapping.levels.(i).Mapping.temporal done;
  let traf = ref 0. in
  for vi = 0 to 2 do
    let v = tensors.(vi) in
    (* D_v: per-PE transfer size *)
    let d_v = tile_log noc v in
    (* L_v: relevant spatial factors at the NoC boundary *)
    let l_v = spatial_log v 0. m.Mapping.levels.(noc).Mapping.spatial in
    (* T_v: NoC-boundary temporal iterations outside (and including) the
       innermost v-relevant loop — Eqs. 9-10 on the concrete loop nest. *)
    let t_v = ref 0. in
    for idx = 0 to innermost loops !n v do t_v := !t_v +. logs.(idx) done;
    (* DRAM-boundary mirror of the formulation's extra traffic term:
       tensors staged through the level below DRAM pay their staged-tile
       size plus DRAM-level iterations (with the same reuse rule),
       scaled by the staging/DRAM bandwidth ratio. *)
    let staging = dram - 1 in
    let dram_term =
      if Spec.stores arch staging v then begin
        let scale =
          Float.max 1.
            (arch.Spec.levels.(staging).Spec.bandwidth_words
             /. arch.Spec.dram.Spec.dram_bandwidth_words)
        in
        let d2 = tile_log staging v in
        let t2 = ref 0. in
        for idx = 0 to innermost loops n_dram v do t2 := !t2 +. logs.(idx) done;
        scale *. (d2 +. !t2)
      end
      else 0.
    in
    traf := !traf +. d_v +. l_v +. !t_v +. dram_term
  done;
  let total =
    (-.weights.Cosa_formulation.w_util *. !util)
    +. (weights.Cosa_formulation.w_comp *. comp)
    +. (weights.Cosa_formulation.w_traf *. !traf)
  in
  { util = !util; comp; traf = !traf; total }
