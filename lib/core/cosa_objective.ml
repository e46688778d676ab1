type t = { util : float; comp : float; traf : float; total : float }

let log_prod x = if x <= 0 then 0. else log (float_of_int x)

let of_mapping ?(weights = Cosa_formulation.default_weights) arch (m : Mapping.t) =
  let nlev = Spec.level_count arch in
  let pre = Mapping.dim_prefix m in
  let tile_log level v =
    let d = Mapping.prefix_product m pre ~upto:level in
    List.fold_left
      (fun acc x -> if Dims.relevant x v then acc +. log_prod (d x) else acc)
      0. Dims.all_dims
  in
  let util = ref 0. in
  for i = 0 to nlev - 2 do
    List.iter
      (fun v -> if Spec.stores arch i v then util := !util +. tile_log i v)
      Dims.all_tensors
  done;
  let comp = log (float_of_int (Mapping.total_temporal m)) in
  let noc = arch.Spec.noc_level in
  let noc_lvls = Cosa_formulation.noc_temporal_levels arch in
  let noc_loops =
    List.concat_map (fun i -> m.Mapping.levels.(i).Mapping.temporal) (List.rev noc_lvls)
  in
  let traf = ref 0. in
  List.iter
    (fun v ->
      (* D_v: per-PE transfer size *)
      let d_v = tile_log noc v in
      (* L_v: relevant spatial factors at the NoC boundary *)
      let l_v =
        List.fold_left
          (fun acc (l : Mapping.loop) ->
            if Dims.relevant l.Mapping.dim v then acc +. log_prod l.Mapping.bound else acc)
          0. m.Mapping.levels.(noc).Mapping.spatial
      in
      (* T_v: NoC-boundary temporal iterations outside (and including) the
         innermost v-relevant loop — Eqs. 9-10 on the concrete loop nest. *)
      let rec innermost idx best = function
        | [] -> best
        | (l : Mapping.loop) :: rest ->
          let best =
            if l.Mapping.bound > 1 && Dims.relevant l.Mapping.dim v then idx else best
          in
          innermost (idx + 1) best rest
      in
      let cut = innermost 0 (-1) noc_loops in
      let t_v = ref 0. in
      List.iteri
        (fun idx (l : Mapping.loop) ->
          if idx <= cut then t_v := !t_v +. log_prod l.Mapping.bound)
        noc_loops;
      (* DRAM-boundary mirror of the formulation's extra traffic term:
         tensors staged through the level below DRAM pay their staged-tile
         size plus DRAM-level iterations (with the same reuse rule),
         scaled by the staging/DRAM bandwidth ratio. *)
      let dram = Spec.dram_level arch in
      let staging = dram - 1 in
      let dram_term =
        if Spec.stores arch staging v then begin
          let scale =
            Float.max 1.
              (arch.Spec.levels.(staging).Spec.bandwidth_words
               /. arch.Spec.dram.Spec.dram_bandwidth_words)
          in
          let d2 = tile_log staging v in
          let dram_loops = m.Mapping.levels.(dram).Mapping.temporal in
          let cut = innermost 0 (-1) dram_loops in
          let t2 = ref 0. in
          List.iteri
            (fun idx (l : Mapping.loop) ->
              if idx <= cut then t2 := !t2 +. log_prod l.Mapping.bound)
            dram_loops;
          scale *. (d2 +. !t2)
        end
        else 0.
      in
      traf := !traf +. d_v +. l_v +. !t_v +. dram_term)
    Dims.all_tensors;
  let total =
    (-.weights.Cosa_formulation.w_util *. !util)
    +. (weights.Cosa_formulation.w_comp *. comp)
    +. (weights.Cosa_formulation.w_traf *. !traf)
  in
  { util = !util; comp; traf = !traf; total }
