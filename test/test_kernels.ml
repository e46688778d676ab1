(* The serving-path kernels against the list-based versions they
   replaced, which live on here verbatim as slow references (as test_lu
   keeps its dense LU). The array kernels must do the same float
   operations in the same order, so [Model.evaluate] and
   [Cosa_objective.of_mapping] are compared by their marshalled bytes and
   [Mapping_cert.check] by structural equality, over random valid and raw
   mappings on every architecture variant; the raw ones exercise the
   violations. [Mapping_io.record_of_string] must give the reference's
   [Ok] value or, like it, an [Error], on those records, on truncations of
   them and on random single-byte mutations. [Spec.key] (memoized) and
   the record renderer (one [Buffer], no [Printf] but for %h) must give
   the bytes of their [Printf] originals, kept here verbatim. *)

(* [Mapping.dim_product] and [Mapping.tile_words] as they were: one scan of
   every level's loop lists per dimension. *)
module Ref_mapping = struct
  include Mapping

  let loops_product loops d =
    List.fold_left (fun acc l -> if l.dim = d then acc * l.bound else acc) 1 loops

  let dim_product t ~upto d =
    let acc = ref 1 in
    for i = 0 to min (upto - 1) (Array.length t.levels - 1) do
      let lm = t.levels.(i) in
      acc := !acc * loops_product lm.temporal d * loops_product lm.spatial d
    done;
    !acc

  (* Tile extent of tensor [v] as held by buffer level [i]: the product of its
     relevant dimension tiles below [i]. IA gets the exact sliding-window
     extent ((p-1)*stride + r per axis). *)
  let tile_words arch t i v =
    let d = dim_product t ~upto:i in
    let stride = t.layer.Layer.stride in
    ignore arch;
    match v with
    | Dims.W -> float_of_int (d Dims.R * d Dims.S * d Dims.C * d Dims.K)
    | Dims.OA -> float_of_int (d Dims.P * d Dims.Q * d Dims.K * d Dims.N)
    | Dims.IA ->
      let w = ((d Dims.P - 1) * stride) + d Dims.R in
      let h = ((d Dims.Q - 1) * stride) + d Dims.S in
      float_of_int (w * h * d Dims.C * d Dims.N)
end

(* The analytical model as it was: lists, per-call dim products and
   record copies. *)
module Ref_model = struct
  open Model
  module Mapping = Ref_mapping

  let fi = float_of_int

  (* Storage chain of tensor v: ascending level indices where v is buffered. *)
  let storage_chain arch v =
    List.filter (fun i -> Spec.stores arch i v) (List.init (Spec.level_count arch) Fun.id)

  (* Flattened temporal loops at levels >= lo, outermost first. *)
  let flat_temporal (m : Mapping.t) ~lo =
    let acc = ref [] in
    for i = lo to Array.length m.Mapping.levels - 1 do
      (* prepend levels from inner to outer so the outermost level ends up first *)
      acc := m.Mapping.levels.(i).Mapping.temporal @ !acc
    done;
    !acc

  (* Number of times the tile of [v] held at level [lo] is replaced over the
     whole execution: the product of all flattened temporal loop bounds from
     the outermost loop down to (and including) the innermost loop relevant
     to [v]. Irrelevant loops nested inside the innermost relevant loop rescan
     the resident tile and are free. *)
  let refills m v ~lo =
    let loops = flat_temporal m ~lo in
    let rec innermost_relevant idx best = function
      | [] -> best
      | (l : Mapping.loop) :: rest ->
        let best =
          if l.Mapping.bound > 1 && Dims.model_relevant l.Mapping.dim v then idx else best
        in
        innermost_relevant (idx + 1) best rest
    in
    let cut = innermost_relevant 0 (-1) loops in
    let prod = ref 1. in
    List.iteri (fun idx (l : Mapping.loop) -> if idx <= cut then prod := !prod *. fi l.Mapping.bound) loops;
    !prod

  (* Spatial bound products over levels in [lo, hi), split by relevance. *)
  let spatial_split m v ~lo ~hi =
    let rel = ref 1 and irrel = ref 1 in
    for i = lo to hi - 1 do
      List.iter
        (fun (l : Mapping.loop) ->
          if Dims.model_relevant l.Mapping.dim v then rel := !rel * l.Mapping.bound
          else irrel := !irrel * l.Mapping.bound)
        m.Mapping.levels.(i).Mapping.spatial
    done;
    (!rel, !irrel)

  let instances m ~lo =
    let acc = ref 1 in
    for i = lo to Array.length m.Mapping.levels - 1 do
      acc := !acc * List.fold_left (fun a (l : Mapping.loop) -> a * l.Mapping.bound) 1
               m.Mapping.levels.(i).Mapping.spatial
    done;
    !acc

  (* Any temporal reduction loop (irrelevant to OA) with bound > 1 at levels
     >= lo forces read-modify-write accumulation at that storage level. *)
  let reduction_above m ~lo =
    List.exists
      (fun (l : Mapping.loop) ->
        l.Mapping.bound > 1 && not (Dims.model_relevant l.Mapping.dim Dims.OA))
      (flat_temporal m ~lo)

  (* Evaluations happen everywhere — objective scoring, heuristic sampling,
     report expansion — so the counter is the cheapest proxy for total
     analytical-model work a run performed. *)
  let m_evaluations = Telemetry.Metrics.counter "model.evaluations"

  let evaluate arch (m : Mapping.t) =
    Telemetry.Metrics.incr m_evaluations;
    let nlev = Spec.level_count arch in
    let counts =
      Array.init nlev (fun i ->
          Array.map
            (fun v -> { tile = Mapping.tile_words arch m i v; fills = 0.; reads = 0.; updates = 0. })
            (Array.of_list Dims.all_tensors))
    in
    let add_fills i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with fills = counts.(i).(vi).fills +. x }
    in
    let add_reads i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with reads = counts.(i).(vi).reads +. x }
    in
    let add_updates i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with updates = counts.(i).(vi).updates +. x }
    in
    let noc_traffic = ref [] in
    (* Inputs and weights flow downward through their storage chains. *)
    List.iter
      (fun v ->
        let chain = storage_chain arch v in
        let rec walk = function
          | child :: (parent :: _ as rest) ->
            let tile = Mapping.tile_words arch m child v in
            let refill = refills m v ~lo:child in
            let inst_child = instances m ~lo:child in
            let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
            let total_fills = refill *. tile *. fi inst_child in
            add_fills child v total_fills;
            let inst_parent = instances m ~lo:parent in
            let multicast_ok =
              if parent > arch.Spec.noc_level && child <= arch.Spec.noc_level then
                arch.Spec.noc.Spec.multicast
              else true (* intra-PE distribution busses broadcast *)
            in
            let parent_reads =
              if multicast_ok then refill *. tile *. fi rel *. fi inst_parent
              else refill *. tile *. fi rel *. fi irrel *. fi inst_parent
            in
            add_reads parent v parent_reads;
            if child <= arch.Spec.noc_level && parent > arch.Spec.noc_level then
              noc_traffic :=
                (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
                :: !noc_traffic;
            walk rest
          | [ _ ] | [] -> ()
        in
        walk chain)
      [ Dims.W; Dims.IA ];
    (* Outputs drain upward with in-network / in-PE reduction across spatial
       factors irrelevant to OA, and read-modify-write accumulation when a
       temporal reduction loop survives above the parent. *)
    let v = Dims.OA in
    let chain = storage_chain arch v in
    let rec walk = function
      | child :: (parent :: _ as rest) ->
        let tile = Mapping.tile_words arch m child v in
        let refill = refills m v ~lo:child in
        let inst_child = instances m ~lo:child in
        let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
        let drains = refill *. tile *. fi inst_child in
        (* child is read once per drain to push partial sums up *)
        add_reads child v drains;
        let inst_parent = instances m ~lo:parent in
        (* reduction collapses the spatially-irrelevant copies before the write *)
        let parent_writes = refill *. tile *. fi rel *. fi inst_parent in
        add_updates parent v parent_writes;
        if reduction_above m ~lo:parent then add_reads parent v parent_writes;
        if child <= arch.Spec.noc_level && parent > arch.Spec.noc_level then
          noc_traffic :=
            (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
            :: !noc_traffic;
        walk rest
      | [ _ ] | [] -> ()
    in
    walk chain;
    (* compute *)
    let compute_cycles =
      Array.fold_left
        (fun acc lm ->
          List.fold_left (fun a (l : Mapping.loop) -> a *. fi l.Mapping.bound) acc
            lm.Mapping.temporal)
        1. m.Mapping.levels
    in
    let spatial_all = fi (instances m ~lo:0) in
    let macs = compute_cycles *. spatial_all in
    let avail =
      Array.fold_left (fun acc (l : Spec.level) -> acc * l.Spec.fanout) 1 arch.Spec.levels
    in
    let pe_utilization = spatial_all /. fi avail in
    (* Per-level transfer cycles: each buffer instance serves its own
       sub-tree in parallel, so the served word count is normalised by the
       instance count before dividing by the per-instance port bandwidth. *)
    let transfer_cycles =
      Array.init nlev (fun i ->
          let words =
            Array.fold_left (fun acc c -> acc +. c.reads +. c.updates) 0. counts.(i)
          in
          let bw =
            if i = Spec.dram_level arch then arch.Spec.dram.Spec.dram_bandwidth_words
            else arch.Spec.levels.(i).Spec.bandwidth_words
          in
          words /. fi (instances m ~lo:i) /. bw)
    in
    let latency = Array.fold_left max compute_cycles transfer_cycles in
    (* energy *)
    let level_energy =
      Array.to_list
        (Array.mapi
           (fun i per_tensor ->
             let acc =
               Array.fold_left (fun a c -> a +. c.fills +. c.reads +. c.updates) 0. per_tensor
             in
             (arch.Spec.levels.(i).Spec.lname, acc *. arch.Spec.levels.(i).Spec.energy_pj))
           counts)
    in
    let mac_energy = macs *. arch.Spec.mac_energy_pj in
    let nocspec = arch.Spec.noc in
    let avg_hops = fi (nocspec.Spec.mesh_x + nocspec.Spec.mesh_y) /. 2. in
    let noc_energy =
      List.fold_left
        (fun acc (v, tr) ->
          let bits = fi (arch.Spec.precision_bits v) in
          let flits_per_tile = Float.max 1. (Float.round (tr.tile_words *. bits /. fi nocspec.Spec.flit_bits)) in
          let links_per_group =
            if nocspec.Spec.multicast then avg_hops +. fi (tr.multicast - 1)
            else avg_hops *. fi tr.multicast
          in
          acc +. (tr.steps *. fi tr.distinct *. flits_per_tile *. links_per_group
                  *. nocspec.Spec.hop_energy_pj))
        0. !noc_traffic
    in
    let energy_breakdown = level_energy @ [ ("MAC", mac_energy); ("NoC", noc_energy) ] in
    let energy_pj = List.fold_left (fun a (_, e) -> a +. e) 0. energy_breakdown in
    {
      counts;
      compute_cycles;
      transfer_cycles;
      latency;
      energy_pj;
      energy_breakdown;
      noc_energy_pj = noc_energy;
      macs;
      pe_utilization;
      traffic = !noc_traffic;
    }
end

(* The objective as it was: [Mapping.dim_product] per (level, tensor, dim). *)
module Ref_objective = struct
  open Cosa_objective
  module Mapping = Ref_mapping

  let log_prod x = if x <= 0 then 0. else log (float_of_int x)

  let of_mapping ?(weights = Cosa_formulation.default_weights) arch (m : Mapping.t) =
    let nlev = Spec.level_count arch in
    let tile_log level v =
      List.fold_left
        (fun acc d ->
          if Dims.relevant d v then acc +. log_prod (Mapping.dim_product m ~upto:level d)
          else acc)
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
        let loops =
          List.concat_map
            (fun i -> m.Mapping.levels.(i).Mapping.temporal)
            (List.rev noc_lvls)
        in
        let rec innermost idx best = function
          | [] -> best
          | (l : Mapping.loop) :: rest ->
            let best =
              if l.Mapping.bound > 1 && Dims.relevant l.Mapping.dim v then idx else best
            in
            innermost (idx + 1) best rest
        in
        let cut = innermost 0 (-1) loops in
        let t_v = ref 0. in
        List.iteri
          (fun idx (l : Mapping.loop) ->
            if idx <= cut then t_v := !t_v +. log_prod l.Mapping.bound)
          loops;
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
end

(* The certifier as it was: per-call [temporal @ spatial] scans and every
   capacity compared in [Ratio]. *)
module Ref_cert = struct
  module Certificate = Certify.Certificate

  module R = Prim.Ratio

  let bad ~constraint_name ~residual ~detail =
    Certificate.violation ~constraint_name ~residual ~detail

  (* Product over levels [0, upto) of the temporal and spatial bounds of
     dimension [d]. *)
  let dim_product (m : Mapping.t) ~upto d =
    let acc = ref 1 in
    for i = 0 to min (upto - 1) (Array.length m.Mapping.levels - 1) do
      let lm = m.Mapping.levels.(i) in
      List.iter
        (fun (l : Mapping.loop) -> if l.Mapping.dim = d then acc := !acc * l.Mapping.bound)
        (lm.Mapping.temporal @ lm.Mapping.spatial)
    done;
    !acc

  (* Exact integer tile footprint of tensor [v] held at level [i]; the
     input-activation halo uses the sliding-window extent. *)
  let tile_words (m : Mapping.t) i v =
    let d = dim_product m ~upto:i in
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
            List.iter
              (fun (l : Mapping.loop) ->
                if l.Mapping.bound < 1 then
                  push
                    (bad
                       ~constraint_name:
                         (Printf.sprintf "level %d loop %s bound" i
                            (Dims.dim_name l.Mapping.dim))
                       ~residual:(string_of_int (1 - l.Mapping.bound))
                       ~detail:(Printf.sprintf "bound %d < 1" l.Mapping.bound)))
              (lm.Mapping.temporal @ lm.Mapping.spatial))
          m.Mapping.levels;
        (* tiling factors multiply to the padded layer dimensions *)
        List.iter
          (fun d ->
            let prod = dim_product m ~upto:nlev d in
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
                  let words = tile_words m i v in
                  let cap = Spec.capacity_words arch i v in
                  if Float.is_finite cap
                     && R.compare (R.of_int words) (R.of_float cap) > 0
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
end

(* The record parser as it was: the body re-joined and re-split, each line
   trimmed up to three times. *)
module Ref_io = struct
  open Mapping_io

  let dim_of_name = function
    | "R" -> Some Dims.R
    | "S" -> Some Dims.S
    | "P" -> Some Dims.P
    | "Q" -> Some Dims.Q
    | "C" -> Some Dims.C
    | "K" -> Some Dims.K
    | "N" -> Some Dims.N
    | _ -> None

  let parse_loops s =
    if String.trim s = "" then Ok []
    else
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | part :: rest ->
          (match String.split_on_char ':' (String.trim part) with
           | [ dname; bound ] ->
             (match (dim_of_name dname, int_of_string_opt bound) with
              | Some dim, Some b when b > 0 ->
                go ({ Mapping.dim; bound = b } :: acc) rest
              | Some _, Some b -> Error (Printf.sprintf "non-positive bound %d" b)
              | None, _ -> Error (Printf.sprintf "unknown dimension %S" dname)
              | Some _, None -> Error (Printf.sprintf "bad bound in %S" part))
           | _ -> Error (Printf.sprintf "malformed loop %S" part))
      in
      go [] parts

  let parse_kv key s =
    let prefix = key ^ "=" in
    if String.length s > String.length prefix
       && String.sub s 0 (String.length prefix) = prefix
    then int_of_string_opt (String.sub s (String.length prefix)
                              (String.length s - String.length prefix))
    else None

  let ( let* ) r f = Result.bind r f

  let parse_layer_line line =
    match String.split_on_char ' ' line with
    | "layer" :: name :: kvs ->
      let find key =
        match List.find_map (parse_kv key) kvs with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing %s= in layer line" key)
      in
      let* r = find "r" in
      let* s = find "s" in
      let* p = find "p" in
      let* q = find "q" in
      let* c = find "c" in
      let* k = find "k" in
      let* n = find "n" in
      let* stride = find "stride" in
      (try Ok (Layer.create ~name ~stride ~r ~s ~p ~q ~c ~k ~n ())
       with Invalid_argument msg -> Error msg)
    | _ -> Error "first line must start with 'layer <name> ...'"

  (* split "temporal A spatial B" into its two optional clauses *)
  let parse_level_clauses rest =
    let words = List.filter (( <> ) "") (String.split_on_char ' ' rest) in
    let rec go mode t sp = function
      | [] -> Ok (String.concat " " (List.rev t), String.concat " " (List.rev sp))
      | "temporal" :: more -> go `T t sp more
      | "spatial" :: more -> go `S t sp more
      | w :: more ->
        (match mode with
         | `T -> go mode (w :: t) sp more
         | `S -> go mode t (w :: sp) more
         | `None -> Error (Printf.sprintf "unexpected token %S in level line" w))
    in
    go `None [] [] words

  let of_string text =
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
    in
    match lines with
    | [] -> Error "empty input"
    | layer_line :: level_lines ->
      let* layer = parse_layer_line (String.trim layer_line) in
      let rec parse_levels idx acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          let line = String.trim line in
          (match String.split_on_char ' ' line with
           | "level" :: num :: _ ->
             (match int_of_string_opt num with
              | Some i when i = idx ->
                let prefix = Printf.sprintf "level %d" i in
                let clause =
                  String.sub line (String.length prefix)
                    (String.length line - String.length prefix)
                in
                let* t_str, s_str = parse_level_clauses clause in
                let* temporal = parse_loops t_str in
                let* spatial = parse_loops s_str in
                parse_levels (idx + 1) ({ Mapping.temporal; spatial } :: acc) rest
              | Some i -> Error (Printf.sprintf "level %d out of order (expected %d)" i idx)
              | None -> Error (Printf.sprintf "bad level number in %S" line))
           | _ -> Error (Printf.sprintf "expected 'level <n> ...', got %S" line))
      in
      let* levels = parse_levels 0 [] level_lines in
      if levels = [] then Error "no levels"
      else Ok (Mapping.make layer (Array.of_list levels))

  let parse_floats what s k =
    let parts = List.filter (( <> ) "") (String.split_on_char ' ' s) in
    match List.map float_of_string_opt parts with
    | fs when List.for_all Option.is_some fs -> k (List.map Option.get fs)
    | _ -> Error (Printf.sprintf "bad float in @%s line" what)

  let parse_meta_line meta line =
    match String.index_opt line ' ' with
    | None -> Error (Printf.sprintf "malformed metadata line %S" line)
    | Some i ->
      let key = String.sub line 1 (i - 1) in
      let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      (match key with
       | "weights" ->
         parse_floats key rest (function
           | [ u; c; t ] -> Ok { meta with weights = Some (u, c, t) }
           | _ -> Error "@weights needs three values")
       | "strategy" -> Ok { meta with strategy = rest }
       | "source" -> Ok { meta with source = rest }
       | "certification" -> Ok { meta with verdict = rest }
       | "objective" ->
         parse_floats key rest (function
           | [ u; c; t; total ] -> Ok { meta with objective = Some (u, c, t, total) }
           | _ -> Error "@objective needs four values")
       | "solve-time" ->
         parse_floats key rest (function
           | [ t ] -> Ok { meta with solve_time = t }
           | _ -> Error "@solve-time needs one value")
       | k -> Error (Printf.sprintf "unknown metadata key @%s" k))

  let record_of_string text =
    let lines = String.split_on_char '\n' text in
    let rec peel meta = function
      | line :: rest when String.trim line = "" -> peel meta rest
      | line :: rest when String.length (String.trim line) > 0 && (String.trim line).[0] = '@'
        ->
        let* meta = parse_meta_line meta (String.trim line) in
        peel meta rest
      | body ->
        let* m = of_string (String.concat "\n" body) in
        Ok (meta, m)
    in
    peel default_meta lines
end

(* ---- the differential checks ------------------------------------------ *)

let bytes x = Marshal.to_string x [ Marshal.No_sharing ]

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let layers = Array.of_list (List.concat_map snd Zoo.suites)

(* [n] (arch, mapping) cases per sampler: a random variant, a random suite
   layer, then one [Sampler.valid] and one [Sampler.raw] mapping. *)
let cases =
  lazy
    (let rng = Prim.Rng.create 17 in
     let variants = Array.of_list Spec.variants in
     let valid = ref [] and raw = ref [] in
     while List.length !valid < 1250 do
       let _, arch = variants.(Prim.Rng.int rng (Array.length variants)) in
       let layer = layers.(Prim.Rng.int rng (Array.length layers)) in
       Option.iter (fun m -> valid := (arch, m) :: !valid) (Sampler.valid rng arch layer);
       raw := (arch, Sampler.raw rng arch layer) :: !raw
     done;
     List.rev_append !valid (List.rev !raw))

let test_kernels_match_references () =
  let cases = Lazy.force cases in
  let violated = ref 0 in
  List.iteri
    (fun i (arch, m) ->
      let fail what = Alcotest.failf "case %d (%s): %s differs from the reference" i arch.Spec.aname what in
      if bytes (outcome (fun () -> Model.evaluate arch m))
         <> bytes (outcome (fun () -> Ref_model.evaluate arch m))
      then fail "Model.evaluate";
      for lo = 0 to Spec.level_count arch do
        List.iter
          (fun v ->
            if Int64.bits_of_float (Model.refills m v ~lo)
               <> Int64.bits_of_float (Ref_model.refills m v ~lo)
            then fail "Model.refills";
            if Mapping.tile_words arch m lo v <> Ref_mapping.tile_words arch m lo v then
              fail "Mapping.tile_words")
          Dims.all_tensors;
        List.iter
          (fun d ->
            if Mapping.dim_product m ~upto:lo d <> Ref_mapping.dim_product m ~upto:lo d then
              fail "Mapping.dim_product")
          Dims.all_dims
      done;
      let weights = Cosa.calibrate arch in
      if bytes (outcome (fun () -> Cosa_objective.of_mapping ~weights arch m))
         <> bytes (outcome (fun () -> Ref_objective.of_mapping ~weights arch m))
      then fail "Cosa_objective.of_mapping";
      let cert = outcome (fun () -> Certify.Mapping_cert.check arch m) in
      if cert <> outcome (fun () -> Ref_cert.check arch m) then fail "Mapping_cert.check";
      match cert with
      | Ok (Certify.Certificate.Violated _) -> incr violated
      | _ -> ())
    cases;
  Alcotest.(check bool) "at least 2000 mappings" true (List.length cases >= 2000);
  (* raw draws are almost never valid: the violation paths ran *)
  Alcotest.(check bool) "violations exercised" true (!violated >= 1000)

let records =
  lazy
    (List.map
       (fun (arch, m) ->
         let o = Cosa_objective.of_mapping ~weights:(Cosa.calibrate arch) arch m in
         Mapping_io.record_to_string
           { Mapping_io.weights = Some (0.5, 4., 1.); strategy = "two-stage";
             source = "two-stage MIP"; verdict = "ok";
             objective = Some (o.Cosa_objective.util, o.comp, o.traf, o.total);
             solve_time = 0.0123 }
           m)
       (Lazy.force cases))

let same_parse text =
  match (Mapping_io.record_of_string text, Ref_io.record_of_string text) with
  | Ok a, Ok b -> bytes a = bytes b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let test_parser_matches_reference () =
  let records = Array.of_list (Lazy.force records) in
  Array.iter
    (fun r ->
      if not (same_parse r) then Alcotest.failf "record differs:\n%s" r;
      if Result.is_error (Mapping_io.record_of_string r) then
        Alcotest.failf "record does not parse:\n%s" r)
    records;
  (* every truncation *)
  Array.iter
    (fun r ->
      for n = 0 to String.length r - 1 do
        let t = String.sub r 0 n in
        if not (same_parse t) then Alcotest.failf "truncation differs:\n%s" t
      done)
    records;
  (* single-byte mutations, half from the record alphabet so that many of
     them still parse *)
  let rng = Prim.Rng.create 23 in
  let alphabet = "0123456789:, \n@.-+xpRSPQCKNlevtmporalspi" in
  let still_ok = ref 0 in
  for _ = 1 to 1000 do
    let r = Bytes.of_string records.(Prim.Rng.int rng (Array.length records)) in
    let c =
      if Prim.Rng.bool rng then alphabet.[Prim.Rng.int rng (String.length alphabet)]
      else Char.chr (Prim.Rng.int rng 256)
    in
    Bytes.set r (Prim.Rng.int rng (Bytes.length r)) c;
    let t = Bytes.to_string r in
    if not (same_parse t) then Alcotest.failf "mutation differs:\n%S" t;
    if Result.is_ok (Mapping_io.record_of_string t) then incr still_ok
  done;
  Alcotest.(check bool) "some mutations still parse" true (!still_ok > 100)

(* [Layer.key] and [Layer.equal_shape] as they were: one [Printf]
   rendering, and equality of renderings. *)
let ref_key (t : Layer.t) =
  Printf.sprintf "r%d.s%d.p%d.q%d.c%d.k%d.n%d.st%d" t.r t.s t.p t.q t.c t.k t.n t.stride

let test_layer_key () =
  let rng = Prim.Rng.create 29 in
  let int () =
    match Prim.Rng.int rng 5 with
    | 0 -> 1 + abs (Int64.to_int (Prim.Rng.int64 rng) / 2)
    | 1 -> List.nth [ 1; 9; 10; 99; 100; max_int ] (Prim.Rng.int rng 6)
    | _ -> 1 + Prim.Rng.int rng 2048
  in
  let random () =
    Layer.create ~name:"x" ~r:(int ()) ~s:(int ()) ~p:(int ()) ~q:(int ()) ~c:(int ())
      ~k:(int ()) ~n:(int ()) ~stride:(int ()) ()
  in
  let all = Array.to_list layers @ List.init 2000 (fun _ -> random ()) in
  List.iter (fun l -> Alcotest.(check string) "key" (ref_key l) (Layer.key l)) all;
  let arr = Array.of_list all in
  for _ = 1 to 2000 do
    let a = arr.(Prim.Rng.int rng (Array.length arr)) in
    let b =
      if Prim.Rng.bool rng then
        Layer.create ~name:"y" ~r:a.r ~s:a.s ~p:a.p ~q:a.q ~c:a.c ~k:a.k ~n:a.n ~stride:a.stride ()
      else random ()
    in
    Alcotest.(check bool) "equal_shape" (ref_key a = ref_key b) (Layer.equal_shape a b)
  done

(* [Spec.key] as it was: one [Printf] rendering on every call. *)
let ref_spec_key (t : Spec.t) =
  let open Spec in
  let fl = Printf.sprintf "%h" in
  let level l =
    Printf.sprintf "%s,%d,%s,%d,%s,%s" l.lname l.capacity_bytes
      (String.concat "+" (List.map Dims.tensor_name l.stores))
      l.fanout (fl l.bandwidth_words) (fl l.energy_pj)
  in
  let noc n =
    Printf.sprintf "%dx%d,%d,%d,%d,%b,%d,%s" n.mesh_x n.mesh_y n.flit_bits
      n.router_latency n.link_latency n.multicast n.queue_depth (fl n.hop_energy_pj)
  in
  let dram d =
    Printf.sprintf "%d,%d,%d,%d,%d,%s" d.banks d.row_bytes d.t_row_hit d.t_row_miss
      d.burst_bytes (fl d.dram_bandwidth_words)
  in
  Printf.sprintf "levels=%s;noc_level=%d;mac_level=%d;noc=%s;dram=%s;mac=%s;bits=%s"
    (String.concat "/" (Array.to_list (Array.map level t.levels)))
    t.noc_level t.mac_level (noc t.noc) (dram t.dram) (fl t.mac_energy_pj)
    (String.concat ","
       (List.map
          (fun v -> Printf.sprintf "%s:%d" (Dims.tensor_name v) (t.precision_bits v))
          Dims.all_tensors))

(* The memoized key is the rendering for every spec value: the variants
   (asked twice), physically distinct equal copies, [{ s with ... }]
   copies that change one field, far more specs than the memo holds, and
   specs keyed from two domains at once. *)
let test_spec_key () =
  let check s = Alcotest.(check string) s.Spec.aname (ref_spec_key s) (Spec.key s) in
  let variants = List.map snd Spec.variants in
  List.iter (fun s -> check s; check s) variants;
  let rng = Prim.Rng.create 31 in
  let perturb (s : Spec.t) =
    match Prim.Rng.int rng 6 with
    | 0 -> { s with Spec.aname = s.Spec.aname }
    | 1 -> { s with Spec.mac_energy_pj = Prim.Rng.float rng 2. }
    | 2 -> { s with Spec.noc = { s.Spec.noc with Spec.multicast = Prim.Rng.bool rng } }
    | 3 ->
      { s with
        Spec.levels =
          Array.map (fun l -> { l with Spec.fanout = 1 + Prim.Rng.int rng 64 }) s.Spec.levels }
    | 4 ->
      { s with
        Spec.dram = { s.Spec.dram with Spec.dram_bandwidth_words = Prim.Rng.float rng 16. } }
    | _ ->
      let bits = 1 + Prim.Rng.int rng 32 in
      { s with Spec.precision_bits = (fun _ -> bits) }
  in
  let copies =
    List.init 200 (fun i -> perturb (List.nth variants (i mod List.length variants)))
  in
  List.iter (fun s -> check s; check s) copies;
  List.iter check variants;
  let keyed = Array.of_list copies in
  let in_domain lo =
    Domain.spawn (fun () ->
        let ok = ref true in
        for i = lo to lo + 99 do
          if Spec.key keyed.(i) <> ref_spec_key keyed.(i) then ok := false
        done;
        !ok)
  in
  let a = in_domain 0 and b = in_domain 100 in
  Alcotest.(check bool) "two domains" true (Domain.join a && Domain.join b)

(* [Mapping_io]'s record renderer as it was: [Printf] per line and per
   loop. *)
module Ref_render = struct
  open Mapping_io

  let loops_to_string loops =
    String.concat ","
      (List.map
         (fun (l : Mapping.loop) ->
           Printf.sprintf "%s:%d" (Dims.dim_name l.Mapping.dim) l.Mapping.bound)
         loops)

  let to_string (m : Mapping.t) =
    let buf = Buffer.create 512 in
    let l = m.Mapping.layer in
    Buffer.add_string buf
      (Printf.sprintf "layer %s r=%d s=%d p=%d q=%d c=%d k=%d n=%d stride=%d\n"
         l.Layer.name l.Layer.r l.Layer.s l.Layer.p l.Layer.q l.Layer.c l.Layer.k l.Layer.n
         l.Layer.stride);
    Array.iteri
      (fun i lm ->
        Buffer.add_string buf (Printf.sprintf "level %d" i);
        if lm.Mapping.temporal <> [] then
          Buffer.add_string buf (" temporal " ^ loops_to_string lm.Mapping.temporal);
        if lm.Mapping.spatial <> [] then
          Buffer.add_string buf (" spatial " ^ loops_to_string lm.Mapping.spatial);
        Buffer.add_char buf '\n')
      m.Mapping.levels;
    Buffer.contents buf

  let fl = Printf.sprintf "%h"

  let meta_to_string m =
    let buf = Buffer.create 256 in
    (match m.weights with
     | Some (u, c, t) ->
       Buffer.add_string buf (Printf.sprintf "@weights %s %s %s\n" (fl u) (fl c) (fl t))
     | None -> ());
    if m.strategy <> "" then Buffer.add_string buf ("@strategy " ^ m.strategy ^ "\n");
    if m.source <> "" then Buffer.add_string buf ("@source " ^ m.source ^ "\n");
    if m.verdict <> "" then Buffer.add_string buf ("@certification " ^ m.verdict ^ "\n");
    (match m.objective with
     | Some (u, c, t, total) ->
       Buffer.add_string buf
         (Printf.sprintf "@objective %s %s %s %s\n" (fl u) (fl c) (fl t) (fl total))
     | None -> ());
    if m.solve_time <> 0. then
      Buffer.add_string buf ("@solve-time " ^ fl m.solve_time ^ "\n");
    Buffer.contents buf

  let record_to_string meta m = meta_to_string meta ^ to_string m
end

(* The renderer gives the reference's bytes on every sampled mapping, with
   metas whose floats include ±0, subnormals, ±inf and NaN, and whose
   solve time is sometimes 0 (and so has no line). *)
let test_renderer_matches_reference () =
  let cases = Lazy.force cases in
  let rng = Prim.Rng.create 37 in
  let specials =
    [| 0.; -0.; 5e-324; -2.2250738585072009e-308; infinity; neg_infinity; nan; 1.;
       -3.75e10; Float.pi; max_float |]
  in
  let f () =
    if Prim.Rng.int rng 3 = 0 then Prim.Rng.float rng 100.
    else specials.(Prim.Rng.int rng (Array.length specials))
  in
  let word () = [| ""; "two-stage"; "joint MIP"; "ok" |].(Prim.Rng.int rng 4) in
  let meta () =
    { Mapping_io.weights = (if Prim.Rng.bool rng then Some (f (), f (), f ()) else None);
      strategy = word ();
      source = word ();
      verdict = word ();
      objective = (if Prim.Rng.bool rng then Some (f (), f (), f (), f ()) else None);
      solve_time = (if Prim.Rng.bool rng then 0. else f ()) }
  in
  List.iter
    (fun (_, m) ->
      Alcotest.(check string) "to_string" (Ref_render.to_string m) (Mapping_io.to_string m);
      let meta = meta () in
      Alcotest.(check string) "record_to_string" (Ref_render.record_to_string meta m)
        (Mapping_io.record_to_string meta m))
    cases;
  Alcotest.(check bool) "at least 2500 mappings" true (List.length cases >= 2500)

(* The reader's edge cases, one row each: a record must parse as [Ref_io]
   parses it (the same [Ok] value, or an [Error] where it errs), and to
   [Ok] exactly where the row says so. *)
let base_record =
  "@weights 0x1p-1 0x1p+2 0x1p+0\n\
   @strategy two-stage\n\
   @source two-stage MIP\n\
   @certification ok\n\
   @objective 0x1.1p+5 0x1.9p+2 0x1.ap+5 0x1.ep+5\n\
   @solve-time 0x1.e089p-5\n\
   layer g3_7_32_32_1 r=3 s=3 p=7 q=7 c=32 k=32 n=1 stride=1\n\
   level 0 temporal Q:7,P:7 spatial C:4,K:16\n\
   level 1 temporal C:4,S:3\n\
   level 2\n\
   level 3 spatial R:3,C:2,K:2\n\
   level 4\n\
   level 5\n"

let rec index_of s sub i =
  if String.sub s i (String.length sub) = sub then i else index_of s sub (i + 1)

(* [base_record] with the first [a] replaced by [b] *)
let edit a b =
  let i = index_of base_record a 0 and n = String.length base_record in
  String.sub base_record 0 i ^ b
  ^ String.sub base_record (i + String.length a) (n - i - String.length a)

let each_line f = String.concat "\n" (List.map f (String.split_on_char '\n' base_record))

let reader_rows =
  let body = index_of base_record "layer" 0 in
  [
    ("as written", base_record, true);
    ("no final newline", String.sub base_record 0 (String.length base_record - 1), true);
    ("CRLF line ends", each_line (fun l -> l ^ "\r"), true);
    ("blanks, tabs and form feeds around lines", each_line (fun l -> " \t" ^ l ^ "\t \012"), true);
    ("a tab between level and its number", edit "level 0 " "level\t0 ", false);
    ("a tab before a clause", edit "level 0 temporal" "level 0\ttemporal", false);
    ("a tab after layer", edit "layer g3" "layer\tg3", false);
    ("a tab after an @ key", edit "@strategy two" "@strategy\ttwo", false);
    ("blank lines between metadata and body", edit "layer " "\n \n\t\nlayer ", true);
    ("blank lines between levels", edit "level 3" "\n\r\nlevel 3", true);
    ("a duplicate @ key: the last wins", edit "@strategy two-stage" "@strategy joint\n@strategy two-stage", true);
    ("a duplicate float key", edit "@solve-time" "@solve-time 0x1p+0\n@solve-time", true);
    ("an unknown @ key", edit "@source" "@bogus 1\n@source", false);
    ("an @ key with no value", edit "@certification ok" "@certification", false);
    ("an @ line inside the body", edit "level 4" "@certification ok\nlevel 4", false);
    ("@weights with two values", edit "0x1p-1 0x1p+2 0x1p+0" "0x1p-1 0x1p+2", false);
    ("@weights with four values", edit "0x1p-1 0x1p+2 0x1p+0" "0x1p-1 0x1p+2 0x1p+0 0x1p+0", false);
    ("floats between double blanks", edit "@weights 0x1p-1 0x1p+2" "@weights   0x1p-1  0x1p+2", true);
    ("+, 0x and _ in a float", edit "@solve-time 0x1.e089p-5" "@solve-time +0x1.e0_89p-5", true);
    ("decimal floats", edit "0x1p-1 0x1p+2 0x1p+0" "0.5 4e0 +1.", true);
    ("a tab inside a float token", edit "0x1p+2 0x1p+0" "0x1p+2\t0x1p+0", false);
    ("a tab before a float token", edit "0x1p+2 0x1p+0" "0x1p+2 \t0x1p+0", true);
    ("+, 0x, 0b and _ in ints", edit "p=7 q=7 c=32 k=32" "p=+7 q=0x7 c=3_2 k=0b100000", true);
    ("a leading _ in an int", edit "k=32" "k=_32", false);
    ("layer keys reordered", edit "r=3 s=3 p=7 q=7 c=32 k=32 n=1 stride=1" "stride=1 n=1 k=32 c=32 q=7 p=7 s=3 r=3", true);
    ("a repeated layer key: the first int wins", edit "r=3" "r=x r=3 r=5", true);
    ("unknown layer tokens", edit "stride=1" "stride=1 foo=2 bar", true);
    ("a missing layer key", edit " n=1" "", false);
    ("a layer key below 1", edit "c=32" "c=0", false);
    ("an empty layer name", edit "layer g3_7_32_32_1" "layer ", true);
    ("level 01", edit "level 1 " "level 01 ", false);
    ("level +1", edit "level 1 " "level +1 ", false);
    ("levels out of order", edit "level 2\n" "level 3\n", false);
    ("a double blank before a clause", edit "level 0 temporal" "level 0  temporal", true);
    ("a double blank before the level number", edit "level 0 " "level  0 ", false);
    ("temporal twice on one line", edit "temporal C:4,S:3" "temporal C:4, temporal S:3", true);
    ("temporal twice without a comma", edit "temporal C:4,S:3" "temporal C:4 temporal S:3", false);
    ("spatial before temporal", edit "temporal Q:7,P:7 spatial C:4,K:16" "spatial C:4,K:16 temporal Q:7,P:7", true);
    ("blanks and tabs around a comma", edit "C:4,S:3" "C:4 ,\tS:3", true);
    ("a blank inside a loop", edit "C:4,S:3" "C: 4,S:3", false);
    ("empty clauses", edit "level 2\n" "level 2 temporal spatial\n", true);
    ("a clause of blanks and tabs", edit "level 2\n" "level 2 temporal \t spatial\n", true);
    ("an empty loop", edit "Q:7,P:7" "Q:7,,P:7", false);
    ("a trailing comma", edit "Q:7,P:7" "Q:7,P:7,", false);
    ("a comma-only clause", edit "level 2\n" "level 2 temporal ,\n", false);
    ("a zero bound", edit "Q:7" "Q:0", false);
    ("a negative bound", edit "Q:7" "Q:-7", false);
    ("an unknown dimension", edit "Q:7" "X:7", false);
    ("a loop before any clause keyword", edit "level 4" "level 4 P:2", false);
    ("trailing garbage on a level line", edit "level 5" "level 5 xyz", false);
    ("a trailing garbage line", base_record ^ "garbage\n", false);
    ("a trailing blank tail", base_record ^ " \t\r\n\n", true);
    ("empty input", "", false);
    ("metadata only", String.sub base_record 0 body, false);
    ("no levels", String.sub base_record 0 (index_of base_record "level 0" 0), false);
    ("a bare mapping", String.sub base_record body (String.length base_record - body), true);
  ]

let test_reader_edge_cases () =
  List.iter
    (fun (what, text, ok) ->
      if not (same_parse text) then Alcotest.failf "%s: differs from the reference" what;
      let got = Mapping_io.record_of_string text in
      Alcotest.(check bool) what ok (Result.is_ok got);
      (* parsing in place after a frame line reads the same record *)
      let framed = "key x\n" ^ text in
      if bytes (Mapping_io.record_of_string ~pos:6 framed) <> bytes got then
        Alcotest.failf "%s: differs when read from an offset" what)
    reader_rows

let suite =
  ( "kernels",
    [
      Alcotest.test_case "model, objective, certificate = list-based references" `Quick
        test_kernels_match_references;
      Alcotest.test_case "record parser = reference parser" `Quick
        test_parser_matches_reference;
      Alcotest.test_case "layer key = Printf rendering" `Quick test_layer_key;
      Alcotest.test_case "spec key = Printf rendering" `Quick test_spec_key;
      Alcotest.test_case "record renderer = Printf renderer" `Quick
        test_renderer_matches_reference;
      Alcotest.test_case "reader edge cases = reference parser" `Quick test_reader_edge_cases;
    ] )
