type tensor_counts = { tile : float; fills : float; reads : float; updates : float }

type tensor_traffic = { tile_words : float; steps : float; distinct : int; multicast : int }

type t = {
  counts : tensor_counts array array;
  compute_cycles : float;
  transfer_cycles : float array;
  latency : float;
  energy_pj : float;
  energy_breakdown : (string * float) list;
  noc_energy_pj : float;
  macs : float;
  pe_utilization : float;
  traffic : (Dims.tensor * tensor_traffic) list;
}

let fi = float_of_int

(* Storage chain of tensor v: ascending level indices where v is buffered. *)
let storage_chain arch v =
  List.filter (fun i -> Spec.stores arch i v) (List.init (Spec.level_count arch) Fun.id)

(* The temporal loops of every level, flattened outermost first, with
   their running products ([run.(k)] multiplies the bounds of loops 0..k,
   left to right); the loops at levels >= i are the first [above.(i)]. *)
type flat = { loops : Mapping.loop array; run : float array; above : int array }

let flat_temporal (m : Mapping.t) =
  let lv = m.Mapping.levels in
  let n = Array.length lv in
  let loops =
    Array.concat (List.init n (fun k -> Array.of_list lv.(n - 1 - k).Mapping.temporal))
  in
  let run = Array.make (Array.length loops) 1. in
  Array.iteri
    (fun k (l : Mapping.loop) ->
      run.(k) <- (if k = 0 then 1. else run.(k - 1)) *. fi l.Mapping.bound)
    loops;
  let above = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    above.(i) <- above.(i + 1) + List.length lv.(i).Mapping.temporal
  done;
  { loops; run; above }

(* Index of the innermost loop at levels >= lo whose bound is > 1 and whose
   dim satisfies [pick]; -1 if there is none. *)
let innermost f ~lo pick =
  let rec go k =
    if k < 0 then k
    else
      let l = f.loops.(k) in
      if l.Mapping.bound > 1 && pick l.Mapping.dim then k else go (k - 1)
  in
  go (f.above.(min lo (Array.length f.above - 1)) - 1)

(* Number of times the tile of [v] held at level [lo] is replaced over the
   whole execution: the product of all flattened temporal loop bounds from
   the outermost loop down to (and including) the innermost loop relevant
   to [v]. Irrelevant loops nested inside the innermost relevant loop rescan
   the resident tile and are free. *)
let refills_in f v ~lo =
  let k = innermost f ~lo (fun d -> Dims.model_relevant d v) in
  if k < 0 then 1. else f.run.(k)

let refills m v ~lo = refills_in (flat_temporal m) v ~lo

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

(* Any temporal reduction loop (irrelevant to OA) with bound > 1 at levels
   >= lo forces read-modify-write accumulation at that storage level. *)
let reduction_above f ~lo = innermost f ~lo (fun d -> not (Dims.model_relevant d Dims.OA)) >= 0

(* Evaluations happen everywhere — objective scoring, heuristic sampling,
   report expansion — so the counter is the cheapest proxy for total
   analytical-model work a run performed. *)
let m_evaluations = Telemetry.Metrics.counter "model.evaluations"

let evaluate arch (m : Mapping.t) =
  Telemetry.Metrics.incr m_evaluations;
  let nlev = Spec.level_count arch and mlev = Array.length m.Mapping.levels in
  let flat = flat_temporal m and pre = Mapping.dim_prefix m in
  let tile i v = Mapping.tile_of_prefix m pre i v in
  (* spatial products of the levels >= i *)
  let inst = Array.make (mlev + 1) 1 in
  for i = mlev - 1 downto 0 do inst.(i) <- inst.(i + 1) * Mapping.spatial_product m i done;
  let instances ~lo = inst.(min lo mlev) in
  (* fills, reads and updates at [level * 3 + tensor index] *)
  let fills = Array.make (nlev * 3) 0.
  and reads = Array.make (nlev * 3) 0.
  and updates = Array.make (nlev * 3) 0. in
  let add a i v x =
    let j = (i * 3) + Dims.tensor_index v in
    a.(j) <- a.(j) +. x
  in
  let noc_traffic = ref [] in
  (* Inputs and weights flow downward through their storage chains. *)
  List.iter
    (fun v ->
      let chain = storage_chain arch v in
      let rec walk = function
        | child :: (parent :: _ as rest) ->
          let tile = tile child v in
          let refill = refills_in flat v ~lo:child in
          let inst_child = instances ~lo:child in
          let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
          let total_fills = refill *. tile *. fi inst_child in
          add fills child v total_fills;
          let inst_parent = instances ~lo:parent in
          let multicast_ok =
            if parent > arch.Spec.noc_level && child <= arch.Spec.noc_level then
              arch.Spec.noc.Spec.multicast
            else true (* intra-PE distribution busses broadcast *)
          in
          let parent_reads =
            if multicast_ok then refill *. tile *. fi rel *. fi inst_parent
            else refill *. tile *. fi rel *. fi irrel *. fi inst_parent
          in
          add reads parent v parent_reads;
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
      let tile = tile child v in
      let refill = refills_in flat v ~lo:child in
      let inst_child = instances ~lo:child in
      let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
      let drains = refill *. tile *. fi inst_child in
      (* child is read once per drain to push partial sums up *)
      add reads child v drains;
      let inst_parent = instances ~lo:parent in
      (* reduction collapses the spatially-irrelevant copies before the write *)
      let parent_writes = refill *. tile *. fi rel *. fi inst_parent in
      add updates parent v parent_writes;
      if reduction_above flat ~lo:parent then add reads parent v parent_writes;
      if child <= arch.Spec.noc_level && parent > arch.Spec.noc_level then
        noc_traffic :=
          (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
          :: !noc_traffic;
      walk rest
    | [ _ ] | [] -> ()
  in
  walk chain;
  let counts =
    Array.init nlev (fun i ->
        Array.init 3 (fun vi ->
            let j = (i * 3) + vi in
            { tile = tile i (Dims.tensor_of_index vi); fills = fills.(j); reads = reads.(j);
              updates = updates.(j) }))
  in
  (* compute *)
  let compute_cycles =
    Array.fold_left
      (fun acc lm ->
        List.fold_left (fun a (l : Mapping.loop) -> a *. fi l.Mapping.bound) acc
          lm.Mapping.temporal)
      1. m.Mapping.levels
  in
  let spatial_all = fi (instances ~lo:0) in
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
        words /. fi (instances ~lo:i) /. bw)
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

let edp t = t.energy_pj *. t.latency

let summary arch t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "latency=%.0f cycles (compute=%.0f) energy=%.3g pJ util=%.2f%%\n"
       t.latency t.compute_cycles t.energy_pj (100. *. t.pe_utilization));
  Array.iteri
    (fun i per_tensor ->
      Buffer.add_string buf (Printf.sprintf "  %-10s" arch.Spec.levels.(i).Spec.lname);
      Array.iteri
        (fun vi c ->
          Buffer.add_string buf
            (Printf.sprintf " %s[tile=%.0f fill=%.3g read=%.3g upd=%.3g]"
               (Dims.tensor_name (Dims.tensor_of_index vi))
               c.tile c.fills c.reads c.updates))
        per_tensor;
      Buffer.add_char buf '\n')
    t.counts;
  List.iter
    (fun (name, e) -> Buffer.add_string buf (Printf.sprintf "  E %-10s %.4g pJ\n" name e))
    t.energy_breakdown;
  Buffer.contents buf
