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

(* The first level at or above [i] that buffers [v]; [level_count arch]
   if there is none. *)
let rec next_store arch v i =
  if i >= Spec.level_count arch || Spec.stores arch i v then i else next_store arch v (i + 1)

(* Storage chain of tensor v: ascending level indices where v is buffered. *)
let storage_chain arch v =
  let rec from i =
    let i = next_store arch v i in
    if i >= Spec.level_count arch then [] else i :: from (i + 1)
  in
  from 0

(* The temporal loops of every level, flattened outermost first, with
   their running products ([run.(k)] multiplies the bounds of loops 0..k,
   left to right); the loops at levels >= i are the first [above.(i)]. *)
type flat = { loops : Mapping.loop array; run : float array; above : int array }

let rec put f k = function
  | [] -> k
  | (l : Mapping.loop) :: rest ->
    f.loops.(k) <- l;
    f.run.(k) <- (if k = 0 then 1. else f.run.(k - 1)) *. fi l.Mapping.bound;
    put f (k + 1) rest

let flat_temporal (m : Mapping.t) =
  let lv = m.Mapping.levels in
  let n = Array.length lv in
  let above = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    above.(i) <- above.(i + 1) + List.length lv.(i).Mapping.temporal
  done;
  let f =
    { loops = Array.make above.(0) { Mapping.dim = Dims.R; bound = 1 };
      run = Array.make above.(0) 1.; above }
  in
  let k = ref 0 in
  for i = n - 1 downto 0 do k := put f !k lv.(i).Mapping.temporal done;
  f

(* Index of the innermost loop at levels >= lo whose bound is > 1 and
   whose dim's relevance to [v] is [rel]; -1 if there is none. *)
let innermost f ~lo v rel =
  let k = ref (f.above.(min lo (Array.length f.above - 1)) - 1) in
  while
    !k >= 0
    &&
    let l = f.loops.(!k) in
    not (l.Mapping.bound > 1 && Dims.model_relevant l.Mapping.dim v = rel)
  do
    decr k
  done;
  !k

(* Number of times the tile of [v] held at level [lo] is replaced over the
   whole execution: the product of all flattened temporal loop bounds from
   the outermost loop down to (and including) the innermost loop relevant
   to [v]. Irrelevant loops nested inside the innermost relevant loop rescan
   the resident tile and are free. *)
let refills_in f v ~lo =
  let k = innermost f ~lo v true in
  if k < 0 then 1. else f.run.(k)

let refills m v ~lo = refills_in (flat_temporal m) v ~lo

(* Product of the spatial bounds in [loops] whose dim's relevance to [v]
   is [rel]. *)
let rec spatial_by v rel acc = function
  | [] -> acc
  | (l : Mapping.loop) :: rest ->
    let acc = if Dims.model_relevant l.Mapping.dim v = rel then acc * l.Mapping.bound else acc in
    spatial_by v rel acc rest

(* ... over the levels in [lo, hi). *)
let spatial_in (m : Mapping.t) v rel ~lo ~hi =
  let acc = ref 1 in
  for i = lo to hi - 1 do
    acc := spatial_by v rel !acc m.Mapping.levels.(i).Mapping.spatial
  done;
  !acc

(* Any temporal reduction loop (irrelevant to OA) with bound > 1 at levels
   >= lo forces read-modify-write accumulation at that storage level. *)
let reduction_above f ~lo = innermost f ~lo Dims.OA false >= 0

let tensors = [| Dims.W; Dims.IA; Dims.OA |]

(* The counts of tensor [vi] at level [i], accumulated at [i * 3 + vi]. *)
let count_of m pre fills reads updates i vi =
  let j = (i * 3) + vi in
  { tile = Mapping.tile_of_prefix m pre i tensors.(vi); fills = fills.(j); reads = reads.(j);
    updates = updates.(j) }

(* Hop energy of the NoC-boundary transfers, summed in list order. *)
let rec noc_energy_of arch acc = function
  | [] -> acc
  | (v, tr) :: rest ->
    let nocspec = arch.Spec.noc in
    let avg_hops = fi (nocspec.Spec.mesh_x + nocspec.Spec.mesh_y) /. 2. in
    let bits = fi (arch.Spec.precision_bits v) in
    let flits_per_tile =
      Float.max 1. (Float.round (tr.tile_words *. bits /. fi nocspec.Spec.flit_bits))
    in
    let links_per_group =
      if nocspec.Spec.multicast then avg_hops +. fi (tr.multicast - 1)
      else avg_hops *. fi tr.multicast
    in
    noc_energy_of arch
      (acc
       +. (tr.steps *. fi tr.distinct *. flits_per_tile *. links_per_group
           *. nocspec.Spec.hop_energy_pj))
      rest

(* Evaluations happen everywhere — objective scoring, heuristic sampling,
   report expansion — so the counter is the cheapest proxy for total
   analytical-model work a run performed. *)
let m_evaluations = Telemetry.Metrics.counter "model.evaluations"

let evaluate arch (m : Mapping.t) =
  Telemetry.Metrics.incr m_evaluations;
  let nlev = Spec.level_count arch and mlev = Array.length m.Mapping.levels in
  let flat = flat_temporal m and pre = Mapping.dim_prefix m in
  (* spatial products of the levels >= i *)
  let inst = Array.make (mlev + 1) 1 in
  for i = mlev - 1 downto 0 do inst.(i) <- inst.(i + 1) * Mapping.spatial_product m i done;
  (* fills, reads and updates at [level * 3 + tensor index] *)
  let fills = Array.make (nlev * 3) 0.
  and reads = Array.make (nlev * 3) 0.
  and updates = Array.make (nlev * 3) 0. in
  let noc = arch.Spec.noc_level in
  let noc_traffic = ref [] in
  (* Each tensor's storage chain, one (child, parent) pair at a time.
     Inputs and weights flow downward through it. Outputs drain upward
     with in-network / in-PE reduction across spatial factors irrelevant
     to OA, and read-modify-write accumulation when a temporal reduction
     loop survives above the parent. *)
  for vi = 0 to 2 do
    let v = tensors.(vi) in
    let child = ref (next_store arch v 0) in
    let parent = ref (next_store arch v (!child + 1)) in
    while !parent < nlev do
      let c = !child and p = !parent in
      let tile = Mapping.tile_of_prefix m pre c v in
      let refill = refills_in flat v ~lo:c in
      let inst_child = inst.(min c mlev) in
      let rel = spatial_in m v true ~lo:c ~hi:p and irrel = spatial_in m v false ~lo:c ~hi:p in
      let inst_parent = inst.(min p mlev) in
      let jc = (c * 3) + vi and jp = (p * 3) + vi in
      if vi < 2 then begin
        fills.(jc) <- fills.(jc) +. (refill *. tile *. fi inst_child);
        let multicast_ok =
          if p > noc && c <= noc then arch.Spec.noc.Spec.multicast
          else true (* intra-PE distribution busses broadcast *)
        in
        let parent_reads =
          if multicast_ok then refill *. tile *. fi rel *. fi inst_parent
          else refill *. tile *. fi rel *. fi irrel *. fi inst_parent
        in
        reads.(jp) <- reads.(jp) +. parent_reads
      end
      else begin
        (* child is read once per drain to push partial sums up *)
        reads.(jc) <- reads.(jc) +. (refill *. tile *. fi inst_child);
        (* reduction collapses the spatially-irrelevant copies before the write *)
        let parent_writes = refill *. tile *. fi rel *. fi inst_parent in
        updates.(jp) <- updates.(jp) +. parent_writes;
        if reduction_above flat ~lo:p then reads.(jp) <- reads.(jp) +. parent_writes
      end;
      if c <= noc && p > noc then
        noc_traffic :=
          (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
          :: !noc_traffic;
      child := p;
      parent := next_store arch v (p + 1)
    done
  done;
  let counts = Array.make nlev [||] in
  for i = 0 to nlev - 1 do
    counts.(i) <-
      [| count_of m pre fills reads updates i 0; count_of m pre fills reads updates i 1;
         count_of m pre fills reads updates i 2 |]
  done;
  (* compute: every temporal bound, level by level from the innermost *)
  let compute_cycles = ref 1. in
  for i = 0 to mlev - 1 do
    for k = flat.above.(i + 1) to flat.above.(i) - 1 do
      compute_cycles := !compute_cycles *. fi flat.loops.(k).Mapping.bound
    done
  done;
  let compute_cycles = !compute_cycles in
  let spatial_all = fi inst.(0) in
  let macs = compute_cycles *. spatial_all in
  let avail =
    Array.fold_left (fun acc (l : Spec.level) -> acc * l.Spec.fanout) 1 arch.Spec.levels
  in
  let pe_utilization = spatial_all /. fi avail in
  (* Per-level transfer cycles: each buffer instance serves its own
     sub-tree in parallel, so the served word count is normalised by the
     instance count before dividing by the per-instance port bandwidth.
     The latency is their max with compute, as [max] folds it. *)
  let transfer_cycles = Array.make nlev 0. and latency = ref compute_cycles in
  for i = 0 to nlev - 1 do
    let words = ref 0. in
    for j = i * 3 to (i * 3) + 2 do words := !words +. reads.(j) +. updates.(j) done;
    let bw =
      if i = Spec.dram_level arch then arch.Spec.dram.Spec.dram_bandwidth_words
      else arch.Spec.levels.(i).Spec.bandwidth_words
    in
    let t = !words /. fi inst.(min i mlev) /. bw in
    transfer_cycles.(i) <- t;
    if not (!latency >= t) then latency := t
  done;
  (* energy *)
  let mac_energy = macs *. arch.Spec.mac_energy_pj in
  let noc_energy = noc_energy_of arch 0. !noc_traffic in
  (* per level, then MAC and NoC; summed in that order *)
  let level_energy = Array.make nlev 0. and energy_pj = ref 0. in
  for i = 0 to nlev - 1 do
    let acc = ref 0. in
    for j = i * 3 to (i * 3) + 2 do acc := !acc +. fills.(j) +. reads.(j) +. updates.(j) done;
    level_energy.(i) <- !acc *. arch.Spec.levels.(i).Spec.energy_pj;
    energy_pj := !energy_pj +. level_energy.(i)
  done;
  let energy_breakdown = ref [ ("MAC", mac_energy); ("NoC", noc_energy) ] in
  for i = nlev - 1 downto 0 do
    energy_breakdown := (arch.Spec.levels.(i).Spec.lname, level_energy.(i)) :: !energy_breakdown
  done;
  {
    counts;
    compute_cycles;
    transfer_cycles;
    latency = !latency;
    energy_pj = !energy_pj +. mac_energy +. noc_energy;
    energy_breakdown = !energy_breakdown;
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
