type level = {
  lname : string;
  capacity_bytes : int;
  stores : Dims.tensor list;
  fanout : int;
  bandwidth_words : float;
  energy_pj : float;
}

type noc = {
  mesh_x : int;
  mesh_y : int;
  flit_bits : int;
  router_latency : int;
  link_latency : int;
  multicast : bool;
  queue_depth : int;
  hop_energy_pj : float;
}

type dram = {
  banks : int;
  row_bytes : int;
  t_row_hit : int;
  t_row_miss : int;
  burst_bytes : int;
  dram_bandwidth_words : float;
}

type t = {
  aname : string;
  levels : level array;
  noc_level : int;
  mac_level : int;
  noc : noc;
  dram : dram;
  mac_energy_pj : float;
  precision_bits : Dims.tensor -> int;
}

let level_count t = Array.length t.levels
let dram_level t = Array.length t.levels - 1

(* [memq]: tensors are constant constructors, so physical equality is
   equality, without a polymorphic compare per element *)
let stores t i v = List.memq v t.levels.(i).stores

let capacity_words t i v =
  if i = dram_level t then infinity
  else if not (stores t i v) then 0.
  else
    let lvl = t.levels.(i) in
    let share = float_of_int lvl.capacity_bytes /. float_of_int (List.length lvl.stores) in
    share *. 8. /. float_of_int (t.precision_bits v)

let num_pes t = t.levels.(t.noc_level).fanout

(* Canonical content key: every field that influences scheduling decisions,
   rendered on a single line with hex floats so the key is bit-stable. The
   display [aname] is deliberately excluded — two specs with equal keys
   produce identical schedules, so the key (not the name) is the
   architecture's contribution to schedule-cache fingerprints. *)
let render_key t =
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

(* A spec is never mutated once built, so the first [key_memo_max] specs
   keyed keep their key by physical identity, in an immutable list swapped
   atomically (domain-safe); later specs are rendered on every call. *)
let key_memo_max = 16
let key_memo : (t * string) list Atomic.t = Atomic.make []

let key t =
  let memo = Atomic.get key_memo in
  match List.assq_opt t memo with
  | Some k -> k
  | None ->
    let k = render_key t in
    if List.length memo < key_memo_max then
      ignore (Atomic.compare_and_set key_memo memo ((t, k) :: memo));
    k

let simba_precision = function Dims.W | Dims.IA -> 8 | Dims.OA -> 24

(* Energy-per-access values follow the relative ordering of Timeloop's
   45 nm reference table (registers << local SRAM << global SRAM << DRAM). *)
let baseline_levels =
  [|
    { lname = "Register"; capacity_bytes = 64; stores = [ Dims.W; Dims.IA; Dims.OA ];
      fanout = 64; bandwidth_words = 64.; energy_pj = 0.06 };
    { lname = "AccBuf"; capacity_bytes = 3 * 1024; stores = [ Dims.OA ];
      fanout = 1; bandwidth_words = 64.; energy_pj = 1.2 };
    { lname = "WBuf"; capacity_bytes = 32 * 1024; stores = [ Dims.W ];
      fanout = 1; bandwidth_words = 64.; energy_pj = 2.2 };
    { lname = "InputBuf"; capacity_bytes = 8 * 1024; stores = [ Dims.IA ];
      fanout = 16; bandwidth_words = 64.; energy_pj = 1.5 };
    { lname = "GlobalBuf"; capacity_bytes = 128 * 1024; stores = [ Dims.IA; Dims.OA ];
      fanout = 1; bandwidth_words = 16.; energy_pj = 6.0 };
    { lname = "DRAM"; capacity_bytes = max_int; stores = [ Dims.W; Dims.IA; Dims.OA ];
      fanout = 1; bandwidth_words = 8.; energy_pj = 200.0 };
  |]

let baseline_noc =
  { mesh_x = 4; mesh_y = 4; flit_bits = 64; router_latency = 1; link_latency = 1;
    multicast = true; queue_depth = 4; hop_energy_pj = 0.8 }

let baseline_dram =
  { banks = 8; row_bytes = 1024; t_row_hit = 20; t_row_miss = 50; burst_bytes = 64;
    dram_bandwidth_words = 8. }

let baseline =
  { aname = "simba-4x4"; levels = baseline_levels; noc_level = 3; mac_level = 0;
    noc = baseline_noc; dram = baseline_dram; mac_energy_pj = 0.3;
    precision_bits = simba_precision }

let scale_level lvl ~capacity ~bandwidth =
  { lvl with
    capacity_bytes =
      (if lvl.capacity_bytes = max_int then max_int else lvl.capacity_bytes * capacity);
    bandwidth_words = lvl.bandwidth_words *. bandwidth }

let pe64 =
  let levels = Array.map (fun l -> scale_level l ~capacity:1 ~bandwidth:2.) baseline_levels in
  levels.(3) <- { levels.(3) with fanout = 64 };
  { baseline with
    aname = "simba-8x8";
    levels;
    noc = { baseline_noc with mesh_x = 8; mesh_y = 8 };
    dram = { baseline_dram with dram_bandwidth_words = baseline_dram.dram_bandwidth_words *. 2. } }

let big_sram =
  let levels = Array.copy baseline_levels in
  levels.(1) <- scale_level levels.(1) ~capacity:2 ~bandwidth:1.;
  levels.(2) <- scale_level levels.(2) ~capacity:2 ~bandwidth:1.;
  levels.(3) <- scale_level levels.(3) ~capacity:2 ~bandwidth:1.;
  levels.(4) <- scale_level levels.(4) ~capacity:8 ~bandwidth:1.;
  { baseline with aname = "simba-bigsram"; levels }

(* Edge-class variant: a 2x2 array with halved buffers — the regime the
   paper's edge-accelerator citations target; exercises scheduling under
   tight capacity. *)
let edge =
  let levels = Array.map (fun l -> scale_level l ~capacity:1 ~bandwidth:1.) baseline_levels in
  levels.(1) <- { levels.(1) with capacity_bytes = levels.(1).capacity_bytes / 2 };
  levels.(2) <- { levels.(2) with capacity_bytes = levels.(2).capacity_bytes / 2 };
  levels.(3) <- { levels.(3) with capacity_bytes = levels.(3).capacity_bytes / 2; fanout = 4 };
  levels.(4) <- { levels.(4) with capacity_bytes = levels.(4).capacity_bytes / 4 };
  { baseline with
    aname = "simba-edge-2x2";
    levels;
    noc = { baseline_noc with mesh_x = 2; mesh_y = 2 };
    dram = { baseline_dram with dram_bandwidth_words = baseline_dram.dram_bandwidth_words /. 2. } }

let variants =
  [ ("baseline", baseline); ("pe64", pe64); ("big_sram", big_sram); ("edge", edge) ]

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s (%dx%d mesh, %d PEs)\n" t.aname t.noc.mesh_x t.noc.mesh_y (num_pes t));
  Array.iteri
    (fun i l ->
      Buffer.add_string buf
        (Printf.sprintf "  L%d %-10s cap=%s stores={%s} fanout=%d bw=%.0f\n" i l.lname
           (if l.capacity_bytes = max_int then "inf"
            else Printf.sprintf "%dB" l.capacity_bytes)
           (String.concat "," (List.map Dims.tensor_name l.stores))
           l.fanout l.bandwidth_words))
    t.levels;
  Buffer.contents buf
