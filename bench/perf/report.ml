(* Metric catalogue, statistics and output formats of the benchmark.

   The catalogue is the single source of BENCHMARK.json (`perf.exe
   manifest` prints it). A run prints one tab-separated record line per
   metric — the line-per-sample format `perf.exe run` collects into a
   results file and `perf.exe compare` reads back — and ends with a
   one-line JSON result object ({"correct", "attempted", "failed",
   "metrics"}) for tools that read BENCHMARK.json. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** end-to-end only: the share of the parent's median by which the
          metric may worsen before a change counts as a regression *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

(* Every workload reports the same end-to-end metrics; what one "op" is
   differs per workload and is stated with each workload. The timing and
   memory bounds sit at the 0.25 ceiling: on the shared 2-vCPU VM they
   were measured on, run-to-run spreads reached 22% and medians of two
   sets minutes apart moved by up to 14% (README.md). *)
let end_to_end =
  [ e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_p50_ms" "ms" Lower 0.25;
    e2e "op_tail_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    (* modelled latency of the schedules served: deterministic, so any
       worsening at all is a regression in schedule quality *)
    e2e "cycles_geomean" "cycles" Lower 0.001 ]

(* Read from the traced run. Every time-valued metric here is measured on
   every workload; layers only some workloads touch (pool, cache tier,
   daemon) report counts and ratios, which read 0 where the layer is not
   exercised. *)
let per_layer =
  [ layer "milp.bb_s" "s" Lower;
    layer "milp.simplex_s" "s" Lower;
    layer "milp.bb_self_s" "s" Lower;
    layer "milp.nodes" "count" Lower;
    layer "milp.simplex_iterations" "count" Lower;
    layer "milp.nodes_per_s" "1/s" Higher;
    layer "milp.refactorizations" "count" Lower;
    layer "milp.factor_hit_ratio" "ratio" Higher;
    layer "milp.factor_extensions" "count" Lower;
    layer "milp.warm_solve_ratio" "ratio" Higher;
    layer "core.formulate_ms" "ms" Lower;
    layer "core.lp_rows" "count" Lower;
    layer "core.lp_cols" "count" Lower;
    layer "core.mip_start_ms" "ms" Lower;
    layer "core.decode_ms" "ms" Lower;
    layer "certify.lp_ms" "ms" Lower;
    layer "certify.mapping_ms" "ms" Lower;
    layer "amodel.evaluate_us" "us" Lower;
    layer "serve.pool_efficiency" "ratio" Higher;
    layer "serve.store_ms" "ms" Lower;
    layer "serve.probe_us" "us" Lower;
    layer "serve.disk_probe_us" "us" Lower;
    layer "cluster.mem_hits" "count" Higher;
    layer "cluster.disk_hits" "count" Lower;
    layer "cluster.evictions" "count" Lower;
    layer "cluster.hit_ratio" "ratio" Higher;
    layer "daemon.fastpath_share" "ratio" Higher;
    layer "daemon.serve_share" "ratio" Lower;
    layer "telemetry.trace_overhead_pct" "%" Lower;
    layer "trace.stage_coverage_pct" "%" Higher ]

let find name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m
  | None -> invalid_arg ("Report.find: unknown metric " ^ name)

(* ---- statistics --------------------------------------------------------- *)

let now = Unix.gettimeofday

(* Python's [statistics.quantiles xs ~n:4] (its default exclusive method),
   so spreads read here agree with ones computed from the result lines in
   Python. *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Report.quartiles: no samples"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* A growable float buffer: latency samples of one run can number 10^5. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_list t = Array.to_list (Array.sub t.a 0 t.n)
  let sum t = Array.fold_left ( +. ) 0. (Array.sub t.a 0 t.n)
end

(* ---- output ------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s = "\"" ^ Telemetry.Trace.json_escape s ^ "\""

let sample_line ~workload name value =
  let m = find name in
  Printf.sprintf "sample\t%s\t%s\t%s\t%s\t%s\t%s" workload name (number value) m.unit
    (better_to_string m.better)
    (match m.bound with Some b -> Printf.sprintf "%g" b | None -> "-")

(* The last line of every run. A non-finite value is a measurement bug: it
   prints as 0 and marks the run incorrect. *)
let json_result ~correct ~attempted ~failed metrics =
  let correct = correct && List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (number v)
             (json_string (find name).unit))
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
