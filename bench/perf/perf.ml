(* The repository benchmark.

   Run it through bench/perf/run.sh from the root of a checkout, which
   builds the scheduler CLI and this executable first:

     run.sh --workload W --seed N --seconds S --trace 0|1
         one run of workload W. With --trace 0 it prints the end-to-end
         metrics; with --trace 1 it runs the workload untraced, then again
         with the telemetry sink armed, replays its schedules stage by
         stage, probes the cache tier, and prints the per-layer metrics.
     run.sh run [--seed N] [--reps R] [--seconds S] [--smoke] [--out F] [W...]
         R (default 3) runs of each workload, each in a fresh child
         process (cold solver caches, its own peak RSS); prints
         `workload metric median [q1,q3] n unit`, writes every sample to F
         and exits non-zero on any failed check.
     run.sh trace [--seed N] [--seconds S] [--smoke] W
         the same as --workload W --trace 1.
     run.sh compare A B
         per (workload, metric): medians, quartiles, the share of rep
         pairs B wins, and a verdict against the metric's bound.
     run.sh manifest
         prints BENCHMARK.json, generated from the metric catalogue and
         the workload table.

   Every run ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"}. The lines before it are comments ("# ...") and records
   ("sample", "digest", "checks", tab-separated) that `run` collects. *)

let run_seconds = 12
let default_seed = 1

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* Run from the checkout root, wherever the executable was started from:
   the executable sits at <root>/_build/default/bench/perf/perf.exe. *)
let chdir_to_checkout () =
  let rec up n d = if n = 0 then d else up (n - 1) (Filename.dirname d) in
  let root = up 5 Sys.executable_name in
  if Sys.file_exists (Filename.concat root "dune-project") then Sys.chdir root

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

(* ---- one run ------------------------------------------------------------------ *)

let pct q s = 1e3 *. Prim.Stats.percentile q (Report.Samples.to_list s)

let ops_per_s (p : Workloads.phase) = float_of_int p.Workloads.ops /. p.Workloads.wall_s

let end_to_end (w : Workloads.workload) (p : Workloads.phase) =
  [ ("setup_s", Prim.Stats.median p.Workloads.setup_s);
    ("ops_per_s", ops_per_s p);
    ("op_p50_ms", pct 50. p.Workloads.latency);
    ("op_tail_ms", pct w.Workloads.tail p.Workloads.latency);
    ("peak_rss_mb", p.Workloads.rss_mb);
    (* sorted, so the seed's order cannot move the last bits *)
    ("cycles_geomean", Prim.Stats.geomean (List.sort compare p.Workloads.cycles)) ]

(* The per-layer metrics of a traced run, in catalogue order. *)
let per_layer (w : Workloads.workload) cfg =
  let sub name =
    let d = Filename.concat cfg.Workloads.work name in
    Proc.mkdir_p d;
    d
  in
  let a = w.Workloads.phase { cfg with Workloads.work = sub "untraced" } in
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Telemetry.Metrics.reset ();
  Telemetry.Trace.reset ();
  let b = w.Workloads.phase { cfg with Workloads.traced = true; work = sub "traced" } in
  let milp = Layers.milp_metrics () in
  let stages, mismatches, coverage = Layers.replay b.Workloads.solved in
  let serve, misses = Layers.cache_probes ~dir:(sub "probe") b.Workloads.solved in
  Proc.mkdir_p Proc.results_root;
  Telemetry.Trace.write_file
    (Filename.concat Proc.results_root (Printf.sprintf "trace-%s.json" w.Workloads.name));
  let measured =
    milp @ stages @ serve @ b.Workloads.extra
    @ [ ("telemetry.trace_overhead_pct", 100. *. ((ops_per_s a /. ops_per_s b) -. 1.));
        ("trace.stage_coverage_pct", coverage) ]
  in
  let metrics =
    List.map
      (fun (m : Report.metric) ->
        match List.assoc_opt m.Report.name measured with
        | Some v -> (m.Report.name, v)
        | None -> failwith ("per-layer metric not measured: " ^ m.Report.name))
      Report.per_layer
  in
  (* the untraced and traced runs must agree bit for bit; the stages must
     account for the schedule's wall time where the workload is the
     schedule call itself *)
  let sched = w.Workloads.probe <> None in
  if a.Workloads.digest <> b.Workloads.digest then
    print_endline "# traced schedules differ from the untraced run";
  if sched && coverage < 95. then
    Printf.printf "# stage coverage %.1f%% is below 95%%\n" coverage;
  let failed =
    a.Workloads.failed + b.Workloads.failed + mismatches + misses
    + (if a.Workloads.digest = b.Workloads.digest then 0 else 1)
    + if sched && coverage < 95. then 1 else 0
  in
  let attempted =
    a.Workloads.attempted + b.Workloads.attempted + (2 * List.length b.Workloads.solved)
  in
  (b, metrics, attempted, failed)

let one_run ~name ~seed ~seconds ~trace ~smoke =
  let w = workload name in
  let cfg =
    { Workloads.seed; seconds; setups = (if trace || smoke then 1 else 3); smoke; traced = false;
      work = Proc.scratch name }
  in
  let p, metrics, attempted, failed =
    if trace then per_layer w cfg
    else
      let p = w.Workloads.phase cfg in
      (p, end_to_end w p, p.Workloads.attempted, p.Workloads.failed)
  in
  Printf.printf "# %s seed %d: %d ops in %.3f s, %d checks, %d failed\n" name seed
    p.Workloads.ops p.Workloads.wall_s attempted failed;
  List.iter (fun (m, v) -> print_endline (Report.sample_line ~workload:name m v)) metrics;
  Printf.printf "digest\t%s\t%s\n" name p.Workloads.digest;
  Printf.printf "checks\t%s\t%d\t%d\n" name attempted failed;
  print_endline (Report.json_result ~correct:(failed = 0) ~attempted ~failed metrics)

(* ---- argument parsing ------------------------------------------------------------ *)

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable reps : int;
  mutable out : string option;
  mutable workloads : string list;
}

let parse args =
  let o =
    { seed = default_seed; seconds = float_of_int run_seconds; trace = false; smoke = false;
      reps = 3; out = None; workloads = [] }
  in
  let int_of flag v = match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" flag in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> o.seed <- int_of "--seed" v; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. -> o.seconds <- s
       | _ -> die "--seconds expects a positive number");
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> die "--trace expects 0 or 1");
      go rest
    | "--reps" :: v :: rest -> o.reps <- max 1 (int_of "--reps" v); go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--workload" :: v :: rest -> o.workloads <- o.workloads @ [ v ]; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | a :: _ when String.starts_with ~prefix:"-" a -> die "unknown option %s" a
    | w :: rest -> o.workloads <- o.workloads @ [ w ]; go rest
  in
  go args;
  (* a smoke run is a quick end-to-end check of the harness, not a measurement *)
  if o.smoke then o.seconds <- Float.min o.seconds 1.;
  o

(* ---- run: reps in fresh child processes --------------------------------------------- *)

let run_cmd o =
  let names =
    match o.workloads with [] -> List.map (fun w -> w.Workloads.name) Workloads.all | l -> l
  in
  List.iter (fun n -> ignore (workload n)) names;
  let out =
    match o.out with
    | Some f -> f
    | None -> Filename.concat Proc.results_root (Printf.sprintf "run-seed%d.tsv" o.seed)
  in
  Proc.mkdir_p (Filename.dirname out);
  let records = ref [] and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun name ->
      let digests = ref [] in
      for rep = 1 to o.reps do
        let args =
          [ "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
            Printf.sprintf "%g" o.seconds; "--trace"; "0" ]
          @ if o.smoke then [ "--smoke" ] else []
        in
        let status, lines = Proc.capture Sys.executable_name args in
        if status <> Unix.WEXITED 0 then problem "%s rep %d: child exited abnormally" name rep;
        List.iter
          (fun line ->
            match String.split_on_char '\t' line with
            | "sample" :: _ -> records := line :: !records
            | [ "digest"; _; d ] -> digests := d :: !digests
            | [ "checks"; _; attempted; failed ] ->
              records := line :: !records;
              Printf.printf "# %s rep %d: %s checks, %s failed\n%!" name rep attempted failed;
              if failed <> "0" then problem "%s rep %d: %s failed checks" name rep failed
            | _ -> ())
          lines
      done;
      if List.length (List.sort_uniq compare !digests) > 1 then
        problem "%s: schedules differ between reps" name)
    names;
  let records = List.rev !records in
  Out_channel.with_open_text out (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) records);
  (* summary: one row per (workload, metric), in the order first seen *)
  let samples = List.filter_map Compare.parse_sample records in
  List.iter
    (fun ((w, m), (s : Compare.series)) ->
      let q1, med, q3 = Report.quartiles s.Compare.values in
      Printf.printf "%s %s %s [%s,%s] %d %s\n" w m (Report.number med) (Report.number q1)
        (Report.number q3) (List.length s.Compare.values) s.Compare.unit)
    (Compare.group samples);
  Printf.printf "# samples written to %s\n" out;
  match !problems with
  | [] -> ()
  | ps ->
    List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev ps);
    exit 1

(* ---- manifest ------------------------------------------------------------------------- *)

let manifest () =
  let json_list items = "[\n" ^ String.concat ",\n" items ^ "\n  ]" in
  let metric (m : Report.metric) =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (Report.json_string m.Report.name) (Report.json_string m.Report.unit)
      (Report.json_string (Report.better_to_string m.Report.better))
      (match m.Report.bound with Some b -> Printf.sprintf ", \"bound\": %g" b | None -> "")
  in
  Printf.printf
    "{\n  \"command\": [\"bash\", \"bench/perf/run.sh\"],\n  \"paths\": [\"bench/perf\"],\n  \
     \"run_seconds\": %d,\n  \"workloads\": %s,\n  \"end_to_end\": %s,\n  \"per_layer\": %s\n}\n"
    run_seconds
    (json_list
       (List.map
          (fun w ->
            Printf.sprintf "    {\"name\": %s, \"why\": %s}" (Report.json_string w.Workloads.name)
              (Report.json_string w.Workloads.why))
          Workloads.all))
    (json_list (List.map metric Report.end_to_end))
    (json_list (List.map metric Report.per_layer))

(* ---- entry ------------------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit through [at_exit], which stops a running daemon and removes the
     scratch directory *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  chdir_to_checkout ();
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd (parse args)
  | "trace" :: args ->
    let o = parse args in
    (match o.workloads with
     | [ name ] ->
       one_run ~name ~seed:o.seed ~seconds:o.seconds ~trace:true ~smoke:o.smoke
     | _ -> die "trace expects one workload")
  | [ "compare"; a; b ] -> if not (Compare.compare_files a b) then exit 1
  | [ "manifest" ] -> manifest ()
  | "setup-probe" :: name :: seed :: rest ->
    let w = workload name in
    (match w.Workloads.probe, int_of_string_opt seed with
     | Some probe, Some seed ->
       probe
         { Workloads.seed; seconds = 0.; setups = 1; smoke = List.mem "--smoke" rest;
           traced = false; work = "" };
       print_endline "ready"
     | _ -> die "setup-probe: %s has no set-up probe" name)
  | args ->
    let o = parse args in
    (match o.workloads with
     | [ name ] -> one_run ~name ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~smoke:o.smoke
     | _ ->
       die
         "usage: perf.exe --workload W --seed N --seconds S --trace 0|1 | run | trace W | \
          compare A B | manifest")
