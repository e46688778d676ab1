(* Bench regression gate: compare a fresh BENCH_results.json against the
   committed BENCH_baseline.json.

     dune exec bench/check_regress.exe -- BENCH_results.json BENCH_baseline.json

   Two classes of check, matching what each number can promise:

   - Wall times (per experiment, and the warm/cold sweep walls) are
     machine- and load-dependent: drift beyond ±20% prints a WARNING but
     never fails the gate.

   - The warm-start sweep is node-bound, so its telemetry counters are
     deterministic: any counter drift against the baseline, in either of
     its two legs (two-stage and joint), is a real behavioural change
     (different pivots, different tree) and FAILS the gate (exit 1), as
     does a leg that lost warm/cold identity or stopped warm-solving
     nodes.

   Stdlib only (hand-rolled JSON reader for the subset bench/main.ml
   emits: objects, arrays, strings, numbers, booleans). *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'u' ->
           (* bench output only escapes control characters; decode as-is *)
           let hex = String.sub s (!pos + 1) 4 in
           Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
           pos := !pos + 4
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin incr pos; Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin incr pos; Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elements (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  v

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_json (really_input_string ic (in_channel_length ic)))

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let path_opt j keys = List.fold_left (fun j k -> Option.bind j (member k)) (Some j) keys
let num_opt j keys = match path_opt j keys with Some (Num x) -> Some x | _ -> None
let bool_opt j keys = match path_opt j keys with Some (Bool b) -> Some b | _ -> None

let warnings = ref 0
let failures = ref 0

let warn fmt =
  Printf.ksprintf
    (fun s ->
      incr warnings;
      Printf.printf "WARNING: %s\n" s)
    fmt

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n" s)
    fmt

let wall_tolerance = 0.20

let check_wall label fresh base =
  match (fresh, base) with
  | Some f, Some b when b > 0. ->
    let drift = (f -. b) /. b in
    if Float.abs drift > wall_tolerance then
      warn "%s wall %.2fs vs baseline %.2fs (%+.0f%%, tolerance ±%.0f%%)" label f b
        (100. *. drift) (100. *. wall_tolerance)
  | Some _, Some _ -> ()
  | _ -> warn "%s wall time missing from results or baseline" label

(* per-experiment wall times, matched by id *)
let check_experiments fresh base =
  let exps j =
    match member "experiments" j with
    | Some (Arr es) ->
      List.filter_map
        (fun e ->
          match (path_opt e [ "id" ], num_opt e [ "wall_s" ]) with
          | Some (Str id), Some w -> Some (id, w)
          | _ -> None)
        es
    | _ -> []
  in
  let base_exps = exps base in
  List.iter
    (fun (id, w) ->
      match List.assoc_opt id base_exps with
      | Some bw -> check_wall (Printf.sprintf "experiment %s" id) (Some w) (Some bw)
      | None -> warn "experiment %s missing from baseline" id)
    (exps fresh)

(* One leg of the node-bound warm sweep: identity booleans must hold in the
   fresh run, and every telemetry counter must match the baseline exactly. *)
let check_leg label f b =
  List.iter
    (fun key ->
      match bool_opt f [ key ] with
      | Some true -> ()
      | Some false -> fail "%s.%s is false (warm/cold runs diverged)" label key
      | None -> fail "%s.%s missing" label key)
    [ "schedules_identical"; "objectives_identical"; "nodes_identical" ];
  (match num_opt f [ "warm"; "telemetry"; "counters"; "simplex.warm_solves" ] with
   | Some w when w > 0. -> ()
   | Some _ -> fail "%s: warm run performed no warm solves" label
   | None -> fail "%s warm_solves counter missing" label);
  check_wall (label ^ "(warm)") (num_opt f [ "warm"; "wall_s" ]) (num_opt b [ "warm"; "wall_s" ]);
  check_wall (label ^ "(cold)") (num_opt f [ "cold"; "wall_s" ]) (num_opt b [ "cold"; "wall_s" ]);
  List.iter
    (fun side ->
      match
        (path_opt f [ side; "telemetry"; "counters" ],
         path_opt b [ side; "telemetry"; "counters" ])
      with
      | Some (Obj fc), Some (Obj bc) ->
        List.iter
          (fun (name, v) ->
            match (v, List.assoc_opt name bc) with
            | Num fv, Some (Num bv) ->
              if fv <> bv then
                fail "%s %s counter %s drifted: %.0f vs baseline %.0f" label side name fv bv
            | _, None -> fail "%s %s counter %s absent from baseline" label side name
            | _ -> fail "%s %s counter %s is not a number" label side name)
          fc;
        List.iter
          (fun (name, _) ->
            if not (List.mem_assoc name fc) then
              fail "%s %s counter %s vanished from fresh results" label side name)
          bc
      | _ -> fail "%s %s telemetry counters missing" label side)
    [ "warm"; "cold" ]

(* The warm sweep's two legs: the two-stage one at the top level of
   [warm_sweep], the joint one under [warm_sweep.joint]. *)
let check_sweep fresh base =
  match (member "warm_sweep" fresh, member "warm_sweep" base) with
  | None, _ -> fail "warm_sweep section missing from fresh results"
  | _, None -> warn "warm_sweep section missing from baseline (gate skipped)"
  | Some f, Some b ->
    check_leg "warm_sweep" f b;
    (* The incremental LU engine's reason to exist: the two-stage leg must
       stay at or below 0.2 full refactorizations per simplex solve (the
       pre-engine code performed ~2 per solve). It is a property of the
       prefix chain, so the joint leg, above the chain's cutoff, is exempt.
       A missing refactorization counter means zero refactorizations,
       which trivially passes. *)
    (match num_opt f [ "warm"; "telemetry"; "counters"; "simplex.solves" ] with
     | Some solves when solves > 0. ->
       let refac =
         Option.value ~default:0.
           (num_opt f [ "warm"; "telemetry"; "counters"; "simplex.refactorizations" ])
       in
       let per_solve = refac /. solves in
       if per_solve > 0.2 then
         fail
           "warm sweep refactorizations per solve %.3f exceeds the 0.2 gate \
            (%.0f refactorizations / %.0f solves)"
           per_solve refac solves
     | Some _ | None -> fail "warm_sweep simplex.solves counter missing or zero");
    match (member "joint" f, member "joint" b) with
    | None, _ -> fail "warm_sweep.joint missing from fresh results"
    | _, None -> warn "warm_sweep.joint missing from baseline (gate skipped)"
    | Some fj, Some bj -> check_leg "warm_sweep.joint" fj bj

(* The fusion sweep is exact-integer and node-bound, so its word counts are
   deterministic: any drift against the baseline is a real change to the
   planner or cost model and FAILS the gate. Gated networks must also keep
   clearing the >= gate_pct savings floor, and the DRAM-model replay must
   keep the fused stream strictly cheaper. *)
let check_fuse fresh base =
  match (member "fuse" fresh, member "fuse" base) with
  | None, None -> ()
  | None, Some _ -> fail "fuse section missing from fresh results"
  | Some _, None -> warn "fuse section missing from baseline (gate skipped)"
  | Some f, Some b ->
    let gate = match num_opt f [ "gate_pct" ] with Some g -> g | None -> 20. in
    let nets j =
      match member "networks" j with
      | Some (Arr ns) ->
        List.filter_map
          (fun e ->
            match path_opt e [ "name" ] with
            | Some (Str name) -> Some (name, e)
            | _ -> None)
          ns
      | _ -> []
    in
    let base_nets = nets b in
    List.iter
      (fun (name, e) ->
        (match num_opt e [ "fused" ] with
         | Some n when n >= 1. -> ()
         | _ -> fail "fuse %s: no chains fused" name);
        (if bool_opt e [ "gated" ] = Some true then
           match num_opt e [ "savings_pct" ] with
           | Some s when s >= gate -> ()
           | Some s -> fail "fuse %s: savings %.1f%% below the %.0f%% gate" name s gate
           | None -> fail "fuse %s: savings_pct missing" name);
        match List.assoc_opt name base_nets with
        | None -> warn "fuse network %s missing from baseline" name
        | Some be ->
          List.iter
            (fun key ->
              match (num_opt e [ key ], num_opt be [ key ]) with
              | Some fv, Some bv ->
                if fv <> bv then
                  fail "fuse %s %s drifted: %.0f vs baseline %.0f" name key fv bv
              | _ -> fail "fuse %s %s missing from results or baseline" name key)
            [ "chain_independent_words"; "chain_fused_words";
              "network_independent_words"; "network_fused_words" ])
      (nets f);
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name (nets f)) then
          fail "fuse network %s vanished from fresh results" name)
      base_nets;
    (match
       (num_opt f [ "dram_sim"; "fused_busy_cycles" ],
        num_opt f [ "dram_sim"; "independent_busy_cycles" ])
     with
     | Some fu, Some ind when fu < ind -> ()
     | Some _, Some _ ->
       fail "fuse DRAM model: fused stream not strictly cheaper than independent"
     | _ -> fail "fuse DRAM model busy-cycle counts missing")

let () =
  let results, baseline =
    match Sys.argv with
    | [| _; r; b |] -> (r, b)
    | _ ->
      prerr_endline "usage: check_regress RESULTS.json BASELINE.json";
      exit 2
  in
  let fresh =
    try load results
    with e ->
      Printf.eprintf "cannot read %s: %s\n" results (Printexc.to_string e);
      exit 2
  in
  let base =
    try load baseline
    with e ->
      Printf.eprintf "cannot read %s: %s\n" baseline (Printexc.to_string e);
      exit 2
  in
  check_experiments fresh base;
  check_sweep fresh base;
  check_fuse fresh base;
  Printf.printf "regression gate: %d failure(s), %d warning(s)\n" !failures !warnings;
  if !failures > 0 then exit 1
