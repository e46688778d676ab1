(* Process and file-system helpers. Everything the benchmark writes lives
   under the checkout: scratch state under [work_root], results under
   [results_root], both relative to the checkout root the benchmark runs
   from. *)

let work_root = Filename.concat "bench" (Filename.concat "perf" "_work")
let results_root = Filename.concat "bench" (Filename.concat "perf" "results")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh per-process scratch directory, removed when the process exits. *)
let scratch name =
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () ->
      rm_rf dir;
      try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  dir

(* Peak resident set size ("VmHWM") of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> failwith ("no VmHWM in " ^ path)
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* The scheduler CLI built beside this executable:
   _build/default/bench/perf/perf.exe -> _build/default/bin/cosa_cli.exe *)
let cli_binary () =
  let build = Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)) in
  Filename.concat build (Filename.concat "bin" "cosa_cli.exe")

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) exe args =
  Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin stdout stderr

let spawn_logged ~log exe args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> spawn ~stdout:fd ~stderr:fd exe args)

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait pid

(* Run [exe args], returning its exit status and its standard output as
   lines; standard error passes through. *)
let capture exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w exe args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_lines ic in
  close_in ic;
  (wait pid, lines)
