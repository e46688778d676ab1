(* Span ring buffer. Appends are a single [Atomic.fetch_and_add] on the
   write position plus one slot store; concurrent writers that lap the
   ring overwrite the oldest slots (a slot store is one pointer write of
   an immutable record, so a racy overwrite yields one of the two events,
   never a torn one). Readers ([events], exports) run after the workload
   settles, on the coordinating domain. *)

type event = {
  name : string;
  cat : string;
  ts : float;
  dur : float;
  complete : bool;
  pid : int;
  args : (string * string) list;
}

type span = { sname : string; scat : string; t0 : float; live : bool }

let disabled_span = { sname = ""; scat = ""; t0 = 0.; live = false }

let mu = Mutex.create ()
let slots : event option array ref = ref [||]
let pos = Atomic.make 0
let epoch = Atomic.make 0.

(* Aggregates per span name, robust to ring overwrite: the --profile
   summary must account for every span even when the ring only retains
   the last N. *)
type agg = { acount : int Atomic.t; atotal : float Atomic.t }

let profile : (string, agg) Hashtbl.t = Hashtbl.create 32

let agg_for name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt profile name with
      | Some a -> a
      | None ->
        let a = { acount = Atomic.make 0; atotal = Atomic.make 0. } in
        Hashtbl.add profile name a;
        a)

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let ensure_ring () =
  let want = Sink.ring_capacity () in
  if Array.length !slots <> want then
    Mutex.protect mu (fun () ->
        if Array.length !slots <> want then begin
          slots := Array.make want None;
          Atomic.set pos 0
        end)

let set_capacity n =
  Sink.set_ring_capacity n;
  Mutex.protect mu (fun () ->
      slots := Array.make (Sink.ring_capacity ()) None;
      Atomic.set pos 0)

let reset () =
  Mutex.protect mu (fun () ->
      let s = !slots in
      Array.fill s 0 (Array.length s) None;
      Atomic.set pos 0;
      Hashtbl.iter
        (fun _ a ->
          Atomic.set a.acount 0;
          Atomic.set a.atotal 0.)
        profile);
  Atomic.set epoch (Robust.Deadline.now ())

(* ---- request context --------------------------------------------------- *)

(* Per-systhread request binding. The daemon runs every connection on its
   own thread inside one domain, so Domain-local storage cannot tell two
   in-flight requests apart; the context is keyed by [Thread.id] instead.
   The binding is independent of the sink — the event log reads
   [current_request] and must tag its lines even with tracing off — but
   only [record] pays the lookup, and only when a sink is armed. *)

let req_mu = Mutex.create ()
let req_tbl : (int, int64 * int) Hashtbl.t = Hashtbl.create 16

let current_request () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect req_mu (fun () -> Hashtbl.find_opt req_tbl tid)

let with_request ~id ~hop f =
  let tid = Thread.id (Thread.self ()) in
  let prev =
    Mutex.protect req_mu (fun () ->
        let prev = Hashtbl.find_opt req_tbl tid in
        Hashtbl.replace req_tbl tid (id, hop);
        prev)
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect req_mu (fun () ->
          match prev with
          | Some p -> Hashtbl.replace req_tbl tid p
          | None -> Hashtbl.remove req_tbl tid))
    f

let request_id_hex id = Printf.sprintf "%016Lx" id

let tag_request args =
  match current_request () with
  | None -> args
  | Some _ when List.mem_assoc "req" args -> args
  | Some (id, hop) ->
    let tagged = ("req", request_id_hex id) :: args in
    if hop > 0 then ("hop", string_of_int hop) :: tagged else tagged

let record ev =
  ensure_ring ();
  let ev = { ev with args = tag_request ev.args } in
  let s = !slots in
  let i = Atomic.fetch_and_add pos 1 in
  s.(i mod Array.length s) <- Some ev

let domain_id () = (Domain.self () :> int)

let begin_span ?(cat = "app") name =
  if not (Sink.enabled ()) then disabled_span
  else { sname = name; scat = cat; t0 = Robust.Deadline.now (); live = true }

let end_span ?(args = []) sp =
  if sp.live && Sink.enabled () then begin
    let t1 = Robust.Deadline.now () in
    let dur = Float.max 0. (t1 -. sp.t0) in
    record
      {
        name = sp.sname;
        cat = sp.scat;
        ts = sp.t0 -. Atomic.get epoch;
        dur;
        complete = true;
        pid = domain_id ();
        args;
      };
    let a = agg_for sp.sname in
    ignore (Atomic.fetch_and_add a.acount 1);
    atomic_add_float a.atotal dur
  end

let with_span ?cat name f =
  if not (Sink.enabled ()) then f ()
  else begin
    let sp = begin_span ?cat name in
    Fun.protect ~finally:(fun () -> end_span sp) f
  end

let instant ?(cat = "app") ?(args = []) name =
  if Sink.enabled () then
    record
      {
        name;
        cat;
        ts = Robust.Deadline.now () -. Atomic.get epoch;
        dur = 0.;
        complete = false;
        pid = domain_id ();
        args;
      }

let recorded () = Atomic.get pos

let events () =
  let s = !slots in
  let n = Atomic.get pos in
  let len = Array.length s in
  if n = 0 || len = 0 then []
  else begin
    let first = if n <= len then 0 else n - len in
    let out = ref [] in
    for i = n - 1 downto first do
      match s.(i mod len) with Some ev -> out := ev :: !out | None -> ()
    done;
    !out
  end

(* ---- JSON export ------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let event_json ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,%s\"pid\":%d,\"tid\":%d"
       (json_escape ev.name) (json_escape ev.cat)
       (if ev.complete then "X" else "i")
       (ev.ts *. 1e6)
       (if ev.complete then Printf.sprintf "\"dur\":%.3f," (ev.dur *. 1e6) else "")
       ev.pid ev.pid);
  (match ev.args with
   | [] -> ()
   | args ->
     Buffer.add_string buf ",\"args\":{";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_string buf
           (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
       args;
     Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

let export_chrome () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (event_json ev))
    (events ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let export_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_json ev);
      Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (export_chrome ()))

let flush () = match Sink.get () with Sink.File p -> write_file p | Sink.Null | Sink.Memory -> ()

(* ---- profile summary --------------------------------------------------- *)

let profile_entries () =
  Mutex.protect mu (fun () ->
      Hashtbl.fold
        (fun name a acc -> (name, Atomic.get a.acount, Atomic.get a.atotal) :: acc)
        profile [])
  |> List.filter (fun (_, c, _) -> c > 0)
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let profile_summary () =
  match profile_entries () with
  | [] -> "(no spans recorded)\n"
  | entries ->
    let tab = Prim.Texttab.create [ "span"; "count"; "total (s)"; "mean (ms)" ] in
    List.iter
      (fun (name, count, total) ->
        Prim.Texttab.add_row tab
          [ name; string_of_int count; Printf.sprintf "%.4f" total;
            Printf.sprintf "%.4f" (1e3 *. total /. float_of_int count) ])
      entries;
    Prim.Texttab.render tab
