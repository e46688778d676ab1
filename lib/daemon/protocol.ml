(* Length-prefixed binary wire protocol for the scheduling daemon.

   A frame is a 4-byte big-endian payload length followed by the payload;
   the payload opens with a magic byte and a version byte, then a message
   tag and tagged fields. Scalars are fixed-width big-endian (floats as
   IEEE-754 bit patterns via [Int64.bits_of_float], so budgets and
   latencies round-trip bit-exactly); strings are a 4-byte length followed
   by raw bytes. Decoding is total: every read is bounds-checked and any
   malformed frame comes back as [Error], never an exception — a confused
   or adversarial client can cost the server one typed protocol error,
   never a crash.

   The frame length is capped: a client that announces a multi-gigabyte
   frame is refused at the header, before any allocation. *)

let magic = 0xC5

(* v2 added a request flags byte carrying [cache_only].
   v3 (the observability tier) appends a 64-bit request id and an origin
   hop count to requests, and adds the stats-query/stats frame pair for
   live introspection. Version mismatches are answered with a typed
   expected-vs-got error so a mixed-version deployment fails loudly and
   legibly, not as "garbage". *)
let version = 3

(* Generous for schedules (a full network response is ~100 KiB), tight
   enough that a hostile length field cannot balloon memory. *)
let max_frame = 16 * 1024 * 1024

type target = Layer of string | Network of string

type request = {
  client : string;  (* quota identity; empty = anonymous shared bucket *)
  budget_s : float;  (* SLO budget from arrival, seconds; <= 0 = server default *)
  arch : string;  (* architecture name, e.g. "baseline" *)
  target : target;
  cache_only : bool;
      (* cache probe: serve from the daemon's cache or answer a typed
         rejection — never solve *)
  req_id : int64;  (* request-scoped trace id; 0 = unassigned, the server mints one *)
  hop : int;  (* origin hop count, 0 from a client *)
}

type reject_reason = Queue_full | Quota_exceeded | Shedding | Deadline_unmeetable

let reject_reason_to_string = function
  | Queue_full -> "queue-full"
  | Quota_exceeded -> "quota-exceeded"
  | Shedding -> "shedding"
  | Deadline_unmeetable -> "deadline-unmeetable"

type served_layer = {
  name : string;
  repeats : int;
  origin : string;  (* cache(mem) / cache(disk) / a ladder-rung name *)
  verdict : string;  (* certification verdict token *)
  record : string;  (* Mapping_io provenance record — re-certifiable *)
}

type scheduled = {
  rung : Robust.Ladder.rung;  (* the rung the request was served at *)
  layers : served_layer list;
  total_latency : float;  (* repetition-weighted model cycles *)
  total_energy_pj : float;
  queue_wait_s : float;
  serve_s : float;  (* admission to response, server-side *)
}

type response =
  | Scheduled of scheduled
  | Rejected of reject_reason
  | Failed of string  (* typed failure text (solver/protocol), never silent *)
  | Stats of string  (* introspection payload: JSON or Prometheus text *)

(* What a stats query asks for. [Full] is the versioned JSON snapshot;
   [Flight] is just the flight-recorder ring (the trace-dump view);
   [Prometheus] is metrics-only text exposition for scrapers. *)
type stats_scope = Stats_full | Stats_flight | Stats_prometheus

type incoming = Req of request | Stats_query of stats_scope

(* ---- encoding --------------------------------------------------------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Protocol.put_u32";
  put_u8 buf (v lsr 24);
  put_u8 buf (v lsr 16);
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_i64 buf (v : int64) =
  for i = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let put_f64 buf v = put_i64 buf (Int64.bits_of_float v)

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let header buf tag =
  put_u8 buf magic;
  put_u8 buf version;
  put_u8 buf tag

let tag_request = 0x01
let tag_scheduled = 0x02
let tag_rejected = 0x03
let tag_failed = 0x04
let tag_stats_request = 0x05
let tag_stats = 0x06

let encode_request (r : request) =
  let buf = Buffer.create 128 in
  header buf tag_request;
  put_str buf r.client;
  put_f64 buf r.budget_s;
  put_str buf r.arch;
  (match r.target with
   | Layer name ->
     put_u8 buf 0;
     put_str buf name
   | Network name ->
     put_u8 buf 1;
     put_str buf name);
  put_u8 buf (if r.cache_only then 1 else 0);
  put_i64 buf r.req_id;
  put_u8 buf r.hop;
  Buffer.to_bytes buf

let stats_scope_code = function
  | Stats_full -> 0
  | Stats_flight -> 1
  | Stats_prometheus -> 2

let encode_stats_request scope =
  let buf = Buffer.create 8 in
  header buf tag_stats_request;
  put_u8 buf (stats_scope_code scope);
  Buffer.to_bytes buf

let reject_code = function
  | Queue_full -> 0
  | Quota_exceeded -> 1
  | Shedding -> 2
  | Deadline_unmeetable -> 3

let encode_response (resp : response) =
  let buf = Buffer.create 256 in
  (match resp with
   | Scheduled s ->
     header buf tag_scheduled;
     put_str buf (Robust.Ladder.to_string s.rung);
     put_u32 buf (List.length s.layers);
     List.iter
       (fun (l : served_layer) ->
         put_str buf l.name;
         put_u32 buf l.repeats;
         put_str buf l.origin;
         put_str buf l.verdict;
         put_str buf l.record)
       s.layers;
     put_f64 buf s.total_latency;
     put_f64 buf s.total_energy_pj;
     put_f64 buf s.queue_wait_s;
     put_f64 buf s.serve_s
   | Rejected reason ->
     header buf tag_rejected;
     put_u8 buf (reject_code reason)
   | Failed msg ->
     header buf tag_failed;
     put_str buf msg
   | Stats payload ->
     header buf tag_stats;
     put_str buf payload);
  Buffer.to_bytes buf

(* ---- decoding --------------------------------------------------------- *)

exception Malformed of string

let decode f (b : bytes) =
  let pos = ref 0 in
  let len = Bytes.length b in
  let need n what =
    if !pos + n > len then raise (Malformed (Printf.sprintf "truncated %s" what))
  in
  let u8 what =
    need 1 what;
    let v = Char.code (Bytes.get b !pos) in
    incr pos;
    v
  in
  let u32 what =
    need 4 what;
    let v =
      (Char.code (Bytes.get b !pos) lsl 24)
      lor (Char.code (Bytes.get b (!pos + 1)) lsl 16)
      lor (Char.code (Bytes.get b (!pos + 2)) lsl 8)
      lor Char.code (Bytes.get b (!pos + 3))
    in
    pos := !pos + 4;
    v
  in
  let f64 what =
    need 8 what;
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b !pos)));
      incr pos
    done;
    Int64.float_of_bits !v
  in
  let str what =
    let n = u32 (what ^ " length") in
    need n what;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  match
    let m = u8 "magic" in
    if m <> magic then
      raise (Malformed (Printf.sprintf "magic mismatch: expected 0x%02x, got 0x%02x" magic m));
    let v = u8 "version" in
    if v <> version then
      raise (Malformed (Printf.sprintf "version mismatch: expected v%d, got v%d" version v));
    let r = f ~u8 ~u32 ~f64 ~str in
    if !pos <> len then raise (Malformed "trailing bytes");
    r
  with
  | r -> Ok r
  | exception Malformed msg -> Error msg

let decode_request_fields ~u8 ~f64 ~str =
  let client = str "client" in
  let budget_s = f64 "budget" in
  let arch = str "arch" in
  let target =
    match u8 "target tag" with
    | 0 -> Layer (str "layer name")
    | 1 -> Network (str "network name")
    | t -> raise (Malformed (Printf.sprintf "unknown target tag %d" t))
  in
  let flags = u8 "flags" in
  if flags land lnot 0x01 <> 0 then
    raise (Malformed (Printf.sprintf "unknown request flags 0x%02x" flags));
  let req_id = ref 0L in
  for _ = 0 to 7 do
    req_id := Int64.logor (Int64.shift_left !req_id 8) (Int64.of_int (u8 "request id"))
  done;
  let hop = u8 "hop count" in
  { client; budget_s; arch; target; cache_only = flags land 0x01 = 1;
    req_id = !req_id; hop }

let decode_stats_scope ~u8 =
  match u8 "stats scope" with
  | 0 -> Stats_full
  | 1 -> Stats_flight
  | 2 -> Stats_prometheus
  | s -> raise (Malformed (Printf.sprintf "unknown stats scope %d" s))

let decode_request b =
  decode
    (fun ~u8 ~u32:_ ~f64 ~str ->
      let tag = u8 "tag" in
      if tag <> tag_request then raise (Malformed (Printf.sprintf "tag 0x%02x is not a request" tag));
      decode_request_fields ~u8 ~f64 ~str)
    b

(* A server-side frame may be a scheduling request or a stats query; the
   two arrive over the same socket, distinguished only by tag. *)
let decode_incoming b =
  decode
    (fun ~u8 ~u32:_ ~f64 ~str ->
      match u8 "tag" with
      | t when t = tag_request -> Req (decode_request_fields ~u8 ~f64 ~str)
      | t when t = tag_stats_request -> Stats_query (decode_stats_scope ~u8)
      | t -> raise (Malformed (Printf.sprintf "tag 0x%02x is not a request" t)))
    b

let decode_response b =
  decode
    (fun ~u8 ~u32 ~f64 ~str ->
      match u8 "tag" with
      | t when t = tag_scheduled ->
        let rung_s = str "rung" in
        let rung =
          match Robust.Ladder.of_string rung_s with
          | Some r -> r
          | None -> raise (Malformed (Printf.sprintf "unknown rung %S" rung_s))
        in
        let n = u32 "layer count" in
        if n > 100_000 then raise (Malformed "absurd layer count");
        let layers =
          List.init n (fun _ ->
              let name = str "layer name" in
              let repeats = u32 "repeats" in
              let origin = str "origin" in
              let verdict = str "verdict" in
              let record = str "record" in
              { name; repeats; origin; verdict; record })
        in
        let total_latency = f64 "total latency" in
        let total_energy_pj = f64 "total energy" in
        let queue_wait_s = f64 "queue wait" in
        let serve_s = f64 "serve time" in
        Scheduled { rung; layers; total_latency; total_energy_pj; queue_wait_s; serve_s }
      | t when t = tag_rejected ->
        (match u8 "reject reason" with
         | 0 -> Rejected Queue_full
         | 1 -> Rejected Quota_exceeded
         | 2 -> Rejected Shedding
         | 3 -> Rejected Deadline_unmeetable
         | r -> raise (Malformed (Printf.sprintf "unknown reject reason %d" r)))
      | t when t = tag_failed -> Failed (str "failure text")
      | t when t = tag_stats -> Stats (str "stats payload")
      | t -> raise (Malformed (Printf.sprintf "unknown response tag 0x%02x" t)))
    b

(* ---- framing ---------------------------------------------------------- *)

(* Retry short reads/writes; EINTR restarts. EOF mid-frame is an error,
   EOF at a frame boundary is a clean close ([Ok None] on read). *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = try Unix.write fd b off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd b (off + n) (len - n)
  end

(* The 4-byte big-endian length header and the payload in one buffer, so a
   frame leaves in one [write] and the reader wakes once for all of it. *)
let frame payload =
  let n = Bytes.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit payload 0 b 4 n;
  b

let write_frame fd payload = write_all fd (frame payload) 0 (4 + Bytes.length payload)

let header_length hdr = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffff_ffff

let read_exact fd buf len =
  let rec go off =
    if off >= len then `Ok
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else `Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Eof -> Ok None
  | `Truncated -> Error "truncated frame header"
  | `Ok ->
    let n = header_length hdr in
    if n > max_frame then Error (Printf.sprintf "frame of %d bytes exceeds limit" n)
    else begin
      let payload = Bytes.create n in
      match read_exact fd payload n with
      | `Ok -> Ok (Some payload)
      | `Eof | `Truncated -> Error "truncated frame payload"
    end

(* Deadline-aware framing for connections carrying SO_RCVTIMEO. A receive
   timeout at a frame *boundary* (no header byte read yet) is benign
   idleness — the caller decides whether to keep waiting or reap the
   connection. A timeout *inside* a frame means the peer stalled mid-write
   (the partial-frame fault, a wedged client) and is a hard read-deadline
   error: the connection is poisoned and must be closed. *)
let read_exact_timeout fd buf len =
  let rec go off =
    if off >= len then `Ok off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else `Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Timeout off
  in
  go 0

let read_frame_timeout fd =
  let hdr = Bytes.create 4 in
  match read_exact_timeout fd hdr 4 with
  | `Eof -> `Eof
  | `Truncated -> `Error "truncated frame header"
  | `Timeout 0 -> `Idle
  | `Timeout _ -> `Error "read deadline exceeded mid-header"
  | `Ok _ ->
    let n = header_length hdr in
    if n > max_frame then `Error (Printf.sprintf "frame of %d bytes exceeds limit" n)
    else begin
      let payload = Bytes.create n in
      match read_exact_timeout fd payload n with
      | `Ok _ -> `Frame payload
      | `Eof | `Truncated -> `Error "truncated frame payload"
      | `Timeout _ -> `Error "read deadline exceeded mid-frame"
    end

(* Fault-injection helper: a frame header promising [length payload] bytes
   followed by only the first half of them — the torn write a crash or a
   cut connection produces. Receivers must treat it as a transport
   error (mid-frame stall/EOF), never as a short valid frame. *)
let write_torn_frame fd payload =
  let n = Bytes.length payload in
  write_all fd (frame payload) 0 (4 + min n (max 1 (n / 2)))
