(** Length-prefixed binary wire protocol for the scheduling daemon.

    A frame is a 4-byte big-endian payload length followed by a payload
    opening with magic and version bytes, a message tag, and fixed-width
    big-endian fields (floats as IEEE-754 bit patterns, strings
    length-prefixed). Decoding is total: malformed input yields [Error],
    never an exception, and announced frame lengths beyond {!max_frame}
    are refused before allocation. *)

val magic : int
val version : int

val max_frame : int
(** Hard cap on payload size, both written and accepted. *)

type target =
  | Layer of string  (** one layer by zoo name — the interactive request *)
  | Network of string  (** a whole network by name — the batch request *)

type request = {
  client : string;  (** quota identity; [""] shares the anonymous bucket *)
  budget_s : float;  (** SLO budget from arrival (seconds); [<= 0] = server default *)
  arch : string;  (** architecture name (e.g. ["baseline"]) *)
  target : target;
  cache_only : bool;
      (** cache probe: serve from the daemon's cache or answer a typed
          rejection — never solve *)
  req_id : int64;
      (** request-scoped trace id, rendered as 16 hex digits everywhere
          ([Telemetry.Trace.request_id_hex]). [0L] = unassigned: the
          server mints one on arrival. A client that mints its own can
          follow the request through the daemon's trace, event log and
          flight recorder. *)
  hop : int;
      (** origin hop count, 0 from a client (wire range 0..255). The
          daemon records it with the request id and tags trace events
          with it when it is positive. *)
}

(** Why a request was refused. Every overload path answers with one of
    these — the daemon never drops a request silently. *)
type reject_reason =
  | Queue_full  (** the bounded request queue is at capacity *)
  | Quota_exceeded  (** the client's token bucket is empty *)
  | Shedding  (** overload shedding or server draining *)
  | Deadline_unmeetable
      (** no degradation-ladder rung fits the remaining SLO budget (also:
          a cache-only probe that missed) *)

val reject_reason_to_string : reject_reason -> string

type served_layer = {
  name : string;
  repeats : int;
  origin : string;  (** cache(mem) / cache(disk) / ladder-rung name *)
  verdict : string;  (** certification verdict token *)
  record : string;
      (** full [Mapping_io] provenance record: clients can parse it back
          and re-certify the schedule in exact arithmetic *)
}

type scheduled = {
  rung : Robust.Ladder.rung;  (** the rung admission selected *)
  layers : served_layer list;
  total_latency : float;  (** repetition-weighted model cycles *)
  total_energy_pj : float;
  queue_wait_s : float;
  serve_s : float;  (** admission to response, server-side *)
}

type response =
  | Scheduled of scheduled
  | Rejected of reject_reason
  | Failed of string  (** typed failure text; never a silent drop *)
  | Stats of string
      (** introspection payload (JSON snapshot or Prometheus text),
          answered inline on the connection thread — never queued *)

(** What a stats query asks the daemon for. *)
type stats_scope =
  | Stats_full  (** the versioned JSON snapshot (metrics, admission,
                    shards, flight recorder) *)
  | Stats_flight  (** just the flight-recorder ring, as JSON *)
  | Stats_prometheus  (** metrics-only Prometheus text exposition *)

(** A server-side frame: a scheduling request or a stats query. *)
type incoming = Req of request | Stats_query of stats_scope

val encode_request : request -> bytes
val decode_request : bytes -> (request, string) result
val encode_stats_request : stats_scope -> bytes
val decode_incoming : bytes -> (incoming, string) result
val encode_response : response -> bytes
val decode_response : bytes -> (response, string) result

val write_frame : Unix.file_descr -> bytes -> unit
(** Write one length-prefixed frame: header and payload go out from one
    buffer in a single [write] (retried on short writes). Raises
    [Unix.Unix_error] on a dead peer (callers handle/ignore EPIPE). *)

val read_frame : Unix.file_descr -> (bytes option, string) result
(** Read one frame. [Ok None] is a clean EOF at a frame boundary;
    [Error _] covers mid-frame EOF, oversized announcements, and read
    failures. *)

val read_frame_timeout :
  Unix.file_descr -> [ `Frame of bytes | `Eof | `Idle | `Error of string ]
(** Like {!read_frame} on a descriptor carrying a receive timeout
    (SO_RCVTIMEO). A timeout at a frame boundary (zero header bytes read)
    is [`Idle] — benign, the caller chooses to wait more or reap the
    connection. A timeout mid-frame is a hard [`Error]: the peer stalled
    inside a frame (torn write, wedged client) and the connection is
    poisoned. *)

val write_torn_frame : Unix.file_descr -> bytes -> unit
(** Fault-injection helper: write a prefix of {!write_frame}'s buffer — the
    header promising the full payload, then only the first half of the
    bytes — the torn write a crash mid-response produces. *)
