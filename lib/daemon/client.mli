(** Blocking client for the daemon's wire protocol, with bounded-retry
    failover across a list of daemon endpoints. *)

type t

type endpoint =
  | Unix_path of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val endpoint_of_string : string -> endpoint
(** ["host:port"] with a numeric port and no ['/'] parses as {!Tcp};
    anything else is a {!Unix_path}. *)

val endpoint_to_string : endpoint -> string

val connect : ?timeout_s:float -> string -> (t, string) result
(** Connect to the daemon's Unix-domain socket. [timeout_s > 0] bounds
    the connect itself (non-blocking connect + select, so a black-holed
    endpoint costs at most the budget, not the kernel's ~minutes timeout)
    and arms send/receive timeouts so a wedged server yields [Error],
    not a hang. *)

val connect_ep : ?timeout_s:float -> endpoint -> (t, string) result
(** Connect to either endpoint kind (TCP connections set TCP_NODELAY). *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** One request/response exchange. The connection stays usable for
    further requests after [Ok]; after [Error] it should be closed. *)

val close : t -> unit

val one_shot :
  ?timeout_s:float -> string -> Protocol.request -> (Protocol.response, string) result
(** Connect, exchange one request, close. *)

val one_shot_ep :
  ?timeout_s:float -> endpoint -> Protocol.request -> (Protocol.response, string) result

val stats : t -> Protocol.stats_scope -> (string, string) result
(** One stats query on an open connection: the payload is the snapshot
    JSON ([Stats_full]), the flight-recorder JSON array ([Stats_flight])
    or Prometheus text ([Stats_prometheus]). The server answers inline —
    a stats query is never queued, counted or admission-priced. *)

val stats_ep :
  ?timeout_s:float -> endpoint -> Protocol.stats_scope -> (string, string) result
(** Connect, run one stats query, close — the ops CLI's path. *)

val request_failover :
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_max_s:float ->
  ?jitter:float ->
  ?seed:int ->
  ?timeout_s:float ->
  endpoints:endpoint list ->
  Protocol.request ->
  (Protocol.response, string) result
(** Try each endpoint in order; on transport failure move to the next
    ([cluster.failovers]), and when every endpoint failed sleep an
    exponentially growing backoff with deterministic jitter from [seed]
    and start over, up to [retries] extra attempts ([cluster.client_retries]).

    Any *decoded* response — [Scheduled], [Rejected], [Failed] — is a
    terminal outcome from a live server and is returned without retrying:
    retrying a typed rejection would defeat the server's calibrated
    backpressure. A response frame that fails to decode (protocol
    version/magic mismatch, deterministic corruption) is equally
    terminal — it is a permanent property of the server, so it is returned
    as [Error] immediately instead of burning retries and backoff. Only
    transport failures (refused/reset/timed-out connections, torn
    frames, read timeouts) are retried. [Error] carries the concatenated
    per-endpoint transport errors of every attempt. *)
