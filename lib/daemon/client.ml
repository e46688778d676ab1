(* Client side of the daemon protocol: connect, exchange one frame per
   request, close. Blocking, with an optional receive timeout so a hung
   server surfaces as a typed error rather than a wedged client.

   [request_failover] is the multi-endpoint entry point: bounded retries
   with exponential backoff + deterministic jitter across a list of
   endpoints. The retry discipline is strict about what a "failure" is —
   any decoded response (Scheduled, Rejected, Failed) is a *terminal*
   outcome from a live server and is returned as-is, and so is a
   response that decodes to a protocol error (a version/magic mismatch
   is permanent, not transient); only transport failures (connect
   refused/timed out, reset, torn frame, read timeout) burn a retry and
   move to the next endpoint. Retrying a typed rejection would turn the
   server's calibrated backpressure into an accidental DoS. *)

let m_retries = Telemetry.Metrics.counter "cluster.client_retries"
let m_failovers = Telemetry.Metrics.counter "cluster.failovers"

type endpoint = Unix_path of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* "host:port" with a numeric port and no '/' parses as TCP; anything else
   is a Unix socket path (paths may legitimately contain ':', but then
   they contain '/' too in practice). *)
let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 && not (String.contains s '/') ->
    (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
     | Some port when port > 0 && port < 65536 -> Tcp (String.sub s 0 i, port)
     | _ -> Unix_path s)
  | _ -> Unix_path s

type t = { fd : Unix.file_descr }

let addr_of_endpoint = function
  | Unix_path path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    (match Unix.inet_addr_of_string host with
     | a -> Ok (Unix.ADDR_INET (a, port))
     | exception Failure _ ->
       (match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Error (Printf.sprintf "cannot resolve host %S" host)
        | he -> Ok (Unix.ADDR_INET (he.Unix.h_addr_list.(0), port))))

(* Bounded connect. [Unix.connect] on a blocking socket is bounded only
   by the kernel's own timeout (~minutes for a black-holed TCP endpoint),
   which would stall a failover walk on one dead endpoint for that long
   before it tried the next. So under a timeout the socket goes
   non-blocking for the connect itself (EINPROGRESS, then select bounded
   by the remaining budget, then the pending SO_ERROR), and back to
   blocking for the exchange. *)
let connect_bounded fd addr timeout_s =
  Unix.set_nonblock fd;
  let connected () =
    Unix.clear_nonblock fd;
    Ok ()
  in
  match Unix.connect fd addr with
  | () -> connected ()
  | exception
      Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
    let deadline = Robust.Deadline.now () +. timeout_s in
    let rec wait () =
      let remaining = deadline -. Robust.Deadline.now () in
      if remaining <= 0. then Error Unix.ETIMEDOUT
      else
        match Unix.select [] [ fd ] [ fd ] remaining with
        | [], [], [] -> Error Unix.ETIMEDOUT
        | _ ->
          (match Unix.getsockopt_error fd with
           | None -> connected ()
           | Some e -> Error e)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  | exception Unix.Unix_error (e, _, _) -> Error e

let connect_ep ?(timeout_s = 0.) ep =
  match addr_of_endpoint ep with
  | Error _ as e -> e
  | Ok addr ->
    let domain = match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    let connected =
      if timeout_s > 0. then connect_bounded fd addr timeout_s
      else
        match Unix.connect fd addr with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) -> Error e
    in
    (match connected with
     | Ok () ->
       (match addr with
        | Unix.ADDR_INET _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
        | _ -> ());
       if timeout_s > 0. then begin
         (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s
          with Unix.Unix_error _ -> ());
         (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
          with Unix.Unix_error _ -> ())
       end;
       Ok { fd }
     | Error e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Error
         (Printf.sprintf "connect %s: %s" (endpoint_to_string ep) (Unix.error_message e)))

let connect ?timeout_s path = connect_ep ?timeout_s (Unix_path path)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* The retry discipline needs to know *why* an exchange failed. A
   [Transport] failure (refused/reset connection, torn frame, read
   timeout) may be a transient network event and is worth a retry or a
   failover. A [Protocol_error] — a complete, well-framed payload that
   does not decode, which is how a version/magic mismatch between
   deployments surfaces — is a permanent property of the server: every
   retry against every endpoint of that deployment would fail the same
   way, so it must be returned immediately as terminal. *)
type wire_error = Transport of string | Protocol_error of string

let wire_error_message = function Transport m | Protocol_error m -> m

let request_wire t req =
  match Protocol.write_frame t.fd (Protocol.encode_request req) with
  | () ->
    (match Protocol.read_frame t.fd with
     | Ok (Some payload) ->
       (match Protocol.decode_response payload with
        | Ok resp -> Ok resp
        | Error msg -> Error (Protocol_error msg))
     | Ok None -> Error (Transport "server closed the connection")
     | Error msg -> Error (Transport msg)
     | exception Unix.Unix_error (e, _, _) -> Error (Transport (Unix.error_message e)))
  | exception Unix.Unix_error (e, _, _) -> Error (Transport (Unix.error_message e))

let request t req = Result.map_error wire_error_message (request_wire t req)

let one_shot_wire ?timeout_s ep req =
  match connect_ep ?timeout_s ep with
  | Error msg -> Error (Transport msg)
  | Ok t ->
    let r = request_wire t req in
    close t;
    r

let one_shot_ep ?timeout_s ep req =
  Result.map_error wire_error_message (one_shot_wire ?timeout_s ep req)

(* Connect, send one request, close — the CLI's path. *)
let one_shot ?timeout_s path req = one_shot_ep ?timeout_s (Unix_path path) req

(* Stats queries ride the same framing as requests; the server answers
   inline on the connection thread without queueing or counting them. *)
let stats_wire t scope =
  match Protocol.write_frame t.fd (Protocol.encode_stats_request scope) with
  | () ->
    (match Protocol.read_frame t.fd with
     | Ok (Some payload) ->
       (match Protocol.decode_response payload with
        | Ok (Protocol.Stats s) -> Ok s
        | Ok _ -> Error (Protocol_error "expected a stats response")
        | Error msg -> Error (Protocol_error msg))
     | Ok None -> Error (Transport "server closed the connection")
     | Error msg -> Error (Transport msg)
     | exception Unix.Unix_error (e, _, _) -> Error (Transport (Unix.error_message e)))
  | exception Unix.Unix_error (e, _, _) -> Error (Transport (Unix.error_message e))

let stats t scope = Result.map_error wire_error_message (stats_wire t scope)

let stats_ep ?timeout_s ep scope =
  match connect_ep ?timeout_s ep with
  | Error msg -> Error msg
  | Ok t ->
    let r = stats t scope in
    close t;
    r

(* Bounded retry with exponential backoff + jitter over an endpoint list.
   Endpoints are tried round-robin starting from the head; backoff doubles
   per full *attempt* (not per endpoint) and carries deterministic jitter
   from [seed] so tests replay exactly. [retries] counts extra attempts
   beyond the first, each attempt walking every endpoint once. *)
let request_failover ?(retries = 2) ?(backoff_s = 0.05) ?(backoff_max_s = 2.)
    ?(jitter = 0.5) ?(seed = 0) ?timeout_s ~endpoints req =
  if endpoints = [] then Error "request_failover: no endpoints"
  else begin
    let rng = Prim.Rng.create (seed lxor 0x5eed_c11e) in
    let errs = ref [] in
    let note ep msg =
      errs := Printf.sprintf "%s: %s" (endpoint_to_string ep) msg :: !errs
    in
    let rec attempt k backoff =
      let rec walk = function
        | [] -> `All_failed
        | ep :: rest ->
          (match one_shot_wire ?timeout_s ep req with
           | Ok resp -> `Done resp
           | Error (Protocol_error msg) ->
             (* a well-framed response that does not decode: the server
                speaks a different protocol (version/magic mismatch) or
                is corrupting frames deterministically. Retrying cannot
                help — surface it now instead of burning every retry and
                backoff against every endpoint. *)
             `Terminal
               (Printf.sprintf "%s: protocol error (not retried): %s"
                  (endpoint_to_string ep) msg)
           | Error (Transport msg) ->
             note ep msg;
             (* moving on to another endpoint after a transport failure *)
             if rest <> [] then Telemetry.Metrics.incr m_failovers;
             walk rest)
      in
      match walk endpoints with
      | `Done resp -> Ok resp
      | `Terminal msg -> Error msg
      | `All_failed ->
        if k >= retries then
          Error
            (Printf.sprintf "all endpoints failed after %d attempts: %s" (k + 1)
               (String.concat "; " (List.rev !errs)))
        else begin
          Telemetry.Metrics.incr m_retries;
          let sleep = backoff *. (1. +. (jitter *. Prim.Rng.float rng 1.)) in
          if sleep > 0. then Thread.delay sleep;
          attempt (k + 1) (Float.min backoff_max_s (backoff *. 2.))
        end
    in
    attempt 0 backoff_s
  end
