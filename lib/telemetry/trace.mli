(** Hierarchical spans and instant events in an in-memory ring buffer.

    Timestamps come from [Robust.Deadline.now] (the pipeline's shared
    monotonic clock), relative to the trace epoch set by {!reset}. Spans
    are recorded as Chrome [trace_event] complete events ([ph:"X"]) when
    they end, so an exported trace is balanced by construction; each
    OCaml domain appears as its own pid/tid.

    {b Overwrite semantics.} The ring holds the most recent
    [Sink.ring_capacity ()] events (default 65536, configurable via
    [Sink.set ~ring_capacity] or the CLI [--trace-ring] flag). Appends
    never block and never fail: once the ring is full each new event
    replaces the oldest slot, so a long run exports a sliding window of
    the tail, not the whole history. {!recorded} keeps counting past the
    capacity, so [recorded () > capacity] tells you events were dropped.
    A separate per-span-name aggregate table (count, total duration)
    survives ring overwrite and feeds the [--profile] summary.

    Every entry point is a no-op while {!Sink.enabled} is false:
    {!begin_span} returns a static disabled token without reading the
    clock or allocating. *)

type span

val begin_span : ?cat:string -> string -> span
(** Start a span in category [cat] (default ["app"]). *)

val end_span : ?args:(string * string) list -> span -> unit
(** Finish a span, recording one complete event with optional string
    args. Ending a disabled or already-ended span is a no-op. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span ends even if [f]
    raises. When telemetry is disabled this is exactly [f ()]. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a point event (Chrome [ph:"i"]). *)

val with_request : id:int64 -> hop:int -> (unit -> 'a) -> 'a
(** Bind a request id (and origin hop count) to the calling systhread
    for the duration of [f]. Every event the thread records meanwhile is
    tagged with [("req", "%016Lx")] (and [("hop", n)] when [hop > 0]),
    and {!current_request} returns the binding — that is how the daemon
    threads one wire request id through solver spans, cache instants and
    event-log lines. Nests: the previous binding is restored when [f]
    returns or raises. Works with the sink disabled (the event log reads
    it too); only event tagging depends on the sink. *)

val current_request : unit -> (int64 * int) option
(** The calling thread's [(request id, hop)] binding, if inside
    {!with_request}. *)

val request_id_hex : int64 -> string
(** Canonical 16-digit lower-case hex rendering of a request id, as used
    in event tags, log lines and the flight recorder. *)

type event = {
  name : string;
  cat : string;
  ts : float;  (** seconds since the trace epoch *)
  dur : float;  (** seconds; 0 for instants *)
  complete : bool;  (** true for spans, false for instants *)
  pid : int;  (** OCaml domain id *)
  args : (string * string) list;
}

val events : unit -> event list
(** The ring's current contents, oldest first (at most [capacity]). *)

val recorded : unit -> int
(** Events recorded since the last {!reset}, including any the ring has
    overwritten. *)

val set_capacity : int -> unit
(** Resize the ring (clamped to >= 1024, recorded in
    [Sink.set_ring_capacity]) and clear it. Call before enabling
    collection; not safe concurrently with recorders. *)

val reset : unit -> unit
(** Clear the ring and the profile aggregates and re-arm the epoch. *)

val export_chrome : unit -> string
(** The ring as a Chrome [trace_event] JSON object
    ([{"traceEvents":[...]}], ts/dur in microseconds) loadable in
    [chrome://tracing] and Perfetto. *)

val export_jsonl : unit -> string
(** One event object per line, same fields as the Chrome export. *)

val write_file : string -> unit
(** Write the Chrome export to a path. *)

val flush : unit -> unit
(** If the sink is [File p], {!write_file} [p]; otherwise nothing. *)

val profile_entries : unit -> (string * int * float) list
(** [(name, count, total_seconds)] per span name, sorted by descending
    total; immune to ring overwrite. *)

val profile_summary : unit -> string
(** ASCII per-span wall-time table (the [--profile] report). *)

val json_escape : string -> string
(** JSON string-body escaping shared by the exporters (and by
    [Telemetry.Log] / [Telemetry.Export]). *)
