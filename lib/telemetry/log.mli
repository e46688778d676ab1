(** Structured, leveled, rate-limited JSONL event log.

    The daemon's operational narrative — starts, serves, rejections,
    reaped connections, drains — as one JSON object per line:

    {v
    {"ts":1754700000.123456,"level":"info","event":"daemon.serve",
     "req":"00a3f2...","target":"layer:3_56_64_64_1"}
    v}

    Disabled ([Null], the default) is the steady state: each entry point
    is a single atomic load and a branch, with no allocation, clock read
    or lock, so call sites stay on hot paths unconditionally. This gate
    is separate from [Sink.enabled] — an operator can arm the event log
    without paying for span tracing, and vice versa.

    When armed, lines are written under a mutex (concurrent domains and
    systhreads never interleave bytes) and each event name is
    rate-limited by a token bucket; dropped lines are counted and the
    count is attached to the next emitted line for that event as a
    ["suppressed"] field, so a log storm degrades into a summary instead
    of an unbounded file.

    Calls made inside [Trace.with_request] are tagged with the bound
    request id (["req"], 16-hex-digit) and hop count automatically. *)

type level = Debug | Info | Warn | Error
type output = Null | Stderr | File of string | Memory

val set : ?level:level -> ?rate_limit:int * float -> output -> unit
(** Install an output and arm/disarm the log. [level] (default [Info])
    is the minimum emitted level. [rate_limit] is [(burst, per_second)]
    per event name (default [20, 50.]). [File p] appends, creating the
    file if needed; [Memory] captures lines for {!captured} (tests).
    Resets the memory capture, rate-limit state and {!suppressed_total}. *)

val enabled : unit -> bool
(** One atomic load; true iff the output is not [Null]. *)

val debug : ?req:int64 -> string -> (string * string) list -> unit
val info : ?req:int64 -> string -> (string * string) list -> unit
val warn : ?req:int64 -> string -> (string * string) list -> unit

val error : ?req:int64 -> string -> (string * string) list -> unit
(** [info event fields] emits one line. [event] is a dotted name
    (["daemon.serve"], ["daemon.reap"]) that doubles as the
    rate-limit key; [fields] become string-valued JSON members. [req]
    overrides the ambient [Trace.current_request] binding. *)

val level_name : level -> string
val level_of_string : string -> level option

val captured : unit -> string list
(** Lines captured by the [Memory] output since the last {!set}, oldest
    first. *)

val suppressed_total : unit -> int
(** Lines dropped by the rate limiter since the last {!set}. *)
