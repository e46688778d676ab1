(** Plain-text serialisation of schedules, so mappings can be saved from
    one run (e.g. `cosa_cli schedule --save`) and re-evaluated or compared
    later without re-solving.

    Format (one record per file, line-oriented):
    {v
    layer <name> r=3 s=3 p=14 q=14 c=256 k=256 n=1 stride=1
    level 0 temporal P:4,Q:4 spatial K:8
    level 1
    ...
    v} *)

val to_string : Mapping.t -> string

val of_string : string -> (Mapping.t, string) result
(** Parses {!to_string} output. Returns [Error reason] on malformed input;
    the parsed mapping is structurally checked (level indices contiguous
    from 0, bounds positive) but not validated against any architecture —
    use {!Mapping.validate} for that. *)

val save : string -> Mapping.t -> unit
(** Write to a file. Raises [Sys_error] on I/O failure. *)

val load : string -> (Mapping.t, string) result

(** {2 Provenance-carrying records}

    A record is a mapping preceded by optional [@key value] metadata lines
    describing where the schedule came from: the objective weights and
    strategy it was solved under, the degradation-ladder rung
    ([Cosa.source] rendered as text), the certification verdict, the
    objective breakdown, and the solve time. Floats are serialised as C99
    hex literals, so every finite value round-trips bit-exactly — the
    property safe cache persistence depends on.

    {v
    @weights 0x1p-1 0x1p+2 0x1.8p+1
    @strategy auto
    @source joint MIP
    @certification ok
    @objective 0x1.4p+3 0x1.1p+5 0x1.8p+4 0x1.9p+5
    @solve-time 0x1.2p-3
    layer <name> r=3 s=3 ...
    level 0 ...
    v} *)

type meta = {
  weights : (float * float * float) option;  (** w_util, w_comp, w_traf *)
  strategy : string;  (** e.g. ["auto"], ["joint"], ["two-stage"] *)
  source : string;  (** degradation-ladder rung, e.g. ["joint MIP"] *)
  verdict : string;  (** certification verdict, e.g. ["ok"] / ["failed"] *)
  objective : (float * float * float * float) option;
      (** util, comp, traf, total (Eq. 12 breakdown) *)
  solve_time : float;  (** seconds; 0 when unknown *)
}

val default_meta : meta
(** All-absent metadata ([None]/[""]/[0.]); what a bare mapping file (the
    pre-record format) parses to, so old files stay loadable. *)

val record_to_string : meta -> Mapping.t -> string

val record_of_string : ?pos:int -> string -> (meta * Mapping.t, string) result
(** Parses the bytes of the string from [pos] (default 0) on, as a
    string holding only them. Absent metadata lines leave the
    corresponding {!default_meta} field; malformed or unknown [@] lines
    are an [Error] (corruption must be detected, not silently dropped).
    No text makes it raise; it raises [Invalid_argument] only when [pos]
    is outside [0, String.length text]. *)

val save_record : string -> meta -> Mapping.t -> unit
val load_record : string -> (meta * Mapping.t, string) result
