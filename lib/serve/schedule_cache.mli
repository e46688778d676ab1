(** The certified schedule cache: bounded LRU shards with optional on-disk
    persistence, safe to probe and store from any domain or thread.

    Fingerprints are placed on one of [shards] partitions by content
    (high 32 bits of the fingerprint hash mod the shard count), so the same
    request lands on the same shard on every host. Each shard is an exact
    least-recently-used cache behind its own mutex; probes of different
    shards never contend. Each shard publishes its hit rate as the
    [cluster.shard.NN.hit_rate] gauge.

    The disk tier, enabled by [create ~dir], is trust-but-verify: a disk
    record is served only after its framed canonical fingerprint matches
    the request, its layer shape matches, and the mapping passes
    {!Certify.Mapping_cert} against the requested architecture in exact
    arithmetic. Unreadable, stale, colliding or uncertifiable records count
    as [disk_rejects] and behave as misses — a corrupted cache directory
    can cost a re-solve, never a crash or an invalid schedule. With one
    shard, records live in [dir] itself; with N shards, in [dir/shard-NN],
    and each shard recovers independently. *)

type entry = { meta : Mapping_io.meta; mapping : Mapping.t }

type stats = {
  mutable hits : int;  (** memory hits *)
  mutable disk_hits : int;  (** verified disk records, promoted to memory *)
  mutable misses : int;  (** full misses (after any disk probe) *)
  mutable disk_rejects : int;  (** disk records rejected by framing/certification *)
  mutable evictions : int;
  mutable stores : int;
}

type t

type tier = Memory | Disk

val create :
  ?dir:string -> ?tmp_sweep_age_s:float -> ?shards:int -> capacity:int -> unit -> t
(** [shards] defaults to 1; total [capacity] is split evenly (rounded up)
    across them. Raises [Robust.Failure.Error (Invalid_input _)] when
    [shards < 1] or [capacity < shards]. [dir] (and any shard
    subdirectories) is created if missing; persistence failures are silent
    (best-effort disk tier). [tmp_sweep_age_s] bounds the stale-temp-file
    sweep performed on creation: temp files younger than the threshold are
    spared (they may belong to a live writer sharing the directory). The
    default [0.] sweeps every temp file. *)

val shard_count : t -> int

val shard_index : t -> Fingerprint.t -> int
(** Deterministic owner shard of a fingerprint. *)

val find :
  ?count_miss:bool ->
  t ->
  arch:Spec.t ->
  layer:Layer.t ->
  Fingerprint.t ->
  (entry * tier) option
(** Probe the owning shard under its lock: memory first (promotes to
    most-recent), then disk with verification (promotes into memory).
    Updates {!stats}. [count_miss:false] (default [true]) suppresses miss
    accounting — for peek-style probes that will be re-probed on the
    authoritative path, so hit-rate windows see one miss per request, not
    one per probe. Hits and disk rejects always count. *)

val store : t -> Fingerprint.t -> entry -> unit
(** Insert as most-recent, evicting the shard's LRU entry at capacity, and
    persist to disk when configured. Disk writes are crash-safe: the framed
    record goes to a writer-unique temp file, is fsynced, and is renamed
    into place, so a crash at any instant leaves either the previous record
    or the complete new one — never a truncated frame. Stale temp files
    from crashed writers are swept on {!create}. *)

val persist : t -> int
(** Rewrite every in-memory entry to disk (each write individually
    crash-safe, each shard under its own lock) and return the number of
    records written; 0 without a [dir]. The daemon's graceful-drain hook. *)

val length : t -> int

val stats : t -> stats
(** Aggregated across shards (a fresh record, not shared state). *)

val shard_stats : t -> int -> stats
(** A copy of one shard's counters. *)

val hit_rate : t -> float
(** Served-from-cache fraction of all counted {!find} calls so far, in
    [0;1]. *)

val shard_hit_rate : t -> int -> float

val counters_json : stats -> string
(** The six counters as JSON object members, without braces:
    ["hits":H,"disk_hits":D,"misses":M,"disk_rejects":R,"evictions":E,"stores":S]. *)

val stats_json : t -> string
(** Per-shard counters and hit rates as a JSON array ([shard], the six
    counters, [hit_rate]) — the ["shards"] section of the daemon's Stats
    frame. Read-only: books no misses. *)

val lru_keys : t -> string list
(** File stems (fingerprint hashes), shard by shard, most recently used
    first within a shard — exposed for tests asserting eviction order. *)
