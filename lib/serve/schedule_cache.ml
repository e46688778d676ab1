(* The certified schedule cache: bounded LRU partitions (shards) with
   optional on-disk persistence, one lock per shard.

   Each shard's memory tier is an exact LRU: a hash table from canonical
   fingerprint to an intrusive doubly-linked node, list head = most
   recently used. Everything this process solved or verified lives here
   and is served as-is.

   The disk tier is trust-but-verify. A file is only evidence, never
   authority: on a disk probe the record must (1) carry the exact canonical
   fingerprint of the request — the file name is just a hash, and hashes
   can collide or files can be stale; (2) describe the same layer shape;
   and (3) pass the exact-arithmetic mapping certificate against the
   requested architecture. Anything else — unreadable file, parse error,
   key mismatch, failed certificate — counts as [disk_rejects] and falls
   through to a miss, so a corrupted cache directory can cost a re-solve
   but can never crash the service or serve an invalid schedule.

   Every operation runs under its shard's mutex, so any domain or thread
   may probe and store, and probes of different shards never contend.
   Placement is content-addressed and deterministic: the first 8 hex
   characters of the fingerprint's FNV-1a hash, mod the shard count. The
   same fingerprint lands on the same shard on every host for the life of
   the deployment, which lets tests and peers predict placement and lets
   per-shard hit rates feed admission with the rate of the partition a
   request will actually hit. With one shard (the default) records live in
   [dir] itself; with N they live in [dir/shard-NN], each shard recovering
   on its own, so a corrupted shard directory costs re-solves for that
   shard's keys only. *)

type entry = { meta : Mapping_io.meta; mapping : Mapping.t }

(* Telemetry mirrors of the per-shard [stats] records, aggregated across
   every cache instance in the process so `--metrics` sees one table. *)
let m_hit_mem = Telemetry.Metrics.counter "serve.cache.hit_mem"
let m_hit_disk = Telemetry.Metrics.counter "serve.cache.hit_disk"
let m_miss = Telemetry.Metrics.counter "serve.cache.miss"
let m_disk_reject = Telemetry.Metrics.counter "serve.cache.disk_reject"
let m_eviction = Telemetry.Metrics.counter "serve.cache.eviction"
let m_store = Telemetry.Metrics.counter "serve.cache.store"

type stats = {
  mutable hits : int;  (* memory hits *)
  mutable disk_hits : int;  (* disk probes that verified and were promoted *)
  mutable misses : int;  (* full misses, after any disk probe *)
  mutable disk_rejects : int;  (* unreadable/stale/uncertified disk records *)
  mutable evictions : int;
  mutable stores : int;
}

type node = {
  key : string;  (* Fingerprint.canon *)
  file_stem : string;  (* Fingerprint.hash *)
  mutable value : entry;
  mutable prev : node option;  (* toward head (more recent) *)
  mutable next : node option;  (* toward tail (less recent) *)
}

type shard = {
  lock : Mutex.t;
  capacity : int;
  dir : string option;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  stats : stats;
  g_rate : Telemetry.Metrics.gauge;  (* cluster.shard.NN.hit_rate *)
}

type t = shard array

(* Orphaned temp files are the droppings of a writer that crashed between
   opening its temp file and renaming it into place. They are never read
   back (loads go by the ".cosa" name), but a restart sweeps them so a
   crash loop cannot fill the directory. [max_age_s <= 0.] sweeps every
   temp file; a positive threshold spares young ones, protecting the
   in-flight writes of a live writer sharing the directory (two daemons,
   or a writer racing a restart). *)
let sweep_stale_tmp ~max_age_s dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    let now = Unix.gettimeofday () in
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".tmp" then begin
          let path = Filename.concat dir name in
          let stale =
            max_age_s <= 0.
            ||
            match Unix.stat path with
            | st -> now -. st.Unix.st_mtime >= max_age_s
            | exception Unix.Unix_error _ -> false
          in
          if stale then try Sys.remove path with Sys_error _ -> ()
        end)
      names

let mkdir d =
  if not (Sys.file_exists d) then try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()

let zero_stats () =
  { hits = 0; disk_hits = 0; misses = 0; disk_rejects = 0; evictions = 0; stores = 0 }

let create ?dir ?(tmp_sweep_age_s = 0.) ?(shards = 1) ~capacity () =
  let invalid msg =
    raise (Robust.Failure.Error (Invalid_input ("Schedule_cache.create: " ^ msg)))
  in
  if shards < 1 then invalid "shards < 1";
  if capacity < shards then
    invalid (if shards = 1 then "capacity < 1" else "capacity < shards");
  (* the shard subdirectories need the base directory to exist first *)
  Option.iter mkdir dir;
  let per_shard = (capacity + shards - 1) / shards in
  Array.init shards (fun i ->
      let dir =
        if shards = 1 then dir
        else Option.map (fun d -> Filename.concat d (Printf.sprintf "shard-%02d" i)) dir
      in
      Option.iter
        (fun d ->
          mkdir d;
          sweep_stale_tmp ~max_age_s:tmp_sweep_age_s d)
        dir;
      {
        lock = Mutex.create ();
        capacity = per_shard;
        dir;
        tbl = Hashtbl.create (2 * per_shard);
        head = None;
        tail = None;
        stats = zero_stats ();
        g_rate = Telemetry.Metrics.gauge (Printf.sprintf "cluster.shard.%02d.hit_rate" i);
      })

let shard_count t = Array.length t

(* Deterministic content-addressed placement: high 32 bits of the
   fingerprint hash, mod shard count. *)
let shard_index t fp =
  int_of_string ("0x" ^ String.sub (Fingerprint.hash fp) 0 8) mod Array.length t

let rate_of st =
  let served = st.hits + st.disk_hits in
  let total = served + st.misses in
  if total = 0 then 0. else float_of_int served /. float_of_int total

(* ---- intrusive LRU list ---------------------------------------------- *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let touch s n =
  match s.head with
  | Some h when h == n -> ()
  | _ ->
    unlink s n;
    push_front s n

let evict_lru s =
  match s.tail with
  | None -> ()
  | Some n ->
    unlink s n;
    Hashtbl.remove s.tbl n.key;
    s.stats.evictions <- s.stats.evictions + 1;
    Telemetry.Metrics.incr m_eviction

(* Insert or refresh a memory entry (no disk traffic, no stats). *)
let insert s fp entry =
  let key = Fingerprint.canon fp in
  match Hashtbl.find_opt s.tbl key with
  | Some n ->
    n.value <- entry;
    touch s n
  | None ->
    if Hashtbl.length s.tbl >= s.capacity then evict_lru s;
    let n =
      { key; file_stem = Fingerprint.hash fp; value = entry; prev = None; next = None }
    in
    Hashtbl.add s.tbl key n;
    push_front s n

(* ---- disk tier -------------------------------------------------------- *)

(* First line frames the record with the full canonical fingerprint; the
   rest is a [Mapping_io] provenance record. *)
let key_prefix = "key "

(* Crash-safe record write: the full frame goes to a writer-unique temp
   file, is flushed and fsynced, and only then renamed into place. A crash
   at any instant leaves either the old record or the new one — never a
   truncated frame for trust-but-verify to burn a reject on. The temp name
   carries the pid and a process-local sequence number so concurrent
   writers (two daemons sharing a cache directory, a writer racing a
   drain-time [persist]) can never interleave bytes in one temp file. *)
let tmp_seq = Atomic.make 0

let disk_write s ~stem ~canon entry =
  match s.dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (stem ^ ".cosa") in
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    (try
       let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
       let oc = Unix.out_channel_of_descr fd in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () ->
           output_string oc (key_prefix ^ canon ^ "\n");
           output_string oc (Mapping_io.record_to_string entry.meta entry.mapping);
           flush oc;
           Unix.fsync fd);
       Sys.rename tmp path
     with Sys_error _ | Unix.Unix_error _ ->
       (try Sys.remove tmp with Sys_error _ -> ()))

(* A disk probe that verifies before serving; any failure is a reject. *)
let disk_load s ~arch ~layer fp =
  match s.dir with
  | None -> None
  | Some dir ->
    let path = Filename.concat dir (Fingerprint.hash fp ^ ".cosa") in
    if not (Sys.file_exists path) then None
    else begin
      let reject () =
        s.stats.disk_rejects <- s.stats.disk_rejects + 1;
        Telemetry.Metrics.incr m_disk_reject;
        None
      in
      let parsed =
        try
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let text = really_input_string ic (in_channel_length ic) in
              match String.index_opt text '\n' with
              | Some i
                when String.length text > String.length key_prefix
                     && String.sub text 0 (String.length key_prefix) = key_prefix ->
                let canon = String.sub text (String.length key_prefix)
                    (i - String.length key_prefix)
                in
                let rest = String.sub text (i + 1) (String.length text - i - 1) in
                Some (canon, Mapping_io.record_of_string rest)
              | _ -> None)
        with _ -> None (* unreadable or truncated: reject, never crash *)
      in
      match parsed with
      | None | Some (_, Error _) -> reject ()
      | Some (canon, Ok (meta, mapping)) ->
        if canon <> Fingerprint.canon fp then reject () (* collision or stale *)
        else if Layer.key mapping.Mapping.layer <> Layer.key layer then reject ()
        else begin
          (* trust-but-verify: re-certify against the *requested*
             architecture in exact arithmetic before serving *)
          match Certify.Mapping_cert.check arch mapping with
          | Certify.Certificate.Certified ->
            s.stats.disk_hits <- s.stats.disk_hits + 1;
            Telemetry.Metrics.incr m_hit_disk;
            insert s fp { meta; mapping };
            Some { meta; mapping }
          | Certify.Certificate.Violated _ | (exception Robust.Failure.Error _) ->
            reject ()
        end
    end

(* ---- public API ------------------------------------------------------- *)

type tier = Memory | Disk

(* Run [f] on the fingerprint's owner shard under its lock, then refresh
   the shard's hit-rate gauge. *)
let with_shard t fp f =
  let s = t.(shard_index t fp) in
  Mutex.protect s.lock (fun () ->
      let r = f s in
      Telemetry.Metrics.set_gauge s.g_rate (rate_of s.stats);
      r)

(* [count_miss:false] is the fast-path/peek probe: a daemon connection
   thread peeks the cache before queueing, and the solver path re-probes
   on a miss — counting both would book two misses per request, deflating
   the hit-rate windows admission prices against. Hits (and disk rejects,
   which are real evidence of corruption) always count. *)
let find ?(count_miss = true) t ~arch ~layer fp =
  with_shard t fp (fun s ->
      match Hashtbl.find_opt s.tbl (Fingerprint.canon fp) with
      | Some n ->
        s.stats.hits <- s.stats.hits + 1;
        Telemetry.Metrics.incr m_hit_mem;
        touch s n;
        Some (n.value, Memory)
      | None ->
        (match disk_load s ~arch ~layer fp with
         | Some entry -> Some (entry, Disk)
         | None ->
           if count_miss then begin
             s.stats.misses <- s.stats.misses + 1;
             Telemetry.Metrics.incr m_miss
           end;
           None))

let store t fp entry =
  with_shard t fp (fun s ->
      s.stats.stores <- s.stats.stores + 1;
      Telemetry.Metrics.incr m_store;
      insert s fp entry;
      disk_write s ~stem:(Fingerprint.hash fp) ~canon:(Fingerprint.canon fp) entry)

(* Fold [f] over one shard's nodes, most recent first, under its lock. *)
let fold_lru s f init =
  let rec go acc = function None -> acc | Some n -> go (f acc n) n.next in
  Mutex.protect s.lock (fun () -> go init s.head)

(* Drain hook: rewrite every in-memory entry to disk (each write is
   individually crash-safe), so a graceful shutdown leaves the directory
   holding everything this process learned — including entries stored
   before a crash of a *previous* incarnation that this one re-verified
   and promoted. Returns the number of records written. *)
let persist t =
  Array.fold_left
    (fun acc s ->
      if s.dir = None then acc
      else
        fold_lru s
          (fun n node ->
            disk_write s ~stem:node.file_stem ~canon:node.key node.value;
            n + 1)
          acc)
    0 t

let length t =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.tbl))
    0 t

let lru_keys t =
  Array.to_list t
  |> List.concat_map (fun s -> List.rev (fold_lru s (fun acc n -> n.file_stem :: acc) []))

let shard_stats t i =
  let s = t.(i) in
  Mutex.protect s.lock (fun () -> { s.stats with hits = s.stats.hits })

(* Aggregated counters across shards, as a fresh (non-shared) record. *)
let stats t =
  let agg = zero_stats () in
  Array.iteri
    (fun i _ ->
      let st = shard_stats t i in
      agg.hits <- agg.hits + st.hits;
      agg.disk_hits <- agg.disk_hits + st.disk_hits;
      agg.misses <- agg.misses + st.misses;
      agg.disk_rejects <- agg.disk_rejects + st.disk_rejects;
      agg.evictions <- agg.evictions + st.evictions;
      agg.stores <- agg.stores + st.stores)
    t;
  agg

let hit_rate t = rate_of (stats t)
let shard_hit_rate t i = rate_of (shard_stats t i)

let counters_json st =
  Printf.sprintf
    "\"hits\":%d,\"disk_hits\":%d,\"misses\":%d,\"disk_rejects\":%d,\
     \"evictions\":%d,\"stores\":%d"
    st.hits st.disk_hits st.misses st.disk_rejects st.evictions st.stores

(* Per-shard counters as a JSON array — the ["shards"] section of the
   daemon's Stats frame. Read-only: copies each shard's counters under its
   own lock, books nothing. *)
let stats_json t =
  "["
  ^ String.concat ","
      (List.init (Array.length t) (fun i ->
           let st = shard_stats t i in
           Printf.sprintf "{\"shard\":%d,%s,\"hit_rate\":%.4f}" i (counters_json st)
             (rate_of st)))
  ^ "]"
