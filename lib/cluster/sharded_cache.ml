(* Former name of the sharded schedule cache, now folded into
   [Serve.Schedule_cache]. Kept only for the repository benchmark under
   bench/perf, which still uses this path; new code uses
   [Serve.Schedule_cache] directly. *)

include Serve.Schedule_cache

let tier t = t
