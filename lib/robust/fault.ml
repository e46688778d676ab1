(* Deterministic, seed-driven fault injection. Production code is sprinkled
   with named injection points ([check "simplex.pivot"] etc.); when the
   harness is disarmed — the default — a point is a single ref dereference
   and match, so the instrumentation is effectively free. When armed with a
   seed and a rate, each visit to a site draws from a per-site SplitMix64
   stream derived from (seed, site), so a given seed always fires the same
   faults at the same visit counts regardless of wall-clock timing.

   The plan is shared process state mutated from every domain that visits
   an injection point — the service pool solves layers on spawned domains
   with the same plan armed — so all plan mutation ([streams], [visits],
   [log] and the RNG draws inside the site streams) happens under the
   plan's mutex. The disarmed fast path stays a single ref load: the lock
   is only ever touched while armed. Per-site visit counts remain
   deterministic for a given seed; which *task* observes a given visit of
   a shared site depends on domain interleaving, as any shared counter
   must. *)

type plan = {
  seed : int;
  rate : float;
  only : string list; (* restrict to these sites; [] = all sites *)
  streams : (string, Prim.Rng.t) Hashtbl.t;
  visits : (string, int) Hashtbl.t;
  mutable log : (string * int) list; (* (site, visit index) of fired faults, newest first *)
  lock : Mutex.t;
}

let state : plan option ref = ref None

let arm ?(rate = 0.05) ?(only = []) seed =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Robust.Fault.arm: rate must be in [0, 1]";
  state :=
    Some
      {
        seed;
        rate;
        only;
        streams = Hashtbl.create 16;
        visits = Hashtbl.create 16;
        log = [];
        lock = Mutex.create ();
      }

let disarm () = state := None

let armed () = !state <> None

(* Visit the injection point [site]; true means the fault fires. *)
let fire site =
  match !state with
  | None -> false
  | Some p ->
    if p.only <> [] && not (List.mem site p.only) then false
    else
      Mutex.protect p.lock (fun () ->
          let n = try Hashtbl.find p.visits site with Not_found -> 0 in
          Hashtbl.replace p.visits site (n + 1);
          let rng =
            try Hashtbl.find p.streams site
            with Not_found ->
              let r = Prim.Rng.create (p.seed lxor Hashtbl.hash site) in
              Hashtbl.add p.streams site r;
              r
          in
          let hit = Prim.Rng.float rng 1. < p.rate in
          if hit then p.log <- (site, n) :: p.log;
          hit)

let check site = if fire site then Error (Failure.Injected site) else Ok ()

(* Chronological (site, visit index) list of faults fired since arming. *)
let fired () =
  match !state with
  | None -> []
  | Some p -> Mutex.protect p.lock (fun () -> List.rev p.log)

let fired_count () =
  match !state with
  | None -> 0
  | Some p -> Mutex.protect p.lock (fun () -> List.length p.log)

(* Run [f] with faults armed, disarming afterwards even on exceptions. *)
let with_faults ?rate ?only seed f =
  arm ?rate ?only seed;
  Fun.protect ~finally:disarm f
