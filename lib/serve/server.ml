(* The planning daemon's engine: a bounded request queue in front of a
   team of worker domains, each holding a persistent Parsearch pool, with
   an LRU plan cache keyed on the α-renamed content fingerprint.

   Pipeline (DESIGN.md §13): parse → admission (bounded queue, typed
   [overloaded] rejection with a Fault-style exponential Retry-After
   hint) → set-up (computation and machine) → cache probe → search with
   a cooperative deadline token → degradation ladder (exact DP on a
   fraction of the budget, then beam search labelled [approximate], then
   the millisecond greedy seed, then [deadline_exceeded]) → reply. Trees
   and sums, square and node-aware machines all take this one path: the
   ladder's rungs are [Planner] strategies.
   Admin requests (health/stats/drain) bypass the queue so the daemon
   stays introspectable under saturation. A worker whose request raises
   unexpectedly answers a typed [worker_crashed] error, tears down and
   respawns its search pool, and keeps serving — the daemon never dies
   with a request. *)

module Search = Tce_core.Search
module Plan = Tce_core.Plan
module Planner = Tce_core.Planner
module Parsearch = Tce_core.Parsearch
module Parser = Tce_expr.Parser
module Problem = Tce_expr.Problem
module Opmin = Tce_opmin.Opmin
module Grid = Tce_grid.Grid
module Params = Tce_netmodel.Params
module Simulate = Tce_machine.Simulate
module Obs = Tce_obs.Obs
module Tce_error = Tce_util.Tce_error

let now () = Unix.gettimeofday ()

(* ---- configuration --------------------------------------------------- *)

type degrade_mode = [ `Auto | `Always | `Never ]

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  default_deadline_ms : float option;
  search_jobs : int;
  degrade : degrade_mode;
  exact_fraction : float;
  degrade_beam : int;
  retry_base_ms : float;
  retry_backoff : float;
  debug_ops : bool;
}

let default_config ?(workers = 2) ?(queue_capacity = 32) ?(cache_capacity = 128)
    ?default_deadline_ms ?(search_jobs = 1) ?(degrade = `Auto)
    ?(exact_fraction = 0.6) ?(degrade_beam = 4) ?(retry_base_ms = 25.0)
    ?(retry_backoff = 2.0) ?(debug_ops = false) () =
  if workers < 1 then invalid_arg "Server: workers must be >= 1";
  if queue_capacity < 1 then invalid_arg "Server: queue_capacity must be >= 1";
  if search_jobs < 1 then invalid_arg "Server: search_jobs must be >= 1";
  if not (exact_fraction > 0.0 && exact_fraction <= 1.0) then
    invalid_arg "Server: exact_fraction must be in (0, 1]";
  if degrade_beam < 1 then invalid_arg "Server: degrade_beam must be >= 1";
  if retry_backoff < 1.0 then invalid_arg "Server: retry_backoff must be >= 1";
  {
    workers;
    queue_capacity;
    cache_capacity;
    default_deadline_ms;
    search_jobs;
    degrade;
    exact_fraction;
    degrade_beam;
    retry_base_ms;
    retry_backoff;
    debug_ops;
  }

(* ---- server state ---------------------------------------------------- *)

type job = {
  req : Proto.request;
  reply : Json.t -> unit;
  enqueued_at : float;
  deadline_at : float option;  (* absolute wall time; queue wait counts *)
}

(* A cached plan travels with the computation it solved, so a hit on a
   tree can be renamed onto the request's intermediate names. *)
type cache_entry = Opmin.computation * Planner.plan

type t = {
  cfg : config;
  lock : Mutex.t;
  not_empty : Condition.t;
  idle : Condition.t;
  queue : job Queue.t;
  mutable draining : bool;
  mutable closed : bool;
  mutable inflight : int;
  mutable domains : unit Domain.t list;
  cache : cache_entry Cache.t;
  (* counters under [lock] *)
  mutable accepted : int;
  mutable rejected : int;
  mutable consecutive_rejections : int;
  mutable completed : int;
  mutable request_errors : int;
  mutable deadline_exceeded : int;
  mutable degraded : int;
  mutable greedy_seeded : int;
  mutable crashes : int;
  mutable ema_service_s : float;
  lat_all : Obs.Hist.t;
  lat_cold : Obs.Hist.t;
  lat_hit : Obs.Hist.t;
}

(* ---- request set-up ---------------------------------------------------- *)

(* Everything a work request needs before its cache probe: the parsed
   computation and the machine. A request the planner cannot serve as
   asked (e.g. a sum under a restricted fusion mode) is refused here, as
   an invalid request rather than a failed search. *)
let setup (w : Proto.work) =
  let ( let* ) = Result.bind in
  let expr r = Result.map_error (fun msg -> "expr: " ^ msg) r in
  let* problem = expr (Parser.parse w.Proto.expr) in
  let* comp = expr (Opmin.optimize_to_computation problem) in
  let* machine =
    Planner.of_request ?mem_gb:w.Proto.mem_gb ?mflops:w.Proto.mflops
      ?latency_us:w.Proto.latency_us ?bandwidth_mbs:w.Proto.bandwidth_mbs
      ?nodes:w.Proto.nodes ?intra_latency_us:w.Proto.intra_latency_us
      ?intra_bandwidth_mbs:w.Proto.intra_bandwidth_mbs
      ~topology:w.Proto.topology ~procs:w.Proto.procs ()
  in
  let* () =
    Planner.supports ~fusion:w.Proto.fusion machine Planner.Exact comp
  in
  Ok (problem.Problem.extents, comp, machine)

(* The plan-cache key: the α-renamed content fingerprint (a sum's keeps
   term names and carries a "sum|" prefix foreign to every tree's, so a
   sum and any one of its terms never collide) plus the machine. *)
let cache_key (w : Proto.work) machine ~ext comp =
  "v1|" ^ Planner.key ~fusion:w.Proto.fusion machine ~ext comp

let cache_key_of_work w =
  Result.map (fun (ext, comp, machine) -> cache_key w machine ~ext comp)
    (setup w)

(* A cache hit on a tree may carry different intermediate names; rename
   it onto this request's tree under the cached plan's own grid. The
   pathological leaf-clash case returns [None] and we recompute, same as
   the memo cache. A sum hit is byte-identical as stored. *)
let recall machine ext comp (cached_comp, plan) =
  match (cached_comp, comp, plan) with
  | Opmin.Single cached, Opmin.Single current, Planner.Tree p ->
    Option.map
      (fun p -> Planner.Tree p)
      (Search.rename_plan
         (Planner.config_of machine p.Plan.grid)
         ~ext ~cached ~current p)
  | Opmin.Summed _, Opmin.Summed _, (Planner.Sum _ as s) -> Some s
  | _ -> None

(* ---- request execution ------------------------------------------------ *)

let invalid ~id msg = Proto.error ~id ~kind:"invalid_request" ~message:msg []

let plan_fields (machine : Planner.machine) ext plan ~cached ~approximate =
  (* A shape-searching machine reports the grid it chose. *)
  (match Planner.topology machine with
  | Some _ ->
    [ ("grid", Json.Str (Format.asprintf "%a" Grid.pp (Planner.grid plan))) ]
  | None -> [])
  @ [ ("cached", Json.Bool cached); ("approximate", Json.Bool approximate) ]
  @
  match plan with
  | Planner.Tree p ->
    [
      ("comm_seconds", Json.Num (Plan.comm_cost p));
      ("compute_seconds", Json.Num (Plan.compute_seconds p));
      ("total_seconds", Json.Num (Plan.total_seconds p));
      ("flops", Json.Num (float_of_int p.Plan.flops));
      ("mem_per_node_bytes", Json.Num (Plan.mem_per_node_bytes p));
      ("steps", Json.Num (float_of_int (List.length p.Plan.steps)));
      ("plan", Json.Str (Format.asprintf "%a" Plan.pp p));
    ]
  | Planner.Sum s ->
    [
      ("sum", Json.Bool true);
      ("comm_seconds", Json.Num s.Plan.sum_comm_cost);
      ("compute_seconds", Json.Num (Plan.sum_compute_seconds s));
      ("total_seconds", Json.Num (Plan.sum_total_seconds s));
      ("flops", Json.Num (float_of_int s.Plan.sum_flops));
      ("mem_per_node_bytes", Json.Num (Plan.sum_mem_per_node_bytes ext s));
      ("terms", Json.Num (float_of_int (List.length s.Plan.terms)));
      ("shared_values", Json.Num (float_of_int (List.length s.Plan.shared)));
      ("plan", Json.Str (Format.asprintf "%a" (Plan.pp_sum ext) s));
    ]

(* Replay on the simulated cluster: (comm, compute, total) seconds. A
   sum's sub-plans execute one after another and the accumulation is
   local, so its times are additive: Σ over shared and term plans, plus
   the accumulation's compute time. *)
let simulate params ext = function
  | Planner.Tree p ->
    Result.map
      (fun (t : Simulate.timing) ->
        (t.Simulate.comm_seconds, t.compute_seconds, t.total_seconds))
      (Simulate.run_plan params ext p)
  | Planner.Sum s ->
    let acc_seconds =
      Params.compute_time params
        ~flops:
          (float_of_int s.Plan.acc_flops
          /. float_of_int (Grid.procs s.Plan.sum_grid))
    in
    let rec go comm compute = function
      | [] ->
        let compute = compute +. acc_seconds in
        Ok (comm, compute, comm +. compute)
      | p :: rest -> (
        match Simulate.run_plan params ext p with
        | Ok t ->
          go (comm +. t.Simulate.comm_seconds)
            (compute +. t.Simulate.compute_seconds)
            rest
        | Error e -> Error e)
    in
    go 0.0 0.0
      (List.map (fun (_, _, p) -> p) s.Plan.shared @ List.map snd s.Plan.terms)

let locked t f =
  Mutex.lock t.lock;
  f ();
  Mutex.unlock t.lock

(* The degradation ladder: exact DP on a fraction of the budget, then the
   beam-limited DP labelled [approximate], then the greedy seed. Returns
   the plan plus whether it is exact (cacheable) or approximate, or
   raises [Tce_error.Error (Deadline_exceeded _)] when even the fallbacks
   cannot finish inside the budget. *)
let ladder t pool machine ext comp (w : Proto.work) ~deadline_at =
  let run ?cancel strategy =
    Planner.solve ?cancel ?pool ~fusion:w.Proto.fusion machine strategy ext
      comp
  in
  let cancel_at d () = now () > d in
  let beam = Planner.Beam t.cfg.degrade_beam in
  let approx r = Result.map (fun p -> (p, true)) r in
  let exact r = Result.map (fun p -> (p, false)) r in
  (* The last rung: the milliseconds-scale greedy seed (a fusion-capped
     beam-1 DP; per term for a sum), so a request whose budget the beam
     search also blows still gets a valid, validator-certified plan
     labelled [approximate] instead of a bare deadline_exceeded. Only a
     deadline with almost nothing left can still fail here. *)
  let greedy_rung d =
    locked t (fun () -> t.greedy_seeded <- t.greedy_seeded + 1);
    Obs.count "serve.greedy_seeded";
    approx (run ~cancel:(cancel_at d) Planner.Greedy)
  in
  let beam_or_greedy d =
    (* The beam gets most of the remaining budget but not all of it: if
       it ran all the way to [d] before giving up, the greedy pass would
       be cancelled at its first checkpoint and the last rung could
       never return a plan. *)
    let t0 = now () in
    let beam_d = t0 +. (0.8 *. (d -. t0)) in
    match run ~cancel:(cancel_at beam_d) beam with
    | r -> approx r
    | exception Tce_error.Error (Tce_error.Deadline_exceeded _) ->
      greedy_rung d
  in
  match (t.cfg.degrade, deadline_at) with
  | `Never, None -> exact (run Planner.Exact)
  | `Never, Some d -> exact (run ~cancel:(cancel_at d) Planner.Exact)
  | `Always, None -> approx (run beam)
  | `Always, Some d -> beam_or_greedy d
  | `Auto, None -> exact (run Planner.Exact)
  | `Auto, Some d -> (
    (* Spend at most [exact_fraction] of the remaining budget on the
       exact search, keeping the rest in reserve for the beam fallback. *)
    let t0 = now () in
    let exact_d = t0 +. (t.cfg.exact_fraction *. (d -. t0)) in
    match run ~cancel:(cancel_at exact_d) Planner.Exact with
    | r -> exact r
    | exception Tce_error.Error (Tce_error.Deadline_exceeded _) ->
      locked t (fun () -> t.degraded <- t.degraded + 1);
      Obs.count "serve.degraded";
      beam_or_greedy d)

(* Handle one work request (optimize/simulate/validate) end to end: set
   up, cache probe, ladder, insert-if-exact, view. Returns the response
   and whether the plan came from the cache. *)
let handle_work t pool ~id ~deadline_at (w : Proto.work) ~view =
  match setup w with
  | Error msg -> (invalid ~id msg, `Other)
  | Ok (ext, comp, machine) -> (
    let key = cache_key w machine ~ext comp in
    let cached_plan =
      Option.bind (Cache.find t.cache key) (recall machine ext comp)
    in
    Obs.count
      (if Option.is_some cached_plan then "serve.cache_hits"
       else "serve.cache_misses");
    let searched =
      match cached_plan with
      | Some plan -> Ok ((plan, false), `Hit)
      | None ->
        Result.map
          (fun (plan, approximate) ->
            (* Only exact plans enter the cache: a later hit must be
               byte-identical to a fresh exact search. *)
            if not approximate then begin
              let before = (Cache.stats t.cache).Cache.evictions in
              Cache.add t.cache key (comp, plan);
              let after = (Cache.stats t.cache).Cache.evictions in
              if after > before then
                Obs.count ~by:(after - before) "serve.cache_evictions"
            end;
            ((plan, approximate), `Cold))
          (ladder t pool machine ext comp w ~deadline_at)
    in
    match searched with
    | Error msg -> (Proto.error ~id ~kind:"no_plan" ~message:msg [], `Other)
    | Ok ((plan, approximate), origin) -> (
      let base =
        plan_fields machine ext plan ~cached:(origin = `Hit) ~approximate
      in
      match view with
      | `Optimize -> (Proto.ok ~id base, origin)
      | `Simulate -> (
        match simulate (Planner.params machine) ext plan with
        | Ok (comm, compute, total) ->
          ( Proto.ok ~id
              (base
              @ [
                  ( "simulated",
                    Json.Obj
                      [
                        ("comm_seconds", Json.Num comm);
                        ("compute_seconds", Json.Num compute);
                        ("total_seconds", Json.Num total);
                      ] );
                ]),
            origin )
        | Error e ->
          ( Proto.error ~id ~kind:(Tce_error.kind e)
              ~message:(Tce_error.to_string e) [],
            `Other ))
      | `Validate -> (
        match Planner.validate machine ext plan with
        | Ok () -> (Proto.ok ~id (("valid", Json.Bool true) :: base), origin)
        | Error msg ->
          ( Proto.ok ~id
              (("valid", Json.Bool false)
              :: ("violation", Json.Str msg)
              :: base),
            origin ))))

(* ---- admin responses -------------------------------------------------- *)

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let health_json t ~id =
  Mutex.lock t.lock;
  let depth = Queue.length t.queue in
  let draining = t.draining in
  let crashes = t.crashes in
  let inflight = t.inflight in
  Mutex.unlock t.lock;
  Proto.ok ~id
    [
      ("healthy", Json.Bool true);
      ("queue_depth", Json.Num (float_of_int depth));
      ("inflight", Json.Num (float_of_int inflight));
      ("workers", Json.Num (float_of_int t.cfg.workers));
      ("draining", Json.Bool draining);
      ("worker_crashes", Json.Num (float_of_int crashes));
    ]

let hist_json h =
  let ms f = f *. 1e3 in
  Json.Obj
    [
      ("count", Json.Num (float_of_int (Obs.Hist.count h)));
      ("mean_ms", Json.Num (ms (Obs.Hist.mean h)));
      ("p50_ms", Json.Num (ms (Obs.Hist.percentile h 50.0)));
      ("p99_ms", Json.Num (ms (Obs.Hist.percentile h 99.0)));
      ("max_ms", Json.Num (ms (Obs.Hist.max_value h)));
    ]

let stats_json t ~id =
  let c = Cache.stats t.cache in
  Mutex.lock t.lock;
  let fields =
    [
      ("queue_depth", Json.Num (float_of_int (Queue.length t.queue)));
      ("inflight", Json.Num (float_of_int t.inflight));
      ("accepted", Json.Num (float_of_int t.accepted));
      ("rejected", Json.Num (float_of_int t.rejected));
      ("completed", Json.Num (float_of_int t.completed));
      ("request_errors", Json.Num (float_of_int t.request_errors));
      ("deadline_exceeded", Json.Num (float_of_int t.deadline_exceeded));
      ("degraded", Json.Num (float_of_int t.degraded));
      ("greedy_seeded", Json.Num (float_of_int t.greedy_seeded));
      ("worker_crashes", Json.Num (float_of_int t.crashes));
      ("ema_service_ms", Json.Num (t.ema_service_s *. 1e3));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int c.Cache.hits));
            ("misses", Json.Num (float_of_int c.Cache.misses));
            ("evictions", Json.Num (float_of_int c.Cache.evictions));
            ("entries", Json.Num (float_of_int c.Cache.entries));
          ] );
      ( "latency",
        Json.Obj
          [
            ("all", hist_json t.lat_all);
            ("cold", hist_json t.lat_cold);
            ("cache_hit", hist_json t.lat_hit);
          ] );
    ]
  in
  Mutex.unlock t.lock;
  Proto.ok ~id fields

(* ---- workers ----------------------------------------------------------- *)

let respawn_pool t pool_ref =
  (match !pool_ref with
  | Some p -> ( try Parsearch.close p with _ -> ())
  | None -> ());
  pool_ref :=
    (if t.cfg.search_jobs > 1 then Some (Parsearch.create ~jobs:t.cfg.search_jobs)
     else None)

let safe_reply (job : job) json = try job.reply json with _ -> ()

let record_latency t job ~started ~origin ~failed =
  let finished = now () in
  let total = finished -. job.enqueued_at in
  let service = finished -. started in
  Mutex.lock t.lock;
  if failed then t.request_errors <- t.request_errors + 1
  else t.completed <- t.completed + 1;
  t.ema_service_s <-
    (if t.ema_service_s = 0.0 then service
     else (0.2 *. service) +. (0.8 *. t.ema_service_s));
  Mutex.unlock t.lock;
  Obs.Hist.add t.lat_all total;
  (match origin with
  | `Hit -> Obs.Hist.add t.lat_hit total
  | `Cold -> Obs.Hist.add t.lat_cold total
  | `Other -> ())

let process t pool_ref (job : job) =
  let id = job.req.Proto.id in
  let started = now () in
  let expired =
    match job.deadline_at with Some d -> started > d | None -> false
  in
  if expired then begin
    locked t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1);
    Obs.count "serve.deadline_exceeded";
    safe_reply job
      (Proto.deadline_exceeded ~id ~where:"queue"
         ~elapsed_ms:((started -. job.enqueued_at) *. 1e3))
  end
  else
    let elapsed_ms () = (now () -. job.enqueued_at) *. 1e3 in
    match
      match job.req.Proto.op with
      | Proto.Optimize w ->
        handle_work t !pool_ref ~id ~deadline_at:job.deadline_at w
          ~view:`Optimize
      | Proto.Simulate w ->
        handle_work t !pool_ref ~id ~deadline_at:job.deadline_at w
          ~view:`Simulate
      | Proto.Validate w ->
        handle_work t !pool_ref ~id ~deadline_at:job.deadline_at w
          ~view:`Validate
      | Proto.Debug_sleep ms ->
        Unix.sleepf (ms /. 1e3);
        (Proto.ok ~id [ ("slept_ms", Json.Num ms) ], `Other)
      | Proto.Debug_crash -> failwith "injected worker crash (debug_crash)"
      | Proto.Health -> (health_json t ~id, `Other)
      | Proto.Stats -> (stats_json t ~id, `Other)
      | Proto.Drain ->
        (* Drain is normally answered at admission; a queued one (via
           [call]) just acknowledges. *)
        (Proto.ok ~id [ ("draining", Json.Bool true) ], `Other)
    with
    | resp, origin ->
      let failed =
        match resp with Json.Obj f -> List.assoc_opt "status" f <> Some (Json.Str "ok") | _ -> false
      in
      record_latency t job ~started ~origin ~failed;
      safe_reply job resp
    | exception Tce_error.Error (Tce_error.Deadline_exceeded { where }) ->
      locked t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1);
      Obs.count "serve.deadline_exceeded";
      safe_reply job
        (Proto.deadline_exceeded ~id ~where ~elapsed_ms:(elapsed_ms ()))
    | exception Tce_error.Error e ->
      record_latency t job ~started ~origin:`Other ~failed:true;
      safe_reply job
        (Proto.error ~id ~kind:(Tce_error.kind e)
           ~message:(Tce_error.to_string e) [])
    | exception ex ->
      (* Crash isolation: typed reply, then tear down and respawn this
         worker's search pool — the daemon and its siblings keep going. *)
      locked t (fun () ->
          t.crashes <- t.crashes + 1;
          t.request_errors <- t.request_errors + 1);
      Obs.count "serve.worker_crashes";
      safe_reply job
        (Proto.error ~id ~kind:"worker_crashed"
           ~message:(Printexc.to_string ex)
           [ ("respawned", Json.Bool true) ]);
      (try respawn_pool t pool_ref
       with _ -> pool_ref := None)

let worker_loop t =
  let pool_ref =
    ref
      (if t.cfg.search_jobs > 1 then
         Some (Parsearch.create ~jobs:t.cfg.search_jobs)
       else None)
  in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.draining && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* draining or closed, nothing left: exit *)
      running := false;
      Mutex.unlock t.lock
    end
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.lock;
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.lock;
          t.inflight <- t.inflight - 1;
          if Queue.is_empty t.queue && t.inflight = 0 then
            Condition.broadcast t.idle;
          Mutex.unlock t.lock)
        (fun () -> process t pool_ref job)
    end
  done;
  (match !pool_ref with
  | Some p -> ( try Parsearch.close p with _ -> ())
  | None -> ())

(* ---- lifecycle --------------------------------------------------------- *)

let create cfg =
  let t =
    {
      cfg;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      draining = false;
      closed = false;
      inflight = 0;
      domains = [];
      cache = Cache.create ~capacity:cfg.cache_capacity;
      accepted = 0;
      rejected = 0;
      consecutive_rejections = 0;
      completed = 0;
      request_errors = 0;
      deadline_exceeded = 0;
      degraded = 0;
      greedy_seeded = 0;
      crashes = 0;
      ema_service_s = 0.0;
      lat_all = Obs.Hist.create ();
      lat_cold = Obs.Hist.create ();
      lat_hit = Obs.Hist.create ();
    }
  in
  t.domains <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let retry_hint_ms t ~depth =
  (* Mirrors the fault layer's retry law (timeout · backoff^(k-1)): the
     base grows exponentially with consecutive rejections, scaled by the
     observed service time and the queue ahead of the caller. *)
  let k = max 1 t.consecutive_rejections in
  let backoff = t.cfg.retry_backoff ** float_of_int (k - 1) in
  let service_ms = max 1.0 (t.ema_service_s *. 1e3) in
  Float.min 60_000.0
    (Float.max (t.cfg.retry_base_ms *. backoff) (service_ms *. float_of_int (depth + 1)))

let submit t (req : Proto.request) ~reply =
  let id = req.Proto.id in
  match req.Proto.op with
  | Proto.Health -> reply (health_json t ~id)
  | Proto.Stats -> reply (stats_json t ~id)
  | Proto.Drain ->
    Mutex.lock t.lock;
    t.draining <- true;
    Condition.broadcast t.not_empty;
    while not (Queue.is_empty t.queue && t.inflight = 0) do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock;
    reply (Proto.ok ~id [ ("drained", Json.Bool true) ])
  | (Proto.Debug_sleep _ | Proto.Debug_crash) when not t.cfg.debug_ops ->
    reply (invalid ~id "debug ops are disabled (start with --debug-ops)")
  | Proto.Optimize _ | Proto.Simulate _ | Proto.Validate _
  | Proto.Debug_sleep _ | Proto.Debug_crash ->
    Mutex.lock t.lock;
    if t.draining || t.closed then begin
      Mutex.unlock t.lock;
      reply
        (Proto.error ~id ~kind:"draining"
           ~message:"server is draining; no new requests admitted" [])
    end
    else if Queue.length t.queue >= t.cfg.queue_capacity then begin
      t.rejected <- t.rejected + 1;
      t.consecutive_rejections <- t.consecutive_rejections + 1;
      let depth = Queue.length t.queue in
      let hint = retry_hint_ms t ~depth in
      Mutex.unlock t.lock;
      Obs.count "serve.rejected";
      reply (Proto.overloaded ~id ~queue_depth:depth ~retry_after_ms:hint)
    end
    else begin
      let enqueued_at = now () in
      let deadline_ms =
        match req.Proto.deadline_ms with
        | Some ms -> Some ms
        | None -> t.cfg.default_deadline_ms
      in
      let deadline_at =
        Option.map (fun ms -> enqueued_at +. (ms /. 1e3)) deadline_ms
      in
      t.accepted <- t.accepted + 1;
      t.consecutive_rejections <- 0;
      Queue.push { req; reply; enqueued_at; deadline_at } t.queue;
      Condition.signal t.not_empty;
      Mutex.unlock t.lock;
      Obs.count "serve.accepted"
    end

let submit_line t line ~reply =
  let reply_json json = reply (Proto.to_line json) in
  match Proto.parse_request line with
  | Error (`Parse msg) ->
    reply_json (Proto.error ~id:Json.Null ~kind:"parse_error" ~message:msg [])
  | Error (`Invalid (id, msg)) -> reply_json (invalid ~id msg)
  | Ok req -> submit t req ~reply:reply_json

let call t (req : Proto.request) =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let slot = ref None in
  submit t req ~reply:(fun json ->
      Mutex.lock lock;
      slot := Some json;
      Condition.signal cond;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !slot = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Option.get !slot

let call_line t line =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let slot = ref None in
  submit_line t line ~reply:(fun s ->
      Mutex.lock lock;
      slot := Some s;
      Condition.signal cond;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !slot = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Option.get !slot

let drain t =
  ignore
    (call t { Proto.id = Json.Null; op = Proto.Drain; deadline_ms = None }
      : Json.t)

let close t =
  Mutex.lock t.lock;
  t.draining <- true;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

type stats = {
  queue_depth : int;
  accepted : int;
  rejected : int;
  completed : int;
  request_errors : int;
  deadline_exceeded : int;
  degraded : int;
  greedy_seeded : int;
  worker_crashes : int;
  cache : Cache.stats;
}

let stats (t : t) =
  let cache = Cache.stats t.cache in
  Mutex.lock t.lock;
  let s =
    {
      queue_depth = Queue.length t.queue;
      accepted = t.accepted;
      rejected = t.rejected;
      completed = t.completed;
      request_errors = t.request_errors;
      deadline_exceeded = t.deadline_exceeded;
      degraded = t.degraded;
      greedy_seeded = t.greedy_seeded;
      worker_crashes = t.crashes;
      cache;
    }
  in
  Mutex.unlock t.lock;
  s
