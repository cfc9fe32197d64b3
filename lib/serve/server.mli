(** The planning daemon's engine: bounded admission queue, worker
    domains with persistent {!Tce_core.Parsearch} pools, an LRU plan
    cache keyed on the α-renamed content fingerprint, per-request
    deadlines with cooperative cancellation, and a degradation ladder
    (exact DP → beam search → greedy seed plan → [deadline_exceeded]).

    Transport-agnostic: callers feed JSON-lines strings in via
    {!submit_line} and receive the response line through a callback, so
    the same engine serves stdio (see [bin/tce_serve]), an in-process
    test harness, or any future socket front end. See DESIGN.md §13.

    Every work request — a single tree or a multi-term sum (DESIGN.md
    §16), on the square machine or a node-aware one (§17) — is planned
    by {!Tce_core.Planner.solve} through the one ladder; the planner's
    strategies are its rungs. Sums are cached under the whole-sum
    fingerprint (disjoint by construction from every single-term key). *)

type degrade_mode =
  [ `Auto  (** exact DP inside [exact_fraction] of the budget, then beam *)
  | `Always  (** beam search on every request (responses are [approximate]) *)
  | `Never  (** exact only; a missed deadline is [deadline_exceeded] *) ]

type config = {
  workers : int;  (** worker domains consuming the queue *)
  queue_capacity : int;  (** admission bound; beyond it requests are rejected *)
  cache_capacity : int;  (** plan-cache entries; 0 disables caching *)
  default_deadline_ms : float option;
      (** applied when a request carries no [deadline_ms] *)
  search_jobs : int;
      (** width of each worker's persistent search pool (1: no pool) *)
  degrade : degrade_mode;
  exact_fraction : float;
      (** fraction of the deadline budget granted to the exact search
          under [`Auto] before falling back to beam *)
  degrade_beam : int;  (** beam width of the fallback search *)
  retry_base_ms : float;  (** base of the overload Retry-After hint *)
  retry_backoff : float;
      (** growth of the hint per consecutive rejection (≥ 1), mirroring
          the fault layer's [timeout · backoff^(k-1)] law *)
  debug_ops : bool;
      (** honour [debug_sleep] / [debug_crash] (tests and load tools) *)
}

val default_config :
  ?workers:int -> ?queue_capacity:int -> ?cache_capacity:int
  -> ?default_deadline_ms:float -> ?search_jobs:int -> ?degrade:degrade_mode
  -> ?exact_fraction:float -> ?degrade_beam:int -> ?retry_base_ms:float
  -> ?retry_backoff:float -> ?debug_ops:bool -> unit -> config
(** Defaults: 2 workers, queue 32, cache 128, no default deadline,
    sequential search, [`Auto] degradation with [exact_fraction] 0.6 and
    beam 4, 25 ms base hint doubling per rejection, debug ops off.
    Raises [Invalid_argument] on out-of-range values. *)

type t

val create : config -> t
(** Spawn the worker domains. The caller must eventually {!drain} (or
    {!close}) to join them. *)

val submit : t -> Proto.request -> reply:(Json.t -> unit) -> unit
(** Route one parsed request. Admin ops (health/stats/drain) are
    answered synchronously on the calling thread — they bypass the
    queue, so the daemon stays introspectable under saturation; [drain]
    blocks until the queue and all in-flight work finish. Work ops are
    enqueued ([reply] fires later, on a worker domain) or rejected
    immediately with a typed [overloaded] / [draining] response. [reply]
    must be thread-safe; exceptions it raises are swallowed. *)

val submit_line : t -> string -> reply:(string -> unit) -> unit
(** {!submit} for one raw JSON line; malformed input gets a typed
    [parse_error] / [invalid_request] response. The reply string is a
    single line without the trailing newline. *)

val call : t -> Proto.request -> Json.t
(** Synchronous {!submit}: blocks the calling thread until the response
    arrives. Test/tool convenience. *)

val call_line : t -> string -> string
(** Synchronous {!submit_line}. *)

val drain : t -> unit
(** Stop admitting work, wait for the queue and in-flight requests to
    finish. Idempotent. Workers exit; submit afterwards answers
    [draining]. *)

val close : t -> unit
(** Join the worker domains (marking the server drained and closed
    first). Pending queued work is abandoned unreplied — call {!drain}
    first for a graceful shutdown. *)

type stats = {
  queue_depth : int;
  accepted : int;
  rejected : int;
  completed : int;
  request_errors : int;
  deadline_exceeded : int;
  degraded : int;  (** requests answered by the beam fallback *)
  greedy_seeded : int;
      (** requests answered by the last-rung greedy seed plan *)
  worker_crashes : int;
  cache : Cache.stats;
}

val stats : t -> stats

val queue_depth : t -> int

val cache_key_of_work : Proto.work -> (string, string) result
(** The plan-cache key a work request maps to (the same set-up a
    request goes through: parse → tree or sum → machine →
    {!Tce_core.Planner.key}). Exposed for the cache-key separation
    tests. *)
