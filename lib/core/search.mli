(** The memory-constrained communication minimization algorithm (paper
    §3.3) — the system's primary contribution.

    Bottom-up dynamic programming over the operator tree. At every
    contraction node it enumerates the generalized-Cannon variants
    (distribution triple × rotation choice), the fusion set on the edge to
    the parent, and the children's solution sets, subject to:

    - the chain legality of the fusion sets incident to the node;
    - the fused-communication rule: a loop fused around the node forces
      every {e rotated} array to be communicated inside it, so the loop
      index must be a dimension of that array and fused on its edge;
    - the paper's constraint (iii): a fused index must be distributed at
      both the producer and the consumer of the fused edge, or at neither;
    - redistribution of a consumed intermediate is possible only on an
      unfused edge (the whole array must exist to be reshuffled);
    - the per-node memory limit, accounting every array's resident block
      plus the largest message buffer.

    {2 Pruning and the deterministic tie-break}

    Partial solutions are kept per (production-distribution {e content},
    fusion set) group and pruned by Pareto dominance on (cost, node
    bytes) — the paper's "inferior solution" rule — plus the memory limit
    (memory only grows upward, so an oversized partial solution can never
    recover). Among solutions tied on cost and bytes, one survives under
    an explicit total tie-break:

    + fewer {e output} rotations (a rotated output ends displaced);
    + smaller {e oriented} production-distribution string (the pair order
      the group's content key deliberately erases);
    + earliest enumeration order.

    The same ordering, extended with the fused-set key, is the total
    order used by the [?beam] cut. Because it never ties, search results
    are byte-for-byte identical for every [?jobs] setting.

    {2 Memoization}

    With [?memo] (the default) each solved subtree is cached under a key
    made of (a) the subtree's content fingerprint — structure, index
    lists and {e leaf} names, with intermediate names α-erased so two
    occurrences of the same subcomputation under different output names
    share their solutions — and (b) the fusion candidates of the edge to
    the parent (the only outside input to a subtree's solution set). On a
    hit the cached solutions are α-renamed back to the current subtree's
    intermediate names. Under [Fixed] fusion the intermediate names are
    part of the semantics (the assignment is keyed on them), so they stay
    in the fingerprint. Hits and misses are surfaced through the
    [search.memo_hits] / [search.memo_misses] {!Tce_obs.Obs} counters.

    The search is exhaustive over the remaining space: on small trees it
    provably returns the same optimum as brute-force enumeration (see the
    fuzz suite in [test/t_searchprop.ml]). *)

open! Import

type fusion_mode =
  | Enumerate  (** search all fusions (the paper's algorithm) *)
  | No_fusion  (** fusion-free: prior-work communication minimization [16] *)
  | Fixed of (string * Index.Set.t) list
      (** fusion fixed per array name (e.g. from the sequential
          memory-minimal baseline); unlisted edges get [∅] *)

type config = {
  grid : Grid.t;
  params : Params.t;
  rcost : Rcost.t;
  mem_limit_bytes : float option;
      (** [None]: use the machine's per-node memory *)
  redist_factor : float;
      (** redistribution ≈ [redist_factor ×] one full rotation of the
          block (default 2.0: an all-to-all is roughly two passes) *)
  fusion_mode : fusion_mode;
  allow_distributed_fusion : bool;
      (** allow fusing a loop whose index is distributed (the cost model's
          [N/√P] LoopRange branch). Off by default: such plans need
          partial-activity execution that the executors do not implement,
          the paper's solutions never use them, and enabling the branch
          changes no result in the reproduced experiments. *)
}

val default_config :
  ?mem_limit_bytes:float -> ?redist_factor:float -> ?fusion_mode:fusion_mode
  -> ?allow_distributed_fusion:bool -> grid:Grid.t -> params:Params.t
  -> rcost:Rcost.t -> unit -> config

(** The optional knobs below are shared by the entry points:

    - [?jobs] (default 1): width of the domain pool enumerating Cannon
      variants and filtering prune groups (see {!Parsearch}). Any value
      returns byte-identical plans; values above 1 only change wall-clock.
    - [?memo] (default true): the α-renaming subtree cache above. Off, the
      engine is the original cache-free walk (the brute-force oracle always
      runs unmemoized).
    - [?beam] (default off): anytime narrowing — after pruning, keep only
      the [k] best solutions per node under the documented total order.
      Exactness is no longer guaranteed (a locally worse partial solution
      can win globally), but a larger beam explores a superset per node.
      Off, paper Tables 1–2 replays are bit-for-bit untouched.
    - [?cancel] (default absent): a cooperative cancellation token, polled
      at every DP node and before each per-variant enumeration block. When
      it returns [true] the search raises
      [Tce_error.Error (Deadline_exceeded _)] promptly instead of running
      to completion — the serving layer's per-request deadline hook. The
      raise leaves any supplied [?pool] reusable.
    - [?pool] (default absent): a caller-owned persistent {!Parsearch}
      pool to fan out on, overriding [?jobs] with the pool's width. The
      pool is {e not} closed on return, so a long-running service can
      amortize domain spawning across requests.

    With a pool (or [?jobs] > 1) the engine forks at two granularities:
    whole-subtree DP solves (both children of a node carrying their own
    contractions become independent tasks, stolen by idle domains) and,
    only at nodes whose per-variant candidate block is large enough to
    amortize a task, item-wise fan-out of variant enumeration and
    prune-group filtering. Below the cutover the plain sequential loop
    runs — no task creation. Scheduling never affects results: solutions
    land in input slots, merge order is fixed, and the memo cache is
    sharded-mutex domain-safe with α-equivalent entries, so plans are
    byte-identical for every jobs setting. *)

val optimize :
  ?jobs:int -> ?memo:bool -> ?beam:int -> ?cancel:(unit -> bool)
  -> ?pool:Parsearch.t -> config -> Extents.t -> Tree.t
  -> (Plan.t, string) result
(** The optimal plan, or an error when the tree is outside the Cannon
    template (Hadamard/unary nodes), the grid side does not match the
    characterization, or no solution fits in memory. *)

val optimize_min_memory :
  ?jobs:int -> ?memo:bool -> ?beam:int -> ?cancel:(unit -> bool)
  -> ?pool:Parsearch.t -> config -> Extents.t -> Tree.t
  -> (Plan.t, string) result
(** Lexicographic objective (memory first, then communication): the
    parallel transplant of the sequential memory-minimal-fusion
    discipline, used as the prior-work baseline. Note that fixing the
    {e sequential} memory-minimal fusion verbatim is usually not even
    executable under the Cannon template (a fully collapsed intermediate
    leaves no rotated array containing the fused loops), which is itself
    part of the paper's argument for an integrated search. *)

val greedy :
  ?jobs:int -> ?memo:bool -> ?cancel:(unit -> bool) -> ?pool:Parsearch.t
  -> config -> Extents.t -> Tree.t -> (Plan.t, string) result
(** The greedy seed plan: a beam-1 DP that keeps only the single
    cheapest candidate per node under the paper's cost model — the
    locally cheapest (variant, fusion, child-case) choice propagated
    bottom-up, produced in a small fraction of the exact search's time.
    A width-1 cut can strand the search (the kept child solution may
    admit no legal parent combination), so on infeasibility the width
    widens (1 → 4 → 16 → exact) before reporting failure. The plan is
    assembled like any exact plan and passes {!Plan.validate}; only
    optimality is traded away. *)

type anytime_round = {
  width : int option;  (** beam width of the round; [None] = exact *)
  cost : float;  (** best communication cost found so far (monotone) *)
  improved : bool;  (** did this round improve on the previous best *)
}

val anytime :
  ?jobs:int -> ?memo:bool -> ?widths:int list
  -> ?on_round:(anytime_round -> unit) -> ?cancel:(unit -> bool)
  -> ?pool:Parsearch.t -> config -> Extents.t -> Tree.t
  -> (Plan.t, string) result
(** Anytime refinement: the {!greedy} seed first (reported as width 1),
    then re-searches at widening beam widths over the full candidate
    space ([?widths], default [4; 16; 64]), then a final exact round.
    The best plan so far is kept, so the reported
    cost never increases across rounds and the final result equals
    {!optimize}'s optimum when the exact round completes. [?on_round]
    observes each completed round. If [?cancel] fires mid-round, the
    best plan found so far is returned instead of the deadline error
    (provided any round completed — the greedy seed's milliseconds are
    usually enough). Infeasible rounds are skipped; if every round
    fails, the last error is returned. *)

val solution_count :
  ?jobs:int -> ?memo:bool -> ?beam:int -> config -> Extents.t -> Tree.t
  -> (int, string) result
(** Number of undominated solutions at the root (diagnostic: shows how
    effective pruning is). *)

val brute_force : config -> Extents.t -> Tree.t -> (Plan.t, string) result
(** Exhaustive enumeration of every (variant, fusion) assignment of the
    whole tree with no dominance pruning and no memo cache — exponential;
    the test oracle for {!optimize}. *)

(** {2 DP internals checked by the test oracles}

    The legality filter and the pruning pass are exposed so the test
    suite can compare them against frozen reference implementations
    (the [Index.Set] legality conjunction and the pairwise dominance
    scan); {!brute_force} runs the same filter, so it cannot catch a
    filter bug on its own. *)

module Legal : sig
  val admitted :
    config -> Variant.t -> left:(Index.Set.t * bool) list
    -> right:(Index.Set.t * bool) list -> f_out:Index.Set.t list
    -> (int * int * int) list
  (** [admitted cfg variant ~left ~right ~f_out] lists, in enumeration
      order (left × right × out), the positions of every combination the
      search admits at a node under [variant]. A left or right option is
      its edge fusion set and whether it forces the node's nesting (an
      intermediate or presummed child does, an input leaf does not). *)
end

module Pareto : sig
  type 'a view = {
    cost : 'a -> float;
    bytes : 'a -> float;  (** node bytes *)
    rots : 'a -> int;  (** output rotations *)
    okey : 'a -> string;  (** oriented production-distribution key *)
    group : 'a -> int;
        (** dense group id from 0: equal ids iff equal [group_key]s *)
    group_key : 'a -> string * string;
        (** (production-distribution content, fused-set key) *)
  }

  val prune :
    ?pool:Parsearch.t -> ?fan_min:int -> 'a view -> 'a array -> 'a list
  (** Pareto pruning within groups, with the tie-break documented above,
      by one sort-and-sweep per group. Groups are emitted in the fold
      order of a size-32 [Hashtbl] keyed by [group_key] (keys inserted in
      item order), last visited first; survivors within a group in
      reverse item order. With [?pool], groups are filtered on its
      domains when there are at least [?fan_min] items. *)

  val beam : 'a view -> int option -> 'a list -> 'a list
  (** [beam v (Some k) items] keeps the [k] first items under (cost,
      bytes, rots, okey, fused-set key, position), in that order; [None]
      or a short list returns [items] unchanged. *)
end

(** {2 Multi-term sums with cross-term CSE (DESIGN.md §16)}

    A sum [O = Σᵢ cᵢ·Tᵢ] is planned in two phases: the cross-term shared
    subtrees found by {!Tce_expr.Sumexpr.detect} are materialized first,
    each by its own sub-plan; then every term is solved as an ordinary
    tree whose occurrences of a shared value are {e pinned} leaves,
    consumed under producer rules from the stored distribution
    (content-equal for free, otherwise through a costed redistribution)
    with the stored value charged resident. The optimizer enumerates
    every subset of the detected groups — sharing is not always a win:
    a stored shared value occupies memory for its whole lifetime and may
    force redistributions its consumers would not otherwise pay — and,
    per subset, the cartesian product of the shared subtrees' solution
    lists; term solutions are filtered by their lifetime memory (the
    term's own peak plus the residency of shared values still needed by
    later terms) and the cheapest feasible combination wins. Subset ∅ is
    the no-sharing baseline, so the result is never costlier than
    planning each term independently. The final accumulation is local
    and communication-free (every term plan ends in the sum output's
    index space).

    Determinism: the subset loop, the cartesian enumeration and the
    strictly-better-first tie-break are sequential and fixed; the
    underlying tree solves are jobs-invariant — so the chosen sum plan
    is byte-identical for every [?jobs] setting. *)

val optimize_sum :
  ?jobs:int -> ?memo:bool -> ?beam:int -> ?max_groups:int
  -> ?cancel:(unit -> bool) -> ?pool:Parsearch.t -> config -> Extents.t
  -> Sumexpr.t -> (Plan.sum, string) result
(** The optimal sum plan under the paper's cost model, or an error when
    any term is outside the Cannon template, the grid side mismatches
    the characterization, or no combination fits in memory.
    [?max_groups] (default 3) caps the CSE groups considered; 0 disables
    sharing entirely — the per-term-independent baseline, which tests
    use as the comparison point. *)

val brute_force_sum :
  ?max_groups:int -> config -> Extents.t -> Sumexpr.t
  -> (Plan.sum, string) result
(** {!optimize_sum} with no dominance pruning and no memo cache on the
    underlying tree solves — exponential; the sum-level test oracle. *)

val greedy_sum :
  ?jobs:int -> ?memo:bool -> ?cancel:(unit -> bool) -> ?pool:Parsearch.t
  -> config -> Extents.t -> Sumexpr.t -> (Plan.sum, string) result
(** The sum rung of the serve layer's degradation ladder: no sharing,
    each term planned by {!greedy}'s widening rungs. Milliseconds, and
    still {!Plan.validate_sum}-certifiable; only optimality is traded
    away. *)

val sum_fingerprint : Sumexpr.t -> string
(** Cache key material for a whole sum: the output index list plus, per
    term, its exact coefficient ([%h]) and the {e named} content
    fingerprint of its tree. Distinct by construction from every
    single-tree {!tree_fingerprint} (the ["sum|"] prefix), so a sum
    request and any one of its terms never share a cache entry. *)

(** {2 Content fingerprint and plan renaming}

    The serving layer's plan cache is keyed on the α-renamed content
    fingerprint below (plus the machine, grid, memory limit and search
    knobs). Because intermediate names are erased from the key, a cached
    plan may carry different intermediate names than the request that
    hits it; {!rename_plan} maps the cached plan onto the requested
    tree's names — the whole-plan analogue of the memo cache's α-renaming
    of subtree solutions. *)

val tree_fingerprint : config -> Tree.t -> string
(** The content fingerprint of the (normalized) operator tree: structure,
    index lists and leaf names, with intermediate names α-erased — except
    under [Fixed] fusion, where intermediate names are semantic and stay
    in. Two trees with equal fingerprints have identical solution spaces
    up to intermediate renaming. *)

val rename_plan :
  config -> ext:Extents.t -> cached:Tree.t -> current:Tree.t -> Plan.t
  -> Plan.t option
(** [rename_plan cfg ~ext ~cached ~current plan] rewrites [plan] (the
    solution of [cached]) onto [current]'s intermediate names and
    reassembles it. The trees must share {!tree_fingerprint}. Returns
    [None] in the pathological leaf-name-clash case (the caller should
    recompute) — same fallback as the memo cache. When the trees already
    agree on names the plan is returned unchanged, physically equal. *)
