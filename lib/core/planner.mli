(** The planning core: one entry point from machine × computation ×
    strategy to a plan.

    The paper has one optimizer — the memory-constrained fusion and
    distribution DP of {!Search} — and everything else only changes its
    input or the set of grids it is tried on:

    - the {e machine} fixes the parameters, the memory limit and the
      candidate grids: the paper's single √P × √P grid priced by
      {!Rcost.of_params}, or (DESIGN.md §17) every R × C factorization
      of P priced per axis link class by {!Rcost.of_topology};
    - the {e computation} is {!Tce_opmin.Opmin.computation}: one operator
      tree, or a multi-term sum with cross-term CSE (DESIGN.md §16);
    - the {e strategy} picks the search rung: exact DP, beam-limited DP,
      the greedy seed, or anytime refinement.

    Every combination runs the same code: each candidate grid is solved
    and the cheapest plan kept under one deterministic tie-break. Both
    front ends ([tce_opt optimize] and the [tce_serve] ladder) plan only
    through {!solve}. *)

open! Import

(** {2 Machines} *)

type machine
(** The parameters, the memory limit and the candidate grids (never
    empty): the one square grid of the paper's machine, or every
    R × C factorization under a topology. Safe to share across
    domains. *)

val shaped : ?mem_limit_bytes:float -> Topology.t -> procs:int -> machine
(** Grid-shape search: every {!shape_candidates} grid, priced by
    {!Rcost.of_topology} under the topology's own parameters. Raises
    [Invalid_argument] when [procs < 1]. *)

val of_request :
  ?mem_gb:float -> ?mflops:float -> ?latency_us:float -> ?bandwidth_mbs:float
  -> ?nodes:int -> ?intra_latency_us:float -> ?intra_bandwidth_mbs:float
  -> topology:[ `Uniform | `Node ] -> procs:int -> unit
  -> (machine, string) result
(** The machine both front ends describe with the same knobs. The base
    is the paper's Itanium cluster with [mem_gb] / [mflops] overrides,
    or, when either [latency_us] or [bandwidth_mbs] is given, a uniform
    α–β machine (defaults 64 ms, 13.6 MB/s, 615 Mflop/s, 4 GB, 2 procs
    per node). [mem_gb] also sets the search's memory limit.
    [`Uniform] is the paper's machine: the one √P × √P grid priced by
    {!Rcost.of_params}. [`Node] packs [procs / nodes] ranks per
    node (default: the machine's procs-per-node) with intra-node links
    of [intra_latency_us] (default 1 µs) and [intra_bandwidth_mbs]
    (default 1000 MB/s), and is {!shaped}. Errors on a non-square
    [`Uniform] count, a non-positive count, or a [nodes] that does not
    divide [procs]. *)

val params : machine -> Params.t

val topology : machine -> Topology.t option
(** [None]: the paper's square machine; [Some]: grid-shape search under
    this topology. *)

val mem_limit_bytes : machine -> float option
(** [None]: the machine's node memory. *)

val config_of : machine -> Grid.t -> Search.config
(** The search configuration of one grid of the machine (any grid, not
    only a candidate: replanning on survivors uses smaller ones). *)

val shape_candidates : procs:int -> Grid.t list
(** Every R × C grid with [R · C = procs], in increasing [R] order
    (includes the degenerate [1 × P] and [P × 1] shapes). *)

val intra_axis_count : Topology.t -> Grid.t -> int
(** How many of the grid's two axes rotate entirely inside nodes
    ({!Topology.axis_link}) — the tie-break's node-alignment measure. *)

(** {2 Planning} *)

type fusion = [ `All | `None | `Memmin ]
(** [`All]: the integrated search. [`None]: the fusion-free baseline.
    [`Memmin]: memory first, then communication (a search baseline; the
    greedy and anytime rungs search the full fusion space under it).
    Multi-term sums plan with [`All] only. *)

type strategy =
  | Exact  (** the optimal DP *)
  | Beam of int  (** the DP keeping the [k] best solutions per node *)
  | Greedy  (** {!Search.greedy} / {!Search.greedy_sum}: milliseconds *)
  | Anytime of (Search.anytime_round -> unit)
      (** {!Search.anytime}, reporting each round (trees on the
          square machine only) *)

type plan = Tree of Plan.t | Sum of Plan.sum

val supports : fusion:fusion -> machine -> strategy -> Opmin.computation
  -> (unit, string) result
(** Whether {!solve} can plan the computation this way at all (a
    request error, as opposed to a search that finds no plan). Anytime
    refinement reports the rounds of one grid, so it is refused on a
    shape-searching machine, as it is for multi-term sums. *)

val solve :
  ?jobs:int -> ?cancel:(unit -> bool) -> ?pool:Parsearch.t
  -> ?fusion:fusion -> machine -> strategy -> Extents.t -> Opmin.computation
  -> (plan, string) result
(** Plan the computation on every candidate grid and keep the cheapest.
    Ties go to more node-aligned axes, then the more nearly square
    shape, then fewer rows — so a machine whose square grid is chosen
    returns exactly the plan of the plain search on that grid. The
    returned plan carries the chosen grid. Errors only when every grid
    fails (the last grid's error). Byte-identical across [?jobs]. The
    knobs are those of {!Search.optimize}; [?fusion] defaults to
    [`All]. *)

val solve_tree :
  ?jobs:int -> ?cancel:(unit -> bool) -> ?pool:Parsearch.t
  -> ?fusion:fusion -> machine -> strategy -> Extents.t -> Tree.t
  -> (Plan.t, string) result
(** {!solve} on a single tree (with the same {!supports} check). *)

val brute_force : machine -> Extents.t -> Opmin.computation
  -> (plan, string) result
(** {!Search.brute_force} / {!Search.brute_force_sum} on every grid with
    the same tie-break — the test oracle for {!solve}. *)

val key : fusion:fusion -> machine -> ext:Extents.t -> Opmin.computation
  -> string
(** Cache-key material covering every input of {!solve} but the
    strategy: the fusion mode, the computation's fingerprint
    ({!Search.tree_fingerprint}, α-erased, or {!Search.sum_fingerprint}),
    the extents and the machine — the square side, parameter and
    characterization fingerprints, or the processor count and topology
    fingerprint for a shape-searching machine — plus the memory limit and
    search knobs. *)

val grid : plan -> Grid.t

val validate : machine -> Extents.t -> plan -> (unit, string) result
(** {!Plan.validate} / {!Plan.validate_sum} under the machine's memory
    limit. *)
