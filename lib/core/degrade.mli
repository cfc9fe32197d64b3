(** Graceful degradation: replanning on the surviving sub-grid after a
    node crash.

    The Cannon template needs a full √P×√P torus, so losing even one
    processor invalidates a plan outright. Rather than failing the
    computation, the fault-tolerant path re-runs the memory-constrained
    search on the next-smaller square grid ((√P−1)²) — every surviving
    rank can host one of its logical processors — and reports how much
    communication the degradation costs. Communication per array scales
    like N²/√P, so the degraded plan's cost is finite and at least the
    healthy plan's; the delta is exactly the headroom a scheduler gives
    up by not replacing the node. *)

open! Import

type report = {
  healthy : Plan.t;
  degraded : Plan.t;
  healthy_grid : Grid.t;
  degraded_grid : Grid.t;
  comm_delta : float;  (** degraded comm cost − healthy comm cost *)
  comm_ratio : float;  (** degraded / healthy (infinite if healthy = 0) *)
}

val survivor_grid : Grid.t -> (Grid.t, string) result
(** The next-smaller square grid, [(side-1)²] processors; an error on a
    1×1 grid (no survivors to compute with). *)

val replan :
  config_of:(Grid.t -> Search.config) -> Extents.t -> Tree.t
  -> healthy:Plan.t -> (report, string) result
(** Re-run the search for [tree] on the survivor grid of the healthy
    plan's grid. [config_of] must build a config whose [rcost]
    characterization matches the grid it is given (the per-side
    characterization cannot be reused across grid sizes). *)

val survivor_procs : Topology.t -> Grid.t -> (int, string) result
(** Ranks surviving the loss of one whole node
    ([procs − procs_per_node]); an error when none survive. *)

val replan_best :
  Planner.machine -> Extents.t -> Tree.t -> healthy:Plan.t
  -> (report, string) result
(** Replan on the best grid the machine can still use. The paper's
    square machine falls back to {!replan} (the next-smaller square). A
    shape-searching machine drops one whole node and plans on every
    R × C factorization of the surviving rank count, keeping the
    cheapest shape ({!Planner.solve}) — e.g. 12 ranks losing a
    2-processor node replan onto the best of 1×10/2×5/5×2/10×1. The
    report's [degraded_grid] is the chosen shape. *)

val pp_report : Format.formatter -> report -> unit
