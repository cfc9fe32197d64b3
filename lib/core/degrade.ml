open! Import

type report = {
  healthy : Plan.t;
  degraded : Plan.t;
  healthy_grid : Grid.t;
  degraded_grid : Grid.t;
  comm_delta : float;
  comm_ratio : float;
}

let survivor_grid grid =
  let side = Grid.side grid in
  if side <= 1 then
    Error
      "degrade: a 1x1 grid has no surviving sub-grid (the last processor \
       crashed)"
  else Grid.create ~procs:((side - 1) * (side - 1))

let report_of ~healthy ~degraded ~degraded_grid =
  let healthy_grid = healthy.Plan.grid in
  let h = Plan.comm_cost healthy and d = Plan.comm_cost degraded in
  {
    healthy;
    degraded;
    healthy_grid;
    degraded_grid;
    comm_delta = d -. h;
    comm_ratio = (if h > 0.0 then d /. h else Float.infinity);
  }

let replan ~config_of ext tree ~healthy =
  let ( let* ) = Result.bind in
  let* degraded_grid = survivor_grid healthy.Plan.grid in
  let cfg = config_of degraded_grid in
  if
    Grid.rows cfg.Search.grid <> Grid.rows degraded_grid
    || Grid.cols cfg.Search.grid <> Grid.cols degraded_grid
  then Error "degrade: config_of returned a config for a different grid"
  else
    let* degraded = Search.optimize cfg ext tree in
    Ok (report_of ~healthy ~degraded ~degraded_grid)

let survivor_procs topo grid =
  let procs = Grid.procs grid - Topology.procs_per_node topo in
  if procs <= 0 then
    Error
      "degrade: losing a node leaves no surviving processors to compute with"
  else Ok procs

let replan_best m ext tree ~healthy =
  let ( let* ) = Result.bind in
  match Planner.topology m with
  | None -> replan ~config_of:(Planner.config_of m) ext tree ~healthy
  | Some topo ->
    let* procs = survivor_procs topo healthy.Plan.grid in
    let survivors =
      Planner.shaped ?mem_limit_bytes:(Planner.mem_limit_bytes m) topo ~procs
    in
    let* degraded = Planner.solve_tree survivors Planner.Exact ext tree in
    Ok (report_of ~healthy ~degraded ~degraded_grid:degraded.Plan.grid)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>degraded replan: %a -> %a@,\
     communication %.1f s -> %.1f s (delta %+.1f s, x%.2f)@,\
     total %.1f s -> %.1f s@]"
    Grid.pp r.healthy_grid Grid.pp r.degraded_grid
    (Plan.comm_cost r.healthy) (Plan.comm_cost r.degraded) r.comm_delta
    r.comm_ratio
    (Plan.total_seconds r.healthy)
    (Plan.total_seconds r.degraded)
