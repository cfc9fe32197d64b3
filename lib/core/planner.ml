open! Import

(* --- Machines ---------------------------------------------------------- *)

(* A grid's config (its characterization is the costly part, tens of µs)
   is built on first use and kept: a cache hit needs at most the key's
   and the cached plan's. Racing domains may both build one; the values
   are equal, so either store is fine. *)
type machine = {
  params : Params.t;
  topo : Topology.t option;
  procs : int;
  mem_limit_bytes : float option;
  shapes : Grid.t list;
  configs : Search.config option Atomic.t list;
}

let params m = m.params
let topology m = m.topo
let mem_limit_bytes m = m.mem_limit_bytes

let make ?mem_limit_bytes ~params topo ~procs shapes =
  {
    params;
    topo;
    procs;
    mem_limit_bytes;
    shapes;
    configs = List.map (fun _ -> Atomic.make None) shapes;
  }

let build m grid =
  let rcost =
    match m.topo with
    | None -> Rcost.of_params m.params ~side:(Grid.side grid)
    | Some topo -> Rcost.of_topology topo grid
  in
  Search.default_config ?mem_limit_bytes:m.mem_limit_bytes ~grid
    ~params:m.params ~rcost ()

let config_of m grid =
  let same g = Grid.rows g = Grid.rows grid && Grid.cols g = Grid.cols grid in
  match
    List.find_map
      (fun (g, slot) -> if same g then Some slot else None)
      (List.combine m.shapes m.configs)
  with
  | None -> build m grid
  | Some slot -> (
    match Atomic.get slot with
    | Some cfg -> cfg
    | None ->
      let cfg = build m grid in
      Atomic.set slot (Some cfg);
      cfg)

let shape_candidates ~procs =
  List.filter_map
    (fun rows ->
      if procs mod rows = 0 then
        Some (Grid.create_rect_exn ~rows ~cols:(procs / rows))
      else None)
    (List.init (max 0 procs) (fun k -> k + 1))

let intra_axis_count topo grid =
  List.length
    (List.filter
       (fun axis -> Topology.axis_link topo grid ~axis = Topology.Intra)
       [ 1; 2 ])

let square ?mem_limit_bytes params ~procs =
  Result.map
    (fun grid -> make ?mem_limit_bytes ~params None ~procs [ grid ])
    (Grid.create ~procs)

let shaped ?mem_limit_bytes topo ~procs =
  if procs < 1 then invalid_arg "Planner.shaped: procs must be >= 1";
  make ?mem_limit_bytes ~params:(Topology.params topo) (Some topo) ~procs
    (shape_candidates ~procs)

let of_request ?mem_gb ?mflops ?latency_us ?bandwidth_mbs ?nodes
    ?(intra_latency_us = 1.0) ?(intra_bandwidth_mbs = 1000.0) ~topology ~procs
    () =
  let scaled k = Option.map (fun x -> x *. k) in
  let mem_limit_bytes = scaled 1e9 mem_gb in
  let params =
    match (latency_us, bandwidth_mbs) with
    | None, None ->
      let base = Params.itanium_2003 in
      {
        base with
        Params.mem_per_node_bytes =
          Option.value mem_limit_bytes
            ~default:base.Params.mem_per_node_bytes;
        flop_rate =
          Option.value (scaled 1e6 mflops) ~default:base.Params.flop_rate;
      }
    | _ ->
      Params.uniform ~name:"uniform"
        ~latency:(Option.value ~default:6.4e-2 (scaled 1e-6 latency_us))
        ~bandwidth:(Option.value ~default:13.6e6 (scaled 1e6 bandwidth_mbs))
        ~flop_rate:(Option.value ~default:6.15e8 (scaled 1e6 mflops))
        ~procs_per_node:2
        ~mem_per_node_bytes:(Option.value ~default:4e9 mem_limit_bytes)
  in
  match (topology, nodes) with
  | `Uniform, _ -> square ?mem_limit_bytes params ~procs
  | `Node, _ when procs < 1 ->
    Error (Printf.sprintf "procs (%d) must be positive" procs)
  | `Node, Some n when n < 1 || procs mod n <> 0 ->
    Error
      (Printf.sprintf
         "nodes (%d) must be positive and evenly divide procs (%d)" n procs)
  | `Node, _ ->
    let ppn =
      match nodes with
      | None -> params.Params.procs_per_node
      | Some n -> procs / n
    in
    let topo =
      Topology.node_aware
        { params with Params.procs_per_node = ppn }
        ~intra_latency:(intra_latency_us *. 1e-6)
        ~intra_bandwidth:(intra_bandwidth_mbs *. 1e6)
    in
    Ok (shaped ?mem_limit_bytes topo ~procs)

(* --- Planning ---------------------------------------------------------- *)

type fusion = [ `All | `None | `Memmin ]

type strategy =
  | Exact
  | Beam of int
  | Greedy
  | Anytime of (Search.anytime_round -> unit)

type plan = Tree of Plan.t | Sum of Plan.sum

let anytime_sum_error =
  "multi-term sums support the exact, beam and greedy strategies"

(* Anytime refinement reports its rounds as they run; over several
   candidate grids they would restart at every shape with no grid to
   tell them apart, so it stays a single-grid strategy. *)
let supports ~fusion m strategy comp =
  match (comp, fusion, strategy) with
  | Opmin.Summed _, (`None | `Memmin), _ ->
    Error
      "multi-term sums support fusion \"all\" only (the sum optimizer \
       plans every term with the full fusion space)"
  | Opmin.Summed _, `All, Anytime _ -> Error anytime_sum_error
  | Opmin.Single _, _, Anytime _ when m.topo <> None ->
    Error
      "anytime refinement runs on one grid; a grid-shape search supports \
       the exact, beam and greedy strategies"
  | _ -> Ok ()

(* Deterministic shape choice: cheapest plan first; ties prefer more
   node-aligned (intra-node) axes, then the more nearly square shape,
   then fewer rows. The per-shape solver is jobs-invariant and shapes
   are visited in a fixed order, so the choice is too. *)
let best_shape m ~cost ~solve =
  let score grid plan =
    ( cost plan,
      -(match m.topo with Some t -> intra_axis_count t grid | None -> 0),
      abs (Grid.rows grid - Grid.cols grid),
      Grid.rows grid )
  in
  let best =
    List.fold_left
      (fun acc grid ->
        match solve (config_of m grid) with
        | Error e -> ( match acc with `Err _ -> `Err e | `Best _ -> acc)
        | Ok plan -> (
          let s = score grid plan in
          match acc with
          | `Best (s0, _) when compare s0 s <= 0 -> acc
          | `Best _ | `Err _ -> `Best (s, plan)))
      (`Err "no feasible shape") m.shapes
  in
  match best with `Best (_, plan) -> Ok plan | `Err e -> Error e

let solve_tree ?jobs ?cancel ?pool ?(fusion = `All) m strategy ext tree
    =
  let ( let* ) = Result.bind in
  let* () = supports ~fusion m strategy (Opmin.Single tree) in
  (* The greedy and anytime rungs search the full fusion space unless
     fusion is off altogether. *)
  let rung_cfg cfg =
    {
      cfg with
      Search.fusion_mode =
        (match fusion with
        | `None -> Search.No_fusion
        | `All | `Memmin -> Search.Enumerate);
    }
  in
  let exact ?beam cfg =
    (match fusion with
    | `All -> Baselines.integrated
    | `None -> Baselines.fusion_free
    | `Memmin -> Baselines.memory_minimal)
      ?jobs ?beam ?cancel ?pool cfg ext tree
  in
  best_shape m ~cost:Plan.comm_cost ~solve:(fun cfg ->
      match strategy with
      | Exact -> exact cfg
      | Beam k -> exact ~beam:k cfg
      | Greedy ->
        Search.greedy ?jobs ?cancel ?pool (rung_cfg cfg) ext tree
      | Anytime on_round ->
        Search.anytime ?jobs ~on_round ?cancel ?pool (rung_cfg cfg) ext
          tree)

let solve_sum ?jobs ?cancel ?pool m strategy ext se =
  best_shape m
    ~cost:(fun s -> s.Plan.sum_comm_cost)
    ~solve:(fun cfg ->
      match strategy with
      | Exact -> Search.optimize_sum ?jobs ?cancel ?pool cfg ext se
      | Beam k ->
        Search.optimize_sum ?jobs ~beam:k ?cancel ?pool cfg ext se
      | Greedy -> Search.greedy_sum ?jobs ?cancel ?pool cfg ext se
      | Anytime _ -> Error anytime_sum_error)

let solve ?jobs ?cancel ?pool ?(fusion = `All) m strategy ext comp =
  match comp with
  | Opmin.Single tree ->
    Result.map
      (fun p -> Tree p)
      (solve_tree ?jobs ?cancel ?pool ~fusion m strategy ext tree)
  | Opmin.Summed se ->
    Result.bind (supports ~fusion m strategy comp) (fun () ->
        Result.map
          (fun s -> Sum s)
          (solve_sum ?jobs ?cancel ?pool m strategy ext se))

let brute_force m ext = function
  | Opmin.Single tree ->
    Result.map
      (fun p -> Tree p)
      (best_shape m ~cost:Plan.comm_cost ~solve:(fun cfg ->
           Search.brute_force cfg ext tree))
  | Opmin.Summed se ->
    Result.map
      (fun s -> Sum s)
      (best_shape m
         ~cost:(fun s -> s.Plan.sum_comm_cost)
         ~solve:(fun cfg -> Search.brute_force_sum cfg ext se))

let key ~fusion m ~ext comp =
  let cfg = config_of m (List.hd m.shapes) in
  let fingerprint =
    match comp with
    | Opmin.Single tree -> Search.tree_fingerprint cfg tree
    | Opmin.Summed se -> Search.sum_fingerprint se
  in
  let extents =
    String.concat ","
      (List.map
         (fun (i, n) -> Printf.sprintf "%s=%d" (Index.name i) n)
         (Extents.bindings ext))
  in
  let machine =
    match m.topo with
    | None ->
      [
        Printf.sprintf "side=%d" (Grid.side cfg.Search.grid);
        Params.fingerprint cfg.Search.params;
        Rcost.fingerprint cfg.Search.rcost;
      ]
    | Some topo ->
      [
        Printf.sprintf "shape=search:%d" m.procs;
        Params.fingerprint cfg.Search.params;
        "topo=" ^ Topology.fingerprint topo;
      ]
  in
  String.concat "|"
    ([
       (match fusion with
       | `All -> "all"
       | `None -> "none"
       | `Memmin -> "memmin");
       fingerprint;
       extents;
     ]
    @ machine
    @ [
        (match cfg.Search.mem_limit_bytes with
        | None -> "mem=default"
        | Some b -> Printf.sprintf "mem=%.17g" b);
        Printf.sprintf "redist=%.17g" cfg.Search.redist_factor;
        Printf.sprintf "adf=%b" cfg.Search.allow_distributed_fusion;
      ])

let grid = function Tree p -> p.Plan.grid | Sum s -> s.Plan.sum_grid

let validate m ext = function
  | Tree p -> Plan.validate ?mem_limit_bytes:m.mem_limit_bytes p
  | Sum s -> Plan.validate_sum ?mem_limit_bytes:m.mem_limit_bytes ~ext s
