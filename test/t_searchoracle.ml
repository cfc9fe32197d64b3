(* Oracles for the search's hot path. The DP admits combinations through
   a bitmask filter and prunes by one sort-and-sweep per group; both are
   checked here against frozen copies of the [Index.Set] legality
   conjunction and the pairwise dominance scan they replaced. The
   brute-force oracle cannot catch a filter bug: it runs the same filter. *)

open Tce
open Helpers

(* ---------- frozen legality reference ---------- *)

let fused_of_role ~f_out ~f_left ~f_right = function
  | Variant.Out -> f_out
  | Variant.Left -> f_left
  | Variant.Right -> f_right

let forcing_set ~f_out ~f_left ~f_right ~left_internal ~right_internal =
  let add cond set acc = if cond then Index.Set.union set acc else acc in
  Index.Set.empty |> Index.Set.union f_out
  |> add left_internal f_left
  |> add right_internal f_right

let rotated_context_ok variant ~forcing ~f_out ~f_left ~f_right =
  Index.Set.for_all
    (fun t ->
      List.for_all
        (fun ((role : Variant.role), _axis) ->
          let dims = Aref.index_set (Variant.aref_of variant role) in
          Index.Set.mem t dims
          && Index.Set.mem t (fused_of_role ~f_out ~f_left ~f_right role))
        (Variant.rotated variant))
    forcing
  && List.for_all
       (fun ((role : Variant.role), axis) ->
         Index.Set.for_all
           (fun t ->
             Dist.position_of (Variant.dist_of variant role) t <> Some axis)
           (fused_of_role ~f_out ~f_left ~f_right role))
       (Variant.rotated variant)

let reference_legal (cfg : Search.config) variant ~f_out ~f_left
    ~left_internal ~f_right ~right_internal =
  let forcing =
    forcing_set ~f_out ~f_left ~f_right ~left_internal ~right_internal
  in
  Fusionset.chain [ f_left; f_right; f_out ]
  && rotated_context_ok variant ~forcing ~f_out ~f_left ~f_right
  && (cfg.Search.allow_distributed_fusion
     || List.for_all
          (fun role ->
            Index.Set.for_all
              (fun t -> not (Dist.distributes (Variant.dist_of variant role) t))
              (fused_of_role ~f_out ~f_left ~f_right role))
          [ Variant.Out; Variant.Left; Variant.Right ])

let reference_admitted cfg variant ~left ~right ~f_out =
  let acc = ref [] in
  List.iteri
    (fun li (f_left, left_internal) ->
      List.iteri
        (fun ri (f_right, right_internal) ->
          List.iteri
            (fun oi f ->
              if
                reference_legal cfg variant ~f_out:f ~f_left ~left_internal
                  ~f_right ~right_internal
              then acc := (li, ri, oi) :: !acc)
            f_out)
        right)
    left;
  List.rev !acc

(* ---------- legality property ---------- *)

(* Every contraction node of a tree with the fusion set of the edge above
   it ([None] at the root). *)
let rec contract_nodes ~parent node acc =
  match node with
  | Tree.Contract (_, _, l, r) ->
    let acc = (node, parent) :: acc in
    contract_nodes ~parent:(Some node) r
      (contract_nodes ~parent:(Some node) l acc)
  | Tree.Sum (_, _, c) -> contract_nodes ~parent:(Some node) c acc
  | Tree.Mult (_, l, r) ->
    contract_nodes ~parent:(Some node) r
      (contract_nodes ~parent:(Some node) l acc)
  | Tree.Leaf _ -> acc

(* The options the search enumerates for one child edge: every fusion
   candidate. An intermediate child offers one option per solution, and
   solutions share fusion sets, so its list repeats them. *)
let edge_options ~child ~parent =
  let cands = Fusionset.candidates ~child ~parent in
  match child with
  | Tree.Leaf _ -> List.map (fun f -> (f, false)) cands
  | _ -> List.map (fun f -> (f, true)) (cands @ List.rev cands)

(* Random options over a node's loop indices, fusible or not, with
   random forcing flags: exercises masks the realistic lists never hit. *)
let random_options rng loops n =
  List.init n (fun _ ->
      ( Index.Set.filter (fun _ -> Prng.int rng ~bound:3 = 0) loops,
        Prng.bool rng ))

let legality_configs () =
  let params = Params.itanium_2003 in
  let square = Grid.create_exn ~procs:16 in
  let rect = Grid.create_rect_exn ~rows:2 ~cols:4 in
  List.concat_map
    (fun allow_distributed_fusion ->
      [
        Search.default_config ~allow_distributed_fusion ~grid:square ~params
          ~rcost:(Rcost.of_params params ~side:4) ();
        Search.default_config ~allow_distributed_fusion ~grid:rect ~params
          ~rcost:(Rcost.of_topology (Topology.uniform params) rect) ();
      ])
    [ false; true ]

let test_legality_matches_reference () =
  let rng = Prng.create ~seed:20261018 in
  let instances =
    Gencorpus.fuzz ~seed:41 ~count:8
    @ [
        (let ext, tree =
           Gencorpus.random_einsum ~seed:3 ~tensors:5 ~rank:4 ~lo:4 ~hi:8
         in
         { Gencorpus.name = "einsum-5t-r4"; ext; tree });
      ]
  in
  let admitted = ref 0 and total = ref 0 in
  List.iter
    (fun { Gencorpus.name; tree; _ } ->
      let tree = Tree.fuse_mult_sum tree in
      List.iter
        (fun (node, parent) ->
          match (node, Contraction.of_tree_node node) with
          | Tree.Contract (_, _, l, r), Ok contraction ->
            let f_out =
              match parent with
              | None -> [ Index.Set.empty ]
              | Some p -> Fusionset.candidates ~child:node ~parent:p
            in
            let loops = Tree.loop_indices node in
            let shapes =
              [
                ( edge_options ~child:l ~parent:node,
                  edge_options ~child:r ~parent:node,
                  f_out );
                ( random_options rng loops 5,
                  random_options rng loops 5,
                  List.map fst (random_options rng loops 4) );
              ]
            in
            List.iter
              (fun cfg ->
                List.iter
                  (fun variant ->
                    List.iter
                      (fun (left, right, f_out) ->
                        let expect =
                          reference_admitted cfg variant ~left ~right ~f_out
                        in
                        let got =
                          Search.Legal.admitted cfg variant ~left ~right ~f_out
                        in
                        admitted := !admitted + List.length expect;
                        total :=
                          !total
                          + List.length left * List.length right
                            * List.length f_out;
                        if got <> expect then
                          Alcotest.failf
                            "%s node %s, %a, %dx%d grid, distributed fusion \
                             %b: bitmask filter admits %d tuples, reference \
                             %d (or a different order)"
                            name (Tree.name node) Variant.pp variant
                            (Grid.rows cfg.Search.grid)
                            (Grid.cols cfg.Search.grid)
                            cfg.Search.allow_distributed_fusion
                            (List.length got) (List.length expect))
                      shapes)
                  (Variant.all contraction))
              (legality_configs ())
          | _ -> ())
        (contract_nodes ~parent:None tree []))
    instances;
  (* The comparison must not be vacuous: some tuples pass, most do not. *)
  if !admitted = 0 || !admitted >= !total then
    Alcotest.failf "degenerate legality sample: %d of %d tuples admitted"
      !admitted !total

(* ---------- frozen pruning reference ---------- *)

type item = {
  id : int;
  content : string;
  fkey : string;
  gid : int;
  cost : float;
  bytes : float;
  rots : int;
  okey : string;
}

let view =
  {
    Search.Pareto.cost = (fun x -> x.cost);
    bytes = (fun x -> x.bytes);
    rots = (fun x -> x.rots);
    okey = (fun x -> x.okey);
    group = (fun x -> x.gid);
    group_key = (fun x -> (x.content, x.fkey));
  }

(* The pairwise scan: a member is dominated when another member of its
   (content, fused) group is no worse on (cost, bytes) and strictly
   better on cost, bytes or rotations, or ties them all and wins on the
   oriented key, then on enumeration order. *)
let reference_prune items =
  let annotated = List.mapi (fun ord s -> (s, ord)) items in
  let groups = Hashtbl.create 32 in
  List.iter
    (fun ((s, _) as a) ->
      let k = (s.content, s.fkey) in
      Hashtbl.replace groups k
        (a :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    annotated;
  let filter_group group =
    let dominated (s, ord) =
      List.exists
        (fun (s', ord') ->
          s' != s && s'.cost <= s.cost && s'.bytes <= s.bytes
          && (s'.cost < s.cost || s'.bytes < s.bytes || s'.rots < s.rots
             || s'.rots = s.rots
                && (String.compare s'.okey s.okey < 0
                   || (String.equal s'.okey s.okey && ord' < ord))))
        group
    in
    List.filter_map
      (fun ((s, _) as a) -> if dominated a then None else Some s)
      group
  in
  List.concat_map filter_group
    (Hashtbl.fold (fun _ group acc -> group :: acc) groups [])

let reference_beam k items =
  match k with
  | Some k when List.length items > k ->
    List.mapi (fun ord s -> (s, (s.cost, s.bytes, s.rots, s.okey, s.fkey, ord)))
      items
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.filteri (fun i _ -> i < k)
    |> List.map fst
  | _ -> items

(* Groups with planted exact ties: costs and bytes drawn from tiny sets,
   so many members tie on both and differ only in rotations, orientation
   key or order — and some are exact duplicates. *)
let random_items rng n =
  let pick l = Prng.pick rng l in
  let ids = Hashtbl.create 8 in
  List.init n (fun id ->
      let content = pick [ "a,b"; "a,c"; "b,c" ]
      and fkey = pick [ ""; "a"; "a,b" ] in
      let gid =
        match Hashtbl.find_opt ids (content, fkey) with
        | Some g -> g
        | None ->
          let g = Hashtbl.length ids in
          Hashtbl.add ids (content, fkey) g;
          g
      in
      {
        id;
        content;
        fkey;
        gid;
        cost = pick [ 1.0; 2.0; 2.0; 3.5 ];
        bytes = pick [ 64.0; 128.0; 128.0; 256.0 ];
        rots = Prng.int rng ~bound:3;
        okey = pick [ "a,b"; "b,a"; "c,a" ];
      })

let ids l = List.map (fun x -> x.id) l

let test_prune_matches_reference () =
  let rng = Prng.create ~seed:7718 in
  Parsearch.with_pool ~jobs:2 (fun pool ->
      for trial = 1 to 300 do
        let items = random_items rng (1 + Prng.int rng ~bound:120) in
        let expect = ids (reference_prune items) in
        let arr = Array.of_list items in
        let check what got =
          Alcotest.(check (list int))
            (Printf.sprintf "trial %d: %s" trial what)
            expect (ids got)
        in
        check "sort-sweep" (Search.Pareto.prune view arr);
        check "sort-sweep on a pool" (Search.Pareto.prune ~pool view arr);
        let survivors = Search.Pareto.prune view arr in
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              (Printf.sprintf "trial %d: beam %d" trial k)
              (ids (reference_beam (Some k) items))
              (ids (Search.Pareto.beam view (Some k) items));
            Alcotest.(check (list int))
              (Printf.sprintf "trial %d: beam %d after prune" trial k)
              (ids (reference_beam (Some k) survivors))
              (ids (Search.Pareto.beam view (Some k) survivors)))
          [ 1; 4; 16 ]
      done)

let suite =
  [
    ( "search.oracle",
      [
        case "bitmask legality admits the reference tuples in order"
          test_legality_matches_reference;
        case "sort-sweep prune and beam match the pairwise reference"
          test_prune_matches_reference;
      ] );
  ]
