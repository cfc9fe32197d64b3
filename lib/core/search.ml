open! Import

type fusion_mode =
  | Enumerate
  | No_fusion
  | Fixed of (string * Index.Set.t) list

type config = {
  grid : Grid.t;
  params : Params.t;
  rcost : Rcost.t;
  mem_limit_bytes : float option;
  redist_factor : float;
  fusion_mode : fusion_mode;
  allow_distributed_fusion : bool;
}

let default_config ?mem_limit_bytes ?(redist_factor = 2.0)
    ?(fusion_mode = Enumerate) ?(allow_distributed_fusion = false) ~grid
    ~params ~rcost () =
  {
    grid;
    params;
    rcost;
    mem_limit_bytes;
    redist_factor;
    fusion_mode;
    allow_distributed_fusion;
  }

let mem_limit cfg =
  Option.value cfg.mem_limit_bytes
    ~default:cfg.params.Params.mem_per_node_bytes

(* Unordered distribution content, for matching producer against consumer
   (the pair order is an orientation artifact; see DESIGN.md). *)
let content_key dist =
  String.concat "," (List.sort compare (List.map Index.name (Dist.indices dist)))

(* [rots] counts the output rotations over every step below and at this
   node — the [better] and pruning tie-break, carried so neither walks
   [steps]. *)
type solution = {
  prod_dist : Dist.t;
  fused : Index.Set.t;
  cost : float;
  mem : Memacct.t;
  rots : int;
  steps : Plan.step list;
  presums : Plan.presum list;
}

type child_case =
  | Cleaf of Aref.t
  | Cpresum of { out : Aref.t; sum : Index.t list; source : Aref.t }
      (** a unary summation of an input, evaluated processor-locally *)
  | Csol of solution

let child_steps = function Cleaf _ | Cpresum _ -> [] | Csol s -> s.steps

let child_presums = function
  | Cleaf _ | Cpresum _ -> []
  | Csol s -> s.presums

(* [cap]: only consider fused sets of at most that many indices — the
   greedy seed's truncation of the 2^|fusible| per-edge candidate space
   (∅ and small sets carry most feasible plans; the exact search keeps
   [None] = everything). *)
let fusion_candidates ?cap cfg ~child ~parent =
  let fusible = Fusionset.fusible ~child ~parent in
  let truncate cands =
    match cap with
    | None -> cands
    | Some c -> List.filter (fun s -> Index.Set.cardinal s <= c) cands
  in
  match (cfg.fusion_mode, child) with
  | Enumerate, _ -> truncate (Fusionset.candidates ~child ~parent)
  | No_fusion, _ -> [ Index.Set.empty ]
  | Fixed _, Tree.Leaf _ ->
    (* Fixed assignments pin intermediate storage; a leaf edge's fusion
       only slices its communication and stays free. *)
    truncate (Fusionset.candidates ~child ~parent)
  | Fixed assignment, _ ->
    let wanted =
      Option.value ~default:Index.Set.empty
        (List.assoc_opt (Tree.name child) assignment)
    in
    [ Index.Set.inter wanted fusible ]

(* Equal-cost plans are common (the paper notes "any 2 arrays can be
   rotated for the same cost"); prefer rotating inputs over outputs — a
   rotated output ends displaced, so keeping it fixed is the tidier plan
   and matches the paper's choices. *)
let better a b =
  match Float.compare a.cost b.cost with
  | 0 -> compare a.rots b.rots
  | c -> c

let fused_key fused =
  String.concat "," (List.map Index.name (Index.Set.elements fused))

let orient_key dist =
  String.concat "," (List.map Index.name (Dist.indices dist))

(* --- Bitmask legality --------------------------------------------------- *)

(* Each index a node's fusion sets and distributions can mention gets one
   bit, so the legality tests of the enumeration's inner loop are integer
   operations instead of [Index.Set] walks. *)
let bits_of indices =
  if Index.Set.cardinal indices > Sys.int_size then None
  else
    Some
      (fst
         (Index.Set.fold
            (fun i (m, b) -> (Index.Map.add i (1 lsl b) m, b + 1))
            indices (Index.Map.empty, 0)))

(* A contraction's loop indices plus any further [sets]. *)
let universe (c : Contraction.t) sets =
  List.fold_left Index.Set.union
    (Index.set_of_list (c.i_set @ c.j_set @ c.k_set))
    sets

let mask_of_list bits l =
  List.fold_left (fun acc i -> acc lor Index.Map.find i bits) 0 l

let mask bits set =
  Index.Set.fold (fun i acc -> acc lor Index.Map.find i bits) set 0

module Legal = struct
  (* One consumption option as the legality rules see it: its fusion set
     and whether its fused loops force the node's nesting. Internal and
     presummed children store their reduced array under the edge fusion,
     so their fused loops force it; a leaf's edge fusion only streams its
     communication and does not. *)
  type side = { fm : int; internal : bool }

  (* A variant's rules as masks. [forbid_*]: indices the role's own fusion
     set may not contain — distributed ones (unless distributed fusion is
     allowed), and, for a rotated array, the one on its own rotation axis
     (a fused loop there would exchange slices between processors
     iterating different chunks of it). [ctx]: indices that are
     dimensions of both rotated arrays. *)
  type t = {
    forbid_out : int;
    forbid_left : int;
    forbid_right : int;
    ctx : int;
    rot_out : bool;
    rot_left : bool;
    rot_right : bool;
  }

  let make bits cfg variant =
    let forbid role =
      let dist = Variant.dist_of variant role in
      let distributed =
        if cfg.allow_distributed_fusion then 0
        else mask_of_list bits (Dist.indices dist)
      in
      match Option.bind (Variant.axis_of variant role) (Dist.at dist) with
      | Some t -> distributed lor Index.Map.find t bits
      | None -> distributed
    in
    {
      forbid_out = forbid Variant.Out;
      forbid_left = forbid Variant.Left;
      forbid_right = forbid Variant.Right;
      ctx =
        List.fold_left
          (fun acc (role, _) ->
            acc land mask_of_list bits (Variant.array_dims variant role))
          (-1) (Variant.rotated variant);
      rot_out = Variant.rotates variant Variant.Out;
      rot_left = Variant.rotates variant Variant.Left;
      rot_right = Variant.rotates variant Variant.Right;
    }

  let comparable a b = a land lnot b = 0 || b land lnot a = 0

  (* Positions of the [n] options whose mask avoids [forbid], in their
     original order. *)
  let keep forbid n fm =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if fm i land forbid = 0 then acc := i :: !acc
    done;
    Array.of_list !acc

  (* Calls [f li ri oi] for every legal (left, right, out) combination, in
     left × right × out enumeration order. Beyond the separable rules: the
     three fusion sets form a chain under inclusion, and every index of
     the forcing set — the output fusion plus the fusions of forcing
     children — is a dimension of both rotated arrays and fused on both
     their edges. A rotated array is communicated inside the forcing
     loops: a loop over an index it lacks would need a full re-rotation
     per iteration, which the MsgFactor equations cannot express, and an
     unfused one would leave the per-iteration cost uncharged. *)
  let iter lg ~(left : side array) ~(right : side array) ~(outs : int array)
      f =
    let ls = keep lg.forbid_left (Array.length left) (fun i -> left.(i).fm) in
    let rs =
      keep lg.forbid_right (Array.length right) (fun i -> right.(i).fm)
    in
    let os = keep lg.forbid_out (Array.length outs) (fun i -> outs.(i)) in
    Array.iter
      (fun li ->
        let l = left.(li) in
        let ctx_l = if lg.rot_left then lg.ctx land l.fm else lg.ctx in
        Array.iter
          (fun ri ->
            let r = right.(ri) in
            if comparable l.fm r.fm then begin
              let forced =
                (if l.internal then l.fm else 0)
                lor if r.internal then r.fm else 0
              in
              let ctx_lr = if lg.rot_right then ctx_l land r.fm else ctx_l in
              Array.iter
                (fun oi ->
                  let om = outs.(oi) in
                  let allowed = if lg.rot_out then ctx_lr land om else ctx_lr in
                  if
                    comparable l.fm om && comparable r.fm om
                    && (om lor forced) land lnot allowed = 0
                  then f li ri oi)
                os
            end)
          rs)
      ls

  let admitted cfg variant ~left ~right ~f_out =
    match
      bits_of
        (universe variant.Variant.contraction
           (List.map fst left @ List.map fst right @ f_out))
    with
    | None -> invalid_arg "Search.Legal.admitted: too many indices"
    | Some bits ->
      let side (fused, internal) = { fm = mask bits fused; internal } in
      let acc = ref [] in
      iter (make bits cfg variant)
        ~left:(Array.of_list (List.map side left))
        ~right:(Array.of_list (List.map side right))
        ~outs:(Array.of_list (List.map (mask bits) f_out))
        (fun li ri oi -> acc := (li, ri, oi) :: !acc);
      List.rev !acc
end

(* --- Pareto pruning and the beam cut ------------------------------------ *)

module Pareto = struct
  type 'a view = {
    cost : 'a -> float;
    bytes : 'a -> float;
    rots : 'a -> int;
    okey : 'a -> string;
    group : 'a -> int;
    group_key : 'a -> string * string;
  }

  (* The paper's "inferior solution" rule within (production-distribution
     content, fusion) groups. [s'] dominates [s] when it is no worse on
     (cost, node bytes) and strictly better on cost, bytes or output
     rotations; exact ties beyond that are broken by the oriented
     production distribution (the pair order the content key erases),
     then enumeration order, so exactly one of a set of duplicates
     survives.

     Given (cost', bytes') ≤ (cost, bytes) componentwise, that condition is
     exactly (cost', bytes', rots', okey', ord') < (cost, bytes, rots, okey,
     ord) lexicographically. So after a lexicographic sort of a group
     every earlier member has cost' ≤ cost, and a member is dominated iff
     some earlier one has bytes' ≤ bytes: it survives iff its bytes are
     strictly below every earlier member's. One O(n log n) sweep per
     group replaces the pairwise scan.

     Output order: groups in the order a [(content, fused)]-keyed
     [Hashtbl] created with size 32 folds them in (keys inserted in item
     order), last visited first; within a group, survivors in reverse
     item order. Each group is filtered on its own, so with a pool the
     groups are fanned out across its domains — the output is identical
     however many domains run the filter. *)
  let prune ?pool ?(fan_min = 0) v items =
    let n = Array.length items in
    let cost = Array.map v.cost items and bytes = Array.map v.bytes items in
    let ngroups = Array.fold_left (fun m x -> max m (v.group x + 1)) 0 items in
    let members = Array.make ngroups [] in
    let order = Hashtbl.create 32 in
    for idx = 0 to n - 1 do
      let g = v.group items.(idx) in
      if members.(g) = [] then
        Hashtbl.replace order (v.group_key items.(idx)) g;
      members.(g) <- idx :: members.(g)
    done;
    let lex i j =
      match Float.compare cost.(i) cost.(j) with
      | 0 -> (
        match Float.compare bytes.(i) bytes.(j) with
        | 0 -> (
          match Int.compare (v.rots items.(i)) (v.rots items.(j)) with
          | 0 -> (
            match String.compare (v.okey items.(i)) (v.okey items.(j)) with
            | 0 -> Int.compare i j
            | c -> c)
          | c -> c)
        | c -> c)
      | c -> c
    in
    let filter_group g =
      let sorted = Array.of_list members.(g) in
      Array.sort lex sorted;
      let survivors = ref [] in
      Array.iter
        (fun i ->
          match !survivors with
          | best :: _ when not (bytes.(i) < bytes.(best)) -> ()
          | _ -> survivors := i :: !survivors)
        sorted;
      List.map
        (fun i -> items.(i))
        (List.sort (fun a b -> Int.compare b a) !survivors)
    in
    let groups =
      Array.of_list (Hashtbl.fold (fun _ g acc -> g :: acc) order [])
    in
    let filtered =
      match pool with
      | Some p when n >= fan_min && Array.length groups > 1 ->
        Parsearch.map_array p filter_group groups
      | _ -> Array.map filter_group groups
    in
    List.concat (Array.to_list filtered)

  (* Anytime narrowing: keep the [k] best under a total order — cost, then
     node bytes, then output rotations, then the oriented
     production-distribution key, then the fused-set key, then position.
     The order never ties, so the cut is deterministic for every [jobs]
     setting. *)
  let beam v k items =
    match k with
    | Some k when List.length items > k ->
      List.mapi
        (fun ord x ->
          ( (v.cost x, v.bytes x, v.rots x, v.okey x, snd (v.group_key x), ord),
            x ))
        items
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> Listx.take k |> List.map snd
    | _ -> items
end

(* --- Compact candidates ------------------------------------------------- *)

(* A consumption option of one child, the half that does not depend on
   the variant. [prod]: the distribution an intermediate was produced in,
   or a pinned leaf's stored one, renamed onto this occurrence ([None]
   for inputs and presums, which materialize in whatever distribution the
   variant wants). *)
type case = {
  kind : child_case;
  cfused : Index.Set.t;
  leg : Legal.side;
  prod : Dist.t option;
  prod_m : int;
  pin_words : int;  (** resident words of a pinned leaf *)
}

(* A case under one variant: what it adds to a candidate's cost and
   memory. [res]/[buf]: the child's resident words plus this edge's, and
   the larger of the child's buffer and this edge's message. [rc]: the
   role's rotation cost (0 when it does not rotate); [rdc]: the
   redistribution cost (0 when none). *)
type vside = {
  vc : case;
  ccost : float;
  res : int;
  buf : int;
  rc : float;
  rdc : float;
  redist : bool;
  illegal : bool;  (** no legal redistribution into this variant *)
  crots : int;
}

(* An output fusion under one variant: the produced block's resident
   words (and, when the output rotates, its message) and rotation cost. *)
type vout = {
  ofused : Index.Set.t;
  fid : int;  (** group id of the fused-set key: its first position *)
  ores : int;
  obuf : int;
  orc : float;
}

type vinfo = {
  variant : Variant.t;
  alpha_out : Dist.t;
  okey : string;
  ckey : string;
  cid : int;  (** group id of the content key: its first variant *)
  out_rot : int;
}

(* A candidate carries what pruning and the beam compare, plus the inputs
   to rebuild its step; steps and presums are materialized only for the
   candidates that survive. *)
type cand = {
  cost : float;
  bytes : float;
  mem : Memacct.t;
  rots : int;
  v : vinfo;
  l : vside;
  r : vside;
  o : vout;
  gid : int;
}

(* Interned group keys: a key's id is the first position holding it. *)
let first_ids keys =
  let seen = Hashtbl.create 16 in
  Array.mapi
    (fun i k ->
      match Hashtbl.find_opt seen k with
      | Some j -> j
      | None ->
        Hashtbl.add seen k i;
        i)
    keys

let cand_view fkeys =
  {
    Pareto.cost = (fun c -> c.cost);
    bytes = (fun c -> c.bytes);
    rots = (fun c -> c.rots);
    okey = (fun c -> c.v.okey);
    group = (fun c -> c.gid);
    group_key = (fun c -> (c.v.ckey, fkeys.(c.o.fid)));
  }

(* Rebuild a surviving candidate's solution: its step, the rotation and
   redistribution records, and the presums of its input edges. *)
let materialize ext ~contraction ~flops c =
  let variant = c.v.variant in
  let rc_of = function
    | Variant.Out -> c.o.orc
    | Variant.Left -> c.l.rc
    | Variant.Right -> c.r.rc
  in
  let rotations =
    List.map (fun (role, _) -> (role, rc_of role)) (Variant.rotated variant)
  in
  let redist role s =
    match s.vc.prod with
    | Some from_dist when s.redist ->
      Some
        {
          Plan.role;
          from_dist;
          to_dist = Variant.dist_of variant role;
          cost = s.rdc;
        }
    | _ -> None
  in
  let presum role s =
    match s.vc.kind with
    | Cpresum { out; sum; source } ->
      [
        {
          Plan.out;
          sum;
          source;
          dist = Variant.dist_of variant role;
          fused = s.vc.cfused;
          flops = Extents.size_of ext (Aref.indices source);
        };
      ]
    | Cleaf _ | Csol _ -> []
  in
  let step =
    {
      Plan.contraction;
      variant;
      fusion_out = c.o.ofused;
      fusion_left = c.l.vc.cfused;
      fusion_right = c.r.vc.cfused;
      rotations;
      redists =
        List.filter_map Fun.id
          [ redist Variant.Left c.l; redist Variant.Right c.r ];
      flops;
    }
  in
  {
    prod_dist = c.v.alpha_out;
    fused = c.o.ofused;
    cost = c.cost;
    mem = c.mem;
    rots = c.rots;
    steps = child_steps c.l.vc.kind @ child_steps c.r.vc.kind @ [ step ];
    presums =
      child_presums c.l.vc.kind @ child_presums c.r.vc.kind
      @ presum Variant.Left c.l @ presum Variant.Right c.r;
  }

let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* --- Memoization ------------------------------------------------------- *)

module SMap = Map.Make (String)

(* The memo table is shared across concurrent subtree solves, so it is
   sharded: each shard pairs a mutex with a plain hash table, and a key
   only ever contends with keys hashing to its shard. Lookup and store
   are separate critical sections — two domains may race to solve the
   same key, in which case both miss and the later store wins; that is
   benign because cached solutions are α-equivalent (hits are
   plan-invisible, an invariant the fuzz suite checks), only the
   hit/miss split varies with scheduling. Counters are atomics so the
   split stays exact at jobs = 1. *)
type memo_shard = {
  lock : Mutex.t;
  table : (string, Tree.t * solution list) Hashtbl.t;
}

type memo = {
  shards : memo_shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let memo_shard_count = 16

let memo_create () =
  {
    shards =
      Array.init memo_shard_count (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 16 });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let memo_shard memo key =
  memo.shards.(Hashtbl.hash key land (memo_shard_count - 1))

let memo_find memo key =
  let s = memo_shard memo key in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.table key in
  Mutex.unlock s.lock;
  r

let memo_store memo key v =
  let s = memo_shard memo key in
  Mutex.lock s.lock;
  Hashtbl.replace s.table key v;
  Mutex.unlock s.lock

(* The content fingerprint of a subtree: structure, index lists and leaf
   names, with intermediate names erased (α-renaming) so that two
   occurrences of the same subcomputation under different output names
   share their solutions. Under [Fixed] fusion the intermediate names are
   semantic (the assignment is keyed on them), so they stay in. *)
let fingerprint ~with_names node =
  let buf = Buffer.create 128 in
  let str = Buffer.add_string buf in
  let idxs l =
    List.iter
      (fun i ->
        str (Index.name i);
        Buffer.add_char buf ',')
      l
  in
  let inner a =
    if with_names then str (Aref.name a);
    Buffer.add_char buf '[';
    idxs (Aref.indices a);
    Buffer.add_char buf ']'
  in
  let rec go = function
    | Tree.Leaf a ->
      str "L";
      str (Aref.name a);
      Buffer.add_char buf '[';
      idxs (Aref.indices a);
      Buffer.add_char buf ']'
    | Tree.Sum (a, k, c) ->
      str "S";
      inner a;
      Buffer.add_char buf '{';
      idxs k;
      str "}(";
      go c;
      Buffer.add_char buf ')'
    | Tree.Mult (a, l, r) ->
      str "M";
      inner a;
      Buffer.add_char buf '(';
      go l;
      str ")(";
      go r;
      Buffer.add_char buf ')'
    | Tree.Contract (a, k, l, r) ->
      str "C";
      inner a;
      Buffer.add_char buf '{';
      idxs k;
      str "}(";
      go l;
      str ")(";
      go r;
      Buffer.add_char buf ')'
  in
  go node;
  Buffer.contents buf

let candidates_key cands =
  String.concat "|" (List.map fused_key cands)

let memo_key cfg node cands =
  let with_names =
    match cfg.fusion_mode with Fixed _ -> true | Enumerate | No_fusion -> false
  in
  fingerprint ~with_names node ^ "#" ^ candidates_key cands

(* Rename map from the cached subtree's intermediate names to the current
   one's. The trees share a fingerprint, so they align node for node and
   their leaves carry identical names. Returns [None] in the pathological
   case where a leaf name collides with a cached intermediate name (the
   by-name rewrite would then touch the leaf too) — the caller falls back
   to recomputing. *)
let alpha_map ~cached ~current =
  let add a b acc =
    if String.equal (Aref.name a) (Aref.name b) then acc
    else SMap.add (Aref.name a) (Aref.name b) acc
  in
  let rec go cached current acc =
    match (cached, current) with
    | Tree.Leaf _, Tree.Leaf _ -> acc
    | Tree.Sum (a, _, c), Tree.Sum (b, _, c') -> go c c' (add a b acc)
    | Tree.Mult (a, l, r), Tree.Mult (b, l', r')
    | Tree.Contract (a, _, l, r), Tree.Contract (b, _, l', r') ->
      go r r' (go l l' (add a b acc))
    | _ -> acc (* unreachable: the fingerprints matched *)
  in
  let map = go cached current SMap.empty in
  let rec leaf_clash = function
    | Tree.Leaf a -> SMap.mem (Aref.name a) map
    | Tree.Sum (_, _, c) -> leaf_clash c
    | Tree.Mult (_, l, r) | Tree.Contract (_, _, l, r) ->
      leaf_clash l || leaf_clash r
  in
  if leaf_clash cached then None else Some map

let rename_bug what =
  Tce_error.raise_err
    (Tce_error.errorf "Search memo: renaming a cached %s failed (bug)" what)

let rename_aref m a =
  match SMap.find_opt (Aref.name a) m with
  | Some fresh -> Aref.rename a fresh
  | None -> a

let rename_contraction m (c : Contraction.t) =
  match
    Contraction.make ~out:(rename_aref m c.Contraction.out)
      ~left:(rename_aref m c.Contraction.left)
      ~right:(rename_aref m c.Contraction.right)
      ~sum:c.Contraction.k_set
  with
  | Ok c -> c
  | Error _ -> rename_bug "contraction"

let rename_variant m (v : Variant.t) =
  match
    Variant.make
      (rename_contraction m v.Variant.contraction)
      ~i:v.Variant.i ~j:v.Variant.j ~k:v.Variant.k ~rot:v.Variant.rot
  with
  | Ok v -> v
  | Error _ -> rename_bug "variant"

let rename_step m (s : Plan.step) =
  {
    s with
    Plan.contraction = rename_contraction m s.Plan.contraction;
    variant = rename_variant m s.Plan.variant;
  }

let rename_presum m (p : Plan.presum) =
  {
    p with
    Plan.out = rename_aref m p.Plan.out;
    source = rename_aref m p.Plan.source;
  }

let rename_solution m s =
  if SMap.is_empty m then s
  else
    {
      s with
      steps = List.map (rename_step m) s.steps;
      presums = List.map (rename_presum m) s.presums;
    }

(* --- The DP ------------------------------------------------------------ *)

type ctx = {
  cfg : config;
  ext : Extents.t;
  prune : bool;
  beam : int option;
  fusion_cap : int option;
  pool : Parsearch.t option;
  memo : memo option;
  cancel : (unit -> bool) option;
  pinned : (Index.t list * Dist.t) SMap.t;
      (** Sum optimization: leaf names that are shared intermediates,
          already materialized in the given distribution over the given
          index order (the representative's). Such a leaf is consumed
          like a produced intermediate — content-equal for free,
          otherwise through a costed redistribution — and its storage is
          charged as resident. Empty for single-tree solves. *)
}

(* Cooperative cancellation, checked at every DP node (and before each
   per-variant enumeration block, so a single huge node stays
   responsive). The raise propagates through [Parsearch.map_array] —
   which drains its round first, leaving a persistent pool reusable —
   and out of [optimize] as the typed error. *)
let check_cancel ctx =
  match ctx.cancel with
  | Some cancelled when cancelled () ->
    Tce_error.raise_err (Tce_error.Deadline_exceeded { where = "Search.solve" })
  | _ -> ()

(* Contract nodes below a tree node — the size measure for the coarse
   fork cutover. *)
let rec contract_weight = function
  | Tree.Leaf _ -> 0
  | Tree.Sum (_, _, c) -> contract_weight c
  | Tree.Mult (_, l, r) -> contract_weight l + contract_weight r
  | Tree.Contract (_, _, l, r) ->
    1 + contract_weight l + contract_weight r

(* Cutover thresholds between coarse parallel work and the plain
   sequential loop. [fork_grain]: minimum contract nodes on *each* side
   of a node before its two child subtrees are solved as separate tasks
   (a side without its own contraction is a leaf/presum case list —
   nothing to fork). [fanout_min]: minimum per-variant candidate block
   (|left cases| × |right cases| × |parent fusions|) before the node's
   variant enumeration — and its prune-group filtering — are fanned out
   item-wise; below it each task would cost microseconds and scheduling
   would dominate, which is precisely the regression the committed
   BENCH_search.json recorded on the old per-variant-always pool. Both
   thresholds are functions of the instance alone, never of timing, so
   the chosen path — and with it the result — is deterministic. *)
let fork_grain = 1
let fanout_min = 256

(* --- One node's enumeration --------------------------------------------- *)

(* A node's consumption options, shared by every variant's enumeration:
   the cases of both children, the output fusions and their masks, and
   [fids], each output fusion's group id. *)
type node_cases = {
  bits : int Index.Map.t;
  lcases : case array;
  rcases : case array;
  lsides : Legal.side array;
  rsides : Legal.side array;
  f_outs : Index.Set.t array;
  outs : int array;
  fids : int array;
}

(* A pinned leaf (a shared intermediate of a sum, materialized earlier in
   [stored] over [rep_order]) is consumed under producer rules; its
   effective production distribution is the stored one renamed
   positionally onto this occurrence's indices. *)
let prod_of ctx = function
  | Csol s -> Some s.prod_dist
  | Cleaf a ->
    Option.map
      (fun (rep_order, stored) ->
        Dist.rename stored ~from:rep_order ~into:(Aref.indices a))
      (SMap.find_opt (Aref.name a) ctx.pinned)
  | Cpresum _ -> None

let make_case ctx bits (kind, fused, prod) =
  let rows = Grid.rows ctx.cfg.grid and cols = Grid.cols ctx.cfg.grid in
  let internal =
    match kind with Csol _ | Cpresum _ -> true | Cleaf _ -> false
  in
  {
    kind;
    cfused = fused;
    leg = { Legal.fm = mask bits fused; internal };
    prod;
    prod_m =
      (match prod with
      | Some d -> mask_of_list bits (Dist.indices d)
      | None -> 0);
    pin_words =
      (match (kind, prod) with
      | Cleaf a, Some p ->
        (* a pinned value is charged resident, unreduced: it outlives
           this term *)
        Eqs.dist_size_rect ctx.ext ~rows ~cols ~alpha:p ~fused:Index.Set.empty
          ~dims:(Aref.indices a)
      | _ -> 0);
  }

(* The node's cases and bit assignment; [None] when its indices do not
   fit one mask. *)
let node_cases ctx contraction ~left ~right ~f_out_candidates =
  let with_prod =
    List.map (fun (kind, fused) -> (kind, fused, prod_of ctx kind))
  in
  let left = with_prod left and right = with_prod right in
  let f_outs = Array.of_list f_out_candidates in
  let indices (_, fused, prod) =
    Index.Set.union fused
      (Index.set_of_list (Option.fold ~none:[] ~some:Dist.indices prod))
  in
  Option.map
    (fun bits ->
      let lcases = Array.of_list (List.map (make_case ctx bits) left) in
      let rcases = Array.of_list (List.map (make_case ctx bits) right) in
      {
        bits;
        lcases;
        rcases;
        lsides = Array.map (fun c -> c.leg) lcases;
        rsides = Array.map (fun c -> c.leg) rcases;
        f_outs;
        outs = Array.map (mask bits) f_outs;
        fids = first_ids (Array.map fused_key f_outs);
      })
    (bits_of
       (universe contraction
          (List.map indices (left @ right) @ f_out_candidates)))

(* Per fused set of one (variant, role), computed once: the block's words
   (its message size when it rotates or is redistributed), its rotation
   cost and its redistribution cost. *)
let role_costs ctx variant role =
  let cfg = ctx.cfg and ext = ctx.ext in
  let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
  let alpha = Variant.dist_of variant role in
  let dims = Variant.array_dims variant role in
  let axis = Variant.axis_of variant role in
  let seen = Hashtbl.create 8 in
  fun fm fused ->
    match Hashtbl.find_opt seen fm with
    | Some e -> e
    | None ->
      let words = Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims in
      let rc =
        match axis with
        | None -> 0.0
        | Some axis ->
          Eqs.rotate_cost_rect ~rcost:cfg.rcost ext ~alpha ~fused ~dims ~axis
      in
      let rdc =
        cfg.redist_factor
        *. float_of_int
             (Eqs.msg_factor_rect ext ~rows ~cols ~alpha ~fused ~dims)
        *. Rcost.query cfg.rcost ~axis:1 ~words
      in
      let e = (words, rc, rdc) in
      Hashtbl.add seen fm e;
      e

(* One child's cases under one variant. *)
let variant_sides ctx bits variant role cases =
  let ext = ctx.ext in
  let rows = Grid.rows ctx.cfg.grid and cols = Grid.cols ctx.cfg.grid in
  let alpha = Variant.dist_of variant role in
  let cons_m = mask_of_list bits (Dist.indices alpha) in
  let rotated = Variant.rotates variant role in
  let costs = role_costs ctx variant role in
  Array.map
    (fun c ->
      let words, rc, rdc = costs c.leg.fm c.cfused in
      (* Consuming a produced (or pinned) array is free when the contents
         agree; otherwise it is redistributed, which under fusion is legal
         only when every fused index is distributed at both ends or at
         neither — the paper's constraint (iii). *)
      let redist, illegal =
        match c.prod with
        | None -> (false, false)
        | Some _ when c.prod_m = cons_m -> (false, false)
        | Some _ -> (true, c.leg.fm land (c.prod_m lxor cons_m) <> 0)
      in
      let resident =
        match c.kind with
        | Cleaf _ when c.prod <> None -> c.pin_words
        | Cleaf a ->
          (* inputs materialize in the required distribution for free *)
          Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused:Index.Set.empty
            ~dims:(Aref.indices a)
        | Cpresum { out; source; _ } ->
          (* the source input stays fully resident; the reduced array is
             stored under the edge fusion *)
          Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused:Index.Set.empty
            ~dims:(Aref.indices source)
          + Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused:c.cfused
              ~dims:(Aref.indices out)
        | Csol _ -> 0
      in
      let ccost, cmem, crots =
        match c.kind with
        | Csol s -> (s.cost, s.mem, s.rots)
        | Cleaf _ | Cpresum _ -> (0.0, Memacct.empty, 0)
      in
      {
        vc = c;
        ccost;
        res = cmem.Memacct.resident_words + resident;
        buf =
          (if rotated || redist then max cmem.Memacct.buffer_words words
           else cmem.Memacct.buffer_words);
        rc = (if rotated then rc else 0.0);
        rdc = (if redist then rdc else 0.0);
        redist;
        illegal;
        crots;
      })
    cases

(* The candidates of one Cannon variant: its (left case × right case ×
   output fusion) block, legal combinations within the memory limit
   pushed in front, so the list is the enumeration order reversed. *)
let enumerate ctx nc vi =
  check_cancel ctx;
  let cfg = ctx.cfg in
  let variant = vi.variant in
  let vl = variant_sides ctx nc.bits variant Variant.Left nc.lcases in
  let vr = variant_sides ctx nc.bits variant Variant.Right nc.rcases in
  let vo =
    let costs = role_costs ctx variant Variant.Out in
    Array.mapi
      (fun oi f ->
        let words, orc, _ = costs nc.outs.(oi) f in
        {
          ofused = f;
          fid = nc.fids.(oi);
          ores = words;
          obuf = (if vi.out_rot = 1 then words else 0);
          orc;
        })
      nc.f_outs
  in
  let rotated = Variant.rotated variant in
  let limit = mem_limit cfg in
  let nf = Array.length nc.f_outs in
  let acc = ref [] in
  Legal.iter (Legal.make nc.bits cfg variant) ~left:nc.lsides ~right:nc.rsides
    ~outs:nc.outs (fun li ri oi ->
      let l = vl.(li) and r = vr.(ri) in
      if not (l.illegal || r.illegal) then begin
        let o = vo.(oi) in
        (* Summed in the order the plan lists them: rotations, then
           redistributions. *)
        let rot =
          List.fold_left
            (fun a (role, _) ->
              a
              +.
              match role with
              | Variant.Out -> o.orc
              | Variant.Left -> l.rc
              | Variant.Right -> r.rc)
            0.0 rotated
        in
        let red = if l.redist then 0.0 +. l.rdc else 0.0 in
        let red = if r.redist then red +. r.rdc else red in
        let mem =
          {
            Memacct.resident_words = l.res + r.res + o.ores;
            buffer_words = max (max l.buf r.buf) o.obuf;
          }
        in
        let bytes = Memacct.node_bytes cfg.params mem in
        if bytes <= limit then
          acc :=
            {
              cost = l.ccost +. r.ccost +. rot +. red;
              bytes;
              mem;
              rots = l.crots + r.crots + vi.out_rot;
              v = vi;
              l;
              r;
              o;
              gid = (vi.cid * nf) + o.fid;
            }
            :: !acc
      end);
  !acc

(* Solutions of the subtree rooted at [node]; [parent] provides the fusion
   candidates for the edge above (None at the root: fusion is empty). *)
let rec solve ctx ~parent node =
  let ( let* ) = Result.bind in
  check_cancel ctx;
  match node with
  | Tree.Leaf a ->
    err "leaf %s cannot be the whole computation" (Aref.name a)
  | Tree.Mult (a, _, _) ->
    err
      "node %s is a multiplication without summation (Hadamard); outside \
       the generalized Cannon template — restructure the expression"
      (Aref.name a)
  | Tree.Sum (a, _, Tree.Leaf _) ->
    err
      "summation node %s cannot be the whole computation (nothing to \
       distribute)"
      (Aref.name a)
  | Tree.Sum (a, _, _) ->
    err
      "node %s is a unary summation of an intermediate; the parallel \
       optimizer handles contraction trees with input pre-summations \
       (restructure the expression)"
      (Aref.name a)
  | Tree.Contract (_, _, l, r) ->
    let* contraction = Contraction.of_tree_node node in
    let f_out_candidates =
      match parent with
      | None -> [ Index.Set.empty ]
      | Some p ->
        fusion_candidates ?cap:ctx.fusion_cap ctx.cfg ~child:node ~parent:p
    in
    (match ctx.memo with
    | None -> solve_contract ctx ~contraction ~f_out_candidates node l r
    | Some memo -> begin
      let key = memo_key ctx.cfg node f_out_candidates in
      let cached =
        match memo_find memo key with
        | None -> None
        | Some (cached_tree, sols) -> begin
          match alpha_map ~cached:cached_tree ~current:node with
          | None -> None
          | Some m -> Some (List.map (rename_solution m) sols)
        end
      in
      match cached with
      | Some sols ->
        Atomic.incr memo.hits;
        if Obs.enabled () then Obs.count "search.memo_hits";
        Ok sols
      | None ->
        Atomic.incr memo.misses;
        if Obs.enabled () then Obs.count "search.memo_misses";
        let* sols = solve_contract ctx ~contraction ~f_out_candidates node l r in
        memo_store memo key (node, sols);
        Ok sols
    end)

and solve_contract ctx ~contraction ~f_out_candidates node l r =
  let ( let* ) = Result.bind in
  (* The coarse unit of work: when both children carry their own
     contractions, solve them as two independent DP tasks (the right one
     lands on this domain's deque, where an idle domain steals it).
     Sequential evaluation short-circuits on a left error without
     touching the right subtree; the parallel arm evaluates both but
     reports the left error first, so the surfaced error — like the
     solutions — is identical for every jobs setting. *)
  let* left, right =
    match ctx.pool with
    | Some p
      when contract_weight l >= fork_grain && contract_weight r >= fork_grain
      ->
      let lr, rr =
        Parsearch.both p
          (fun () -> child_cases ctx node l)
          (fun () -> child_cases ctx node r)
      in
      let* lcs = lr in
      let* rcs = rr in
      Ok (lcs, rcs)
    | _ ->
      let* lcs = child_cases ctx node l in
      let* rcs = child_cases ctx node r in
      Ok (lcs, rcs)
  in
  let out_aref = contraction.Contraction.out in
  match node_cases ctx contraction ~left ~right ~f_out_candidates with
  | None ->
    err "node %s mentions more indices than the search's %d-bit masks hold"
      (Aref.name out_aref) Sys.int_size
  | Some nc ->
  let variants = Array.of_list (Variant.all contraction) in
  let ckeys =
    Array.map (fun v -> content_key (Variant.dist_of v Variant.Out)) variants
  in
  let cids = first_ids ckeys in
  let vinfos =
    Array.mapi
      (fun k variant ->
        let alpha_out = Variant.dist_of variant Variant.Out in
        {
          variant;
          alpha_out;
          okey = orient_key alpha_out;
          ckey = ckeys.(k);
          cid = cids.(k);
          out_rot = (if Variant.rotates variant Variant.Out then 1 else 0);
        })
      variants
  in
  (* One task per Cannon variant, fanned out only when each block is big
     enough to amortize a task; small nodes run the plain loop on this
     domain. *)
  let block =
    Array.length nc.lcases * Array.length nc.rcases * Array.length nc.f_outs
  in
  let per_variant =
    match ctx.pool with
    | Some p when Array.length variants > 1 && block >= fanout_min ->
      Parsearch.map_array p (enumerate ctx nc) vinfos
    | _ -> Array.map (enumerate ctx nc) vinfos
  in
  (* Reversing the variant order before concatenation reproduces the
     single-accumulator list (last variant's pushes in front), keeping the
     enumeration-order tie-break identical for every [jobs] setting. *)
  let cands = List.concat (List.rev (Array.to_list per_variant)) in
  let generated = List.length cands in
  let view = cand_view (Array.map fused_key nc.f_outs) in
  let cands =
    if ctx.prune then
      Pareto.prune ?pool:ctx.pool ~fan_min:fanout_min view (Array.of_list cands)
    else cands
  in
  let flops = Contraction.flops ctx.ext contraction in
  let sols =
    List.map
      (materialize ctx.ext ~contraction ~flops)
      (Pareto.beam view ctx.beam cands)
  in
  if Obs.enabled () then begin
    let kept = List.length sols in
    Obs.count "search.nodes";
    Obs.count ~by:generated "search.solutions_generated";
    Obs.count ~by:kept "search.solutions_kept";
    Obs.count ~by:(generated - kept) "search.solutions_pruned";
    Obs.instant ~cat:"search"
      ~args:
        [
          ("generated", string_of_int generated);
          ("kept", string_of_int kept);
        ]
      ("search:" ^ Aref.name out_aref)
  end;
  if sols = [] then
    err "no feasible solution at node %s under the %a memory limit"
      (Aref.name out_aref) Units.pp_bytes_si (mem_limit ctx.cfg)
  else Ok sols

(* The consumption options for one child: for an internal child each of its
   solutions (which fix the edge fusion); for a leaf, every fusion
   candidate (inputs may start in any distribution at no cost). *)
and child_cases ctx parent_node child =
  let ( let* ) = Result.bind in
  match child with
  | Tree.Leaf a ->
    Ok
      (List.map
         (fun f -> (Cleaf a, f))
         (fusion_candidates ?cap:ctx.fusion_cap ctx.cfg ~child
            ~parent:parent_node))
  | Tree.Sum (a, k, Tree.Leaf src) ->
    (* A pre-summation of an input: evaluated locally on each processor's
       block (the summed dimensions are never in the distribution pair, by
       construction), so it only contributes storage and local flops. *)
    Ok
      (List.map
         (fun f -> (Cpresum { out = a; sum = k; source = src }, f))
         (fusion_candidates ?cap:ctx.fusion_cap ctx.cfg ~child
            ~parent:parent_node))
  | _ ->
    let* sols = solve ctx ~parent:(Some parent_node) child in
    Ok (List.map (fun s -> (Csol s, s.fused)) sols)

let check_grid cfg =
  if
    Rcost.rows cfg.rcost <> Grid.rows cfg.grid
    || Rcost.cols cfg.rcost <> Grid.cols cfg.grid
  then
    Error
      (Printf.sprintf
         "characterization was measured for a %dx%d grid but the target is \
          %dx%d"
         (Rcost.rows cfg.rcost) (Rcost.cols cfg.rcost) (Grid.rows cfg.grid)
         (Grid.cols cfg.grid))
  else Ok ()

(* Turn a chosen solution into a plan (the plan-construction tail every
   entry point shares). *)
let assemble_solution cfg ext best =
  let flops =
    List.fold_left (fun acc (s : Plan.step) -> acc + s.flops) 0 best.steps
  in
  let flops =
    flops
    + List.fold_left (fun acc (p : Plan.presum) -> acc + p.flops) 0 best.presums
  in
  Tce_error.to_string_result
    (Tce_error.protect (fun () ->
         Plan.assemble ~ext ~grid:cfg.grid ~params:cfg.params ~flops
           ~mem:best.mem ~presums:best.presums best.steps))

(* The preamble every entry point shares: argument checks, then [f]
   runs on the caller's pool, on a fresh [jobs]-wide one, or with none.
   [f] receives the effective width. *)
let with_search ?(jobs = 1) ?beam ?pool cfg f =
  let ( let* ) = Result.bind in
  let* () =
    if jobs < 1 then err "search: jobs must be >= 1 (got %d)" jobs else Ok ()
  in
  let* () =
    match beam with
    | Some k when k < 1 -> err "search: beam width must be >= 1 (got %d)" k
    | _ -> Ok ()
  in
  let* () = check_grid cfg in
  match pool with
  | Some p -> f ~jobs:(Parsearch.jobs p) (Some p)
  | None ->
    if jobs > 1 then Parsearch.with_pool ~jobs (fun p -> f ~jobs (Some p))
    else f ~jobs None

(* One bottom-up solve of a whole tree under a fresh memo (memo entries
   do not capture pinned distributions, so they must not outlive one
   solve), returning the root's full solution list. *)
let solve_root ?(memo = true) ?beam ?fusion_cap ?cancel ?(pinned = SMap.empty)
    cfg ext pool tree ~prune =
  let ( let* ) = Result.bind in
  let tree = Tree.fuse_mult_sum tree in
  let* () = Tree.validate tree in
  let memo = if memo then Some (memo_create ()) else None in
  let ctx =
    { cfg; ext; prune; beam; fusion_cap; pool; memo; cancel; pinned }
  in
  Result.map (fun sols -> (sols, memo)) (solve ctx ~parent:None tree)

let run ?(select = better) ?jobs ?memo ?beam ?fusion_cap ?cancel ?pool cfg
    ext tree ~prune =
  let ( let* ) = Result.bind in
  let* sols, memo_state =
    with_search ?jobs ?beam ?pool cfg (fun ~jobs pool ->
        Obs.span ~cat:"search"
          ~args:[ ("jobs", string_of_int jobs) ]
          "search.solve"
          (fun () ->
            solve_root ?memo ?beam ?fusion_cap ?cancel cfg ext pool tree
              ~prune))
  in
  (match memo_state with
  | Some m when Obs.enabled () ->
    Obs.instant ~cat:"search"
      ~args:
        [
          ("hits", string_of_int (Atomic.get m.hits));
          ("misses", string_of_int (Atomic.get m.misses));
        ]
      "search:memo"
  | _ -> ());
  match Listx.minimum_by select sols with
  | None -> Error "no feasible solution"
  | Some best -> assemble_solution cfg ext best

let optimize ?jobs ?memo ?beam ?cancel ?pool cfg ext tree =
  run ?jobs ?memo ?beam ?cancel ?pool cfg ext tree ~prune:true

let brute_force cfg ext tree = run ~memo:false cfg ext tree ~prune:false

let optimize_min_memory ?jobs ?memo ?beam ?cancel ?pool cfg ext tree =
  (* Lexicographic (memory, communication): the "fuse as much as legally
     possible first, then distribute" discipline of the sequential
     prior work, transplanted into the parallel legality space. *)
  let select (a : solution) (b : solution) =
    match
      Float.compare
        (Memacct.node_bytes cfg.params a.mem)
        (Memacct.node_bytes cfg.params b.mem)
    with
    | 0 -> better a b
    | c -> c
  in
  run ~select ?jobs ?memo ?beam ?cancel ?pool cfg ext tree ~prune:true

(* --- Anytime: greedy seed, then widening beam refinement --------------- *)

(* The greedy seed is the beam-1 DP on a truncated candidate space: at
   every node keep only the single cheapest candidate under the paper's
   cost model (the beam order is cost-first) — the locally cheapest
   (variant, fusion, child-case) choice propagated bottom-up — and only
   consider fused sets of at most one index per edge (the 2^|fusible|
   per-edge enumeration is where the exact search spends its time). A
   cut this aggressive can strand the search — the kept child solution
   may admit no legal parent combination under the memory limit, or the
   memory-saving fusion it needs may exceed the cap — so on
   infeasibility the rungs widen (beam 1/cap 1 → 4/2 → 16/all → exact)
   before giving up. Every plan this returns came through
   [Plan.assemble] on a fully costed solution, so it is
   [Plan.validate]-certifiable like any exact plan. *)
let greedy_rungs = [ (1, Some 1); (4, Some 2); (16, None) ]

let greedy ?jobs ?memo ?cancel ?pool cfg ext tree =
  let rec go = function
    | [] -> run ?jobs ?memo ?cancel ?pool cfg ext tree ~prune:true
    | (w, cap) :: rest -> (
      match
        run ?jobs ?memo ~beam:w ?fusion_cap:cap ?cancel ?pool cfg ext tree
          ~prune:true
      with
      | Ok plan -> Ok plan
      | Error _ -> go rest)
  in
  go greedy_rungs

type anytime_round = { width : int option; cost : float; improved : bool }

(* The first round is the capped greedy seed (milliseconds); each later
   round is a fresh DP at the next beam width with the full candidate
   space (memo entries hold beam-cut solution lists, so they cannot be
   shared across widths); the best plan so far is kept, which makes the
   reported cost monotone non-increasing by construction, and the final
   unbounded round makes the limit the exact optimum. A deadline raised
   mid-round returns the best-so-far instead of failing, provided any
   round completed. *)
let anytime ?jobs ?memo ?(widths = [ 4; 16; 64 ]) ?on_round ?cancel ?pool cfg
    ext tree =
  let best = ref None in
  let note width plan =
    let cost = Plan.comm_cost plan in
    let improved =
      match !best with None -> true | Some (c, _) -> cost < c
    in
    if improved then best := Some (cost, plan);
    match on_round with
    | Some f ->
      let cost = match !best with Some (c, _) -> c | None -> cost in
      f { width; cost; improved }
    | None -> ()
  in
  let rounds =
    (`Seed :: List.map (fun w -> `Beam w) widths) @ [ `Exact ]
  in
  let rec go last_err = function
    | [] -> (
      match !best with
      | Some (_, plan) -> Ok plan
      | None -> Error (Option.value last_err ~default:"no feasible solution"))
    | round :: rest -> (
      let solve () =
        match round with
        | `Seed -> greedy ?jobs ?memo ?cancel ?pool cfg ext tree
        | `Beam w -> run ?jobs ?memo ~beam:w ?cancel ?pool cfg ext tree ~prune:true
        | `Exact -> run ?jobs ?memo ?cancel ?pool cfg ext tree ~prune:true
      in
      let width =
        match round with `Seed -> Some 1 | `Beam w -> Some w | `Exact -> None
      in
      match solve () with
      | Ok plan ->
        note width plan;
        go last_err rest
      | Error e -> go (Some e) rest
      | exception Tce_error.Error (Tce_error.Deadline_exceeded _)
        when !best <> None -> (
        match !best with
        | Some (_, plan) -> Ok plan
        | None -> assert false))
  in
  go None rounds

let solution_count ?jobs ?memo ?beam cfg ext tree =
  with_search ?jobs ?beam cfg (fun ~jobs:_ pool ->
      Result.map
        (fun (sols, _) -> List.length sols)
        (solve_root ?memo ?beam cfg ext pool tree ~prune:true))

(* --- Sum optimization: multi-term with cross-term CSE (DESIGN.md §16) --

   A sum [O = Σᵢ cᵢ·Tᵢ] is planned in two phases: the cross-term shared
   subtrees found by [Sumexpr.detect] are materialized first, then every
   term is solved as an ordinary tree whose occurrences of a shared value
   are pinned leaves (consumed under producer rules from the stored
   distribution — see [combine]). The optimizer enumerates every subset
   of the detected groups (≤ 2^3) — sharing is not always a win: storing
   a shared value costs memory for its whole lifetime and may force
   redistributions its consumers would not otherwise pay — and, per
   subset, the cartesian product of the shared subtrees' solution lists;
   term solutions are filtered by their lifetime memory (the term's own
   peak plus the residency of shared values still needed later) and the
   cheapest feasible combination wins. Subset 0 is the no-sharing
   baseline, so the result is never worse than planning each term
   independently.

   Determinism: the mask loop, the cartesian enumeration and the
   strictly-better-first tie-break are sequential and fixed; the
   underlying tree solves are jobs-invariant, so the chosen sum plan is
   byte-identical for every jobs setting. *)

let sum_fingerprint se =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "sum|";
  List.iter
    (fun i ->
      Buffer.add_string buf (Index.name i);
      Buffer.add_char buf ',')
    (Aref.indices (Sumexpr.out se));
  List.iter
    (fun (t : Sumexpr.term) ->
      Buffer.add_string buf (Printf.sprintf "|%h*" t.Sumexpr.coeff);
      Buffer.add_string buf (fingerprint ~with_names:true t.Sumexpr.tree))
    (Sumexpr.terms se);
  Buffer.contents buf

(* Map over a list inside the result monad, propagating the first error. *)
let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

let run_sum ?(select = better) ?jobs ?memo ?beam ?fusion_cap ?cancel ?pool
    ?(max_groups = 3) cfg ext se ~prune =
  let ( let* ) = Result.bind in
  with_search ?jobs ?beam ?pool cfg @@ fun ~jobs:_ pool ->
  let out = Sumexpr.out se in
  let groups =
    if max_groups <= 0 then [] else Sumexpr.detect ~max_groups ext se
  in
  let limit = mem_limit cfg in
  let rows = Grid.rows cfg.grid and cols = Grid.cols cfg.grid in
  let solve_tree ?pinned tree =
    Result.map fst
      (solve_root ?memo ?beam ?fusion_cap ?cancel ?pinned cfg ext pool tree
         ~prune)
  in
  (* Each group's representative, solved once; [] when infeasible alone
     (masks selecting it are skipped). *)
  let rep_sols =
    List.map
      (fun (g : Sumexpr.group) ->
        match solve_tree g.Sumexpr.rep with Ok sols -> sols | Error _ -> [])
      groups
  in
  let consumers =
    List.map
      (fun (g : Sumexpr.group) ->
        List.sort_uniq compare
          (List.map (fun (o : Sumexpr.occ) -> o.Sumexpr.term) g.Sumexpr.occs))
      groups
  in
  let annotated = List.combine (List.combine groups rep_sols) consumers in
  let term_cache = Hashtbl.create 64 in
  let stored_words (g : Sumexpr.group) sol =
    Eqs.dist_size_rect ext ~rows ~cols ~alpha:sol.prod_dist
      ~fused:Index.Set.empty ~dims:g.Sumexpr.rep_order
  in
  let feasible extra (sol : solution) =
    Memacct.node_bytes cfg.params (Memacct.add_resident sol.mem extra) <= limit
  in
  let best = ref None in
  (* One candidate: a group-subset assignment of shared solutions plus
     the hoisted term trees; feasibility-check, solve every term, and
     keep the cheapest total. *)
  let consider mask assignment term_trees =
    (* [assignment]: (group, consuming terms, chosen solution) in detect
       order. Shared values materialize in that order, each on top of
       its predecessors' storage. *)
    let stored = List.map (fun (g, _, s) -> stored_words g s) assignment in
    let shared_ok =
      let rec go before asg ws =
        match (asg, ws) with
        | [], [] -> true
        | (_, _, s) :: arest, w :: wrest ->
          feasible before s && go (before + w) arest wrest
        | _ -> false
      in
      go 0 assignment stored
    in
    if shared_ok then begin
      let akey =
        String.concat ";"
          (List.map
             (fun ((g : Sumexpr.group), _, s) ->
               g.Sumexpr.name ^ "=" ^ orient_key s.prod_dist)
             assignment)
      in
      let pinned =
        List.fold_left
          (fun m ((g : Sumexpr.group), _, s) ->
            SMap.add g.Sumexpr.name (g.Sumexpr.rep_order, s.prod_dist) m)
          SMap.empty assignment
      in
      (* Extra residency while term [i] runs: shared values with a later
         consumer that term [i] does not itself read (its own reads are
         pinned leaves, already inside the term solution's account). *)
      let extra_for i =
        List.fold_left2
          (fun acc (_, cons, _) w ->
            let last = List.fold_left max (-1) cons in
            if last >= i && not (List.mem i cons) then acc + w else acc)
          0 assignment stored
      in
      let term_best =
        List.mapi
          (fun i tree ->
            let sols =
              match Hashtbl.find_opt term_cache (mask, i, akey) with
              | Some r -> r
              | None ->
                let r = solve_tree ~pinned tree in
                Hashtbl.replace term_cache (mask, i, akey) r;
                r
            in
            match sols with
            | Error _ -> None
            | Ok sols ->
              Listx.minimum_by select
                (List.filter (feasible (extra_for i)) sols))
          term_trees
      in
      if List.for_all Option.is_some term_best then begin
        let term_best = List.map Option.get term_best in
        let total =
          List.fold_left
            (fun a (_, _, (s : solution)) -> a +. s.cost)
            0.0 assignment
          +. List.fold_left
               (fun a (s : solution) -> a +. s.cost)
               0.0 term_best
        in
        match !best with
        | Some (c, _, _) when c <= total -> ()
        | _ -> best := Some (total, assignment, term_best)
      end
    end
  in
  let ng = List.length groups in
  List.iter
    (fun mask ->
      let sel =
        List.filteri (fun gi _ -> mask land (1 lsl gi) <> 0) annotated
      in
      if List.for_all (fun ((_, sols), _) -> sols <> []) sel then begin
        let selected = List.map (fun ((g, _), _) -> g) sel in
        let _, terms' = Sumexpr.hoist se ~selected in
        let term_trees =
          List.map (fun (t : Sumexpr.term) -> t.Sumexpr.tree) terms'
        in
        let rec assignments acc = function
          | [] -> consider mask (List.rev acc) term_trees
          | ((g, sols), cons) :: rest ->
            List.iter (fun s -> assignments ((g, cons, s) :: acc) rest) sols
        in
        assignments [] sel
      end)
    (List.init (1 lsl ng) Fun.id);
  match !best with
  | None ->
    err "no feasible solution for the sum under the %a memory limit"
      Units.pp_bytes_si limit
  | Some (_, assignment, term_best) ->
    let* shared =
      map_result
        (fun ((g : Sumexpr.group), _, s) ->
          let* p = assemble_solution cfg ext s in
          Ok (g.Sumexpr.name, g.Sumexpr.rep_order, p))
        assignment
    in
    let* terms =
      map_result
        (fun ((t : Sumexpr.term), s) ->
          let* p = assemble_solution cfg ext s in
          Ok (t.Sumexpr.coeff, p))
        (List.combine (Sumexpr.terms se) term_best)
    in
    Ok
      (Plan.assemble_sum ~ext ~grid:cfg.grid ~params:cfg.params ~out ~shared
         ~terms)

let optimize_sum ?jobs ?memo ?beam ?max_groups ?cancel ?pool cfg ext se =
  run_sum ?jobs ?memo ?beam ?max_groups ?cancel ?pool cfg ext se ~prune:true

let brute_force_sum ?max_groups cfg ext se =
  run_sum ~memo:false ?max_groups cfg ext se ~prune:false

(* The sum rung of the serve layer's degradation ladder: no sharing, each
   term through the widening greedy rungs — milliseconds, and still
   [Plan.validate_sum]-certifiable like any exact sum plan. *)
let greedy_sum ?jobs ?memo ?cancel ?pool cfg ext se =
  let ( let* ) = Result.bind in
  let* () = check_grid cfg in
  let* terms =
    map_result
      (fun (t : Sumexpr.term) ->
        let* p = greedy ?jobs ?memo ?cancel ?pool cfg ext t.Sumexpr.tree in
        Ok (t.Sumexpr.coeff, p))
      (Sumexpr.terms se)
  in
  Ok
    (Plan.assemble_sum ~ext ~grid:cfg.grid ~params:cfg.params
       ~out:(Sumexpr.out se) ~shared:[] ~terms)

(* --- Content fingerprint and plan renaming (the serve-layer cache) ----- *)

let tree_fingerprint cfg tree =
  let with_names =
    match cfg.fusion_mode with Fixed _ -> true | Enumerate | No_fusion -> false
  in
  fingerprint ~with_names (Tree.fuse_mult_sum tree)

let rename_plan cfg ~ext ~cached ~current (plan : Plan.t) =
  let cached = Tree.fuse_mult_sum cached in
  let current = Tree.fuse_mult_sum current in
  match alpha_map ~cached ~current with
  | None -> None (* leaf/intermediate name clash: recompute instead *)
  | Some m ->
    if SMap.is_empty m then Some plan
    else begin
      let steps = List.map (rename_step m) plan.Plan.steps in
      let presums = List.map (rename_presum m) plan.Plan.presums in
      match
        Tce_error.protect (fun () ->
            Plan.assemble ~ext ~grid:cfg.grid ~params:cfg.params
              ~flops:plan.Plan.flops ~mem:plan.Plan.mem ~presums steps)
      with
      | Ok p -> Some p
      | Error _ -> None
    end
