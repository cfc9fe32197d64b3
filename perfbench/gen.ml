(* The benchmark's seeded input generator.

   Everything the program under test receives is produced here from the
   run's seed: problem text in the DSL that [Parser.parse] reads, JSON
   request lines for the daemon, and the input tensors of the executors.
   The text is rendered by this module rather than by [Problem.pp],
   whose output does not parse back (it prints [N_a=] extents and an
   [input] line the grammar rejects). *)

type rng = Random.State.t

let rng_of_seed seed = Random.State.make [| 0x7ce; seed |]
let int rng bound = Random.State.int rng bound

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- single-term contraction trees ------------------------------------ *)

(* A binary contraction tree. Leaf and intermediate names, index names and
   extents are attached when the tree is rendered, so one shape can be
   rendered under many seeded namings. *)
type shape =
  | Leaf of int list  (** index ids *)
  | Node of int list * int list * shape * shape  (** out ids, summed ids *)

(* Top-down random tree over [tensors] leaves where no array exceeds
   [rank] dimensions. Each node introduces 1-2 fresh summed indices shared
   by both children and splits its own output indices between them, each
   child taking at least one (the Cannon template needs nonempty I and J
   sets). Returns the shape and the number of index ids used. *)
let random_shape rng ~tensors ~rank =
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let rec build k out =
    if k = 1 then Leaf out
    else
      let k1 = 1 + int rng (k - 1) in
      let nout = List.length out in
      let nsum = max 1 (min (1 + int rng 2) (rank - ((nout + 1) / 2))) in
      let sums = List.init nsum (fun _ -> fresh ()) in
      let cap = rank - nsum in
      let lo = max 1 (nout - cap) and hi = min (nout - 1) cap in
      let lo = min hi (max lo ((nout / 2) - 1)) in
      let hi = max lo (min hi ((nout + 1) / 2)) in
      let n_left = lo + int rng (hi - lo + 1) in
      let out = shuffle rng out in
      let out_l = List.filteri (fun i _ -> i < n_left) out in
      let out_r = List.filteri (fun i _ -> i >= n_left) out in
      Node (out, sums, build k1 (out_l @ sums), build (k - k1) (out_r @ sums))
  in
  let root = List.init (max 2 (min 4 (rank - 2))) (fun _ -> fresh ()) in
  let s = build tensors root in
  (s, !next)

(* Index names: two lowercase letters, so any id count up to 676 renders
   and no name is a prefix of another. *)
let index_names rng n =
  let pool =
    List.init 676 (fun k ->
        Printf.sprintf "%c%c"
          (Char.chr (97 + (k / 26)))
          (Char.chr (97 + (k mod 26))))
  in
  Array.of_list (List.filteri (fun i _ -> i < n) (shuffle rng pool))

(* Render [shape] as the DSL text of a whole problem. [names] maps index
   ids to names, [ext] index ids to extents; leaves are [A1], [A2], ...,
   intermediates [inter k] and the root [out]. Operand order is drawn
   from [rng]. *)
let render rng shape ~names ~ext ~inter ~out =
  let ids l = String.concat "," (List.map (fun i -> names.(i)) l) in
  let nleaf = ref 0 and ninter = ref 0 and defs = ref [] in
  let rec go ~root = function
    | Leaf idx ->
      incr nleaf;
      Printf.sprintf "A%d[%s]" !nleaf (ids idx)
    | Node (o, sums, l, r) ->
      let ls = go ~root:false l in
      let rs = go ~root:false r in
      let name =
        if root then out
        else begin
          incr ninter;
          inter !ninter
        end
      in
      let a, b = if int rng 2 = 0 then (ls, rs) else (rs, ls) in
      defs :=
        Printf.sprintf "%s[%s] = sum[%s] %s * %s" name (ids o) (ids sums) a b
        :: !defs;
      Printf.sprintf "%s[%s]" name (ids o)
  in
  ignore (go ~root:true shape);
  let extents =
    "extents "
    ^ String.concat ", "
        (List.init (Array.length names) (fun i ->
             Printf.sprintf "%s=%d" names.(i) ext.(i)))
  in
  String.concat "\n" (extents :: List.rev !defs) ^ "\n"

(* A shape and its extents, fixed by [shape_seed]. *)
let fixed_shape ~shape_seed ~tensors ~rank ~lo ~hi =
  let srng = rng_of_seed shape_seed in
  let shape, n = random_shape srng ~tensors ~rank in
  (shape, n, Array.init n (fun _ -> lo + int srng (hi - lo + 1)))

(* A tree whose shape and extents are fixed by [shape_seed] and whose
   index names, leaf order and operand order come from [rng]: every seed
   yields a different text with the same search work, so the planning
   time of a set of these does not depend on the seed. *)
let fixed_tree rng ~shape_seed ~tensors ~rank ~lo ~hi =
  let shape, n, ext = fixed_shape ~shape_seed ~tensors ~rank ~lo ~hi in
  let names = index_names rng n in
  render rng shape ~names ~ext ~inter:(Printf.sprintf "T%d") ~out:"S"

(* A tree of fixed shape whose names, operand order and [lo, hi] extents
   come from [rng]: its cost varies with the seed, its search work only a
   little. *)
let seeded_tree rng ~shape_seed ~tensors ~rank ~lo ~hi =
  let shape, n, _ = fixed_shape ~shape_seed ~tensors ~rank ~lo ~hi in
  let names = index_names rng n in
  let ext = Array.init n (fun _ -> lo + int rng (hi - lo + 1)) in
  render rng shape ~names ~ext ~inter:(Printf.sprintf "T%d") ~out:"S"

(* The family of small trees new serve requests draw from: 3-4 tensors,
   rank 4, fresh names on every draw so each is cold. The shape seeds are
   those whose cold requests cost within 1.4x of each other on a 2-core
   x86 host (0.7-0.9 ms on 16 procs, 2.0-2.7 ms as node-aware requests on
   8), so a block's latency tail is set by a class with many members,
   not by how many of a few much slower shapes the seed happened to draw.
   [small_shape n] is the [n]th draw: the family in turn, so every block
   holds each shape equally often. *)
let small_family = [| 1; 2; 3; 5; 13; 19; 22 |]

let small_shape n =
  let k = small_family.(n mod Array.length small_family) in
  fixed_shape ~shape_seed:(1000 + k) ~tensors:(3 + (k mod 2)) ~rank:4 ~lo:8
    ~hi:32

(* The paper's CCSD term (section 4) with extents a-d, e/f/l and i-k. *)
let ccsd ~abcd ~efl ~ijk =
  Printf.sprintf
    "extents a=%d, b=%d, c=%d, d=%d, e=%d, f=%d, i=%d, j=%d, k=%d, l=%d\n\
     T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]\n\
     T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]\n\
     S[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n"
    abcd abcd abcd abcd efl efl ijk ijk ijk efl

(* A two- or three-term sum whose terms all consume the planted subtree
   [M = P . Q] (the cross-term CSE pattern). *)
let planted_sum rng =
  let names = index_names rng 4 in
  let o1 = names.(0) and o2 = names.(1) and x = names.(2) and c = names.(3) in
  let ext () = 12 + int rng 12 in
  let terms = 2 + int rng 2 in
  let term k =
    let coef = if k = 0 then "" else Printf.sprintf "%d.5 * " (int rng 3) in
    Printf.sprintf "%ssum[%s] M[%s,%s] * R%d[%s,%s]" coef x o1 x k x o2
  in
  String.concat "\n"
    [
      Printf.sprintf "extents %s=%d, %s=%d, %s=%d, %s=%d" o1 (ext ()) o2
        (ext ()) x (ext ()) c (ext ());
      Printf.sprintf "M[%s,%s] = sum[%s] P[%s,%s] * Q[%s,%s]" o1 x c o1 c c x;
      Printf.sprintf "E[%s,%s] = %s" o1 o2
        (String.concat " + " (List.init terms term));
    ]
  ^ "\n"

(* Seeded input tensors for every input of [seq]: uniform in [-1, 1). *)
let tensors rng ext seq =
  List.map
    (fun a ->
      let dims =
        List.map (fun i -> (i, Tce.Extents.extent ext i)) (Tce.Aref.indices a)
      in
      let t = Tce.Dense.create dims in
      for k = 0 to Tce.Dense.size t - 1 do
        Tce.Dense.unsafe_set t k (Random.State.float rng 2.0 -. 1.0)
      done;
      (Tce.Aref.name a, t))
    (Tce.Sequence.inputs seq)

(* (shape seed, tensors) of the seconds-scale trees: shapes whose exact
   search takes 0.25-0.85 s each on a 2-core x86 host (rank 7, extents
   6-16, 16 procs). *)
let big_shapes = [ (1, 7); (5, 8); (9, 7) ]

(* The serve blocks' ladder request. It is the seconds-scale shape of
   [fixed_shape ~shape_seed:1 ~tensors:6 ~rank:7] with one more index
   (id 14) carried from a leaf through three intermediates, now of rank
   7, to the output: its exact search on 16 procs takes 21-23 s on a
   2-core x86 host (the shape without it: 4.1-4.7 s). Index names and
   operand order come from [rng]. *)
let ladder_shape =
  Node
    ( [ 0; 1; 2; 3; 14 ],
      [ 4; 5 ],
      Leaf [ 0; 4; 5 ],
      Node
        ( [ 1; 5; 2; 4; 3; 14 ],
          [ 6; 7 ],
          Leaf [ 1; 6; 7 ],
          Node
            ( [ 5; 4; 6; 3; 2; 7; 14 ],
              [ 8; 9 ],
              Node
                ( [ 2; 3; 7; 8; 6; 9; 14 ],
                  [ 10; 11 ],
                  Leaf [ 8; 6; 9; 10; 11 ],
                  Leaf [ 2; 3; 7; 10; 11; 14 ] ),
              Node ([ 8; 9; 5; 4 ], [ 12; 13 ], Leaf [ 8; 9; 12; 13 ], Leaf [ 5; 4; 12; 13 ])
            ) ) )

let ladder_ext = [| 16; 13; 16; 9; 13; 9; 12; 9; 10; 7; 15; 8; 6; 10; 8 |]

let ladder_tree rng =
  let names = index_names rng (Array.length ladder_ext) in
  render rng ladder_shape ~names ~ext:ladder_ext ~inter:(Printf.sprintf "T%d")
    ~out:"S"
