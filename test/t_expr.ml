(* Tests for the expression layer: array references, formulas, sequences,
   operator trees, problems and the DSL parser. *)

open Tce
open Helpers

(* ---------------- Aref ---------------- *)

let test_aref_basic () =
  let a = aref "A" [ "x"; "y" ] in
  Alcotest.(check string) "name" "A" (Aref.name a);
  Alcotest.(check int) "rank" 2 (Aref.rank a);
  Alcotest.(check bool) "mentions" true (Aref.mentions a (i "x"));
  Alcotest.(check bool) "not mentions" false (Aref.mentions a (i "z"));
  Alcotest.(check string) "pp" "A[x,y]" (Format.asprintf "%a" Aref.pp a);
  let e = extents [ ("x", 3); ("y", 5) ] in
  Alcotest.(check int) "size" 15 (Aref.size e a)

let test_aref_errors () =
  (match aref "A" [ "x"; "x" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "repeated index accepted");
  match Aref.v "9bad" [ i "x" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad name accepted"

(* ---------------- Formula ---------------- *)

let test_formula_contract_ok () =
  let f =
    Formula.contract (aref "T" [ "a"; "b" ]) [ i "k" ]
      (aref "X" [ "a"; "k" ]) (aref "Y" [ "k"; "b" ])
  in
  let f = get_ok ~ctx:"contract" f in
  Alcotest.(check (list string)) "sum" [ "k" ]
    (List.map Index.name (Formula.sum_indices f));
  Alcotest.(check int) "operands" 2 (List.length (Formula.operands f))

let test_formula_rejections () =
  let bad ctx r = ignore (get_error ~ctx r) in
  (* Summation index missing from one operand. *)
  bad "missing sum"
    (Formula.contract (aref "T" [ "a"; "b" ]) [ i "k" ]
       (aref "X" [ "a"; "k" ]) (aref "Y" [ "b" ]));
  (* Output indices not matching operands. *)
  bad "bad output"
    (Formula.contract (aref "T" [ "a"; "z" ]) [ i "k" ]
       (aref "X" [ "a"; "k" ]) (aref "Y" [ "k"; "b" ]));
  (* Empty summation list in a contraction. *)
  bad "no sum"
    (Formula.contract (aref "T" [ "a"; "b" ]) [] (aref "X" [ "a" ])
       (aref "Y" [ "b" ]));
  (* Mult with a silently dropped index. *)
  bad "mult drops"
    (Formula.mult (aref "T" [ "a" ]) (aref "X" [ "a"; "k" ])
       (aref "Y" [ "a"; "k" ]));
  (* Sum over an index the operand lacks. *)
  bad "foreign sum"
    (Formula.sum (aref "T" [ "a" ]) [ i "z" ] (aref "X" [ "a"; "k" ]))

let test_formula_hadamard_mult () =
  (* Fig. 1's T3(j,t) = T1(j,t) * T2(j,t) is a legal multiplication. *)
  let f =
    Formula.mult (aref "T3" [ "j"; "t" ]) (aref "T1" [ "j"; "t" ])
      (aref "T2" [ "j"; "t" ])
  in
  ignore (get_ok ~ctx:"hadamard" f)

let test_formula_flops () =
  let e = extents [ ("a", 3); ("b", 4); ("k", 5) ] in
  let contract =
    get_ok ~ctx:"f"
      (Formula.contract (aref "T" [ "a"; "b" ]) [ i "k" ]
         (aref "X" [ "a"; "k" ]) (aref "Y" [ "k"; "b" ]))
  in
  Alcotest.(check int) "contract" (2 * 3 * 4 * 5) (Formula.flops e contract);
  let s =
    get_ok ~ctx:"s"
      (Formula.sum (aref "T" [ "a" ]) [ i "k" ] (aref "X" [ "a"; "k" ]))
  in
  Alcotest.(check int) "sum" 15 (Formula.flops e s)

(* ---------------- Sequence ---------------- *)

let fig1_text =
  {|
extents i=7, j=6, k=5, t=4
T1[j,t] = sum[i] A[i,j,t]
T2[j,t] = sum[k] B[j,k,t]
T3[j,t] = T1[j,t] * T2[j,t]
S[t]    = sum[j] T3[j,t]
|}

let test_sequence_fig1 () =
  let p = get_ok ~ctx:"parse" (Parser.parse fig1_text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence p) in
  Alcotest.(check int) "formulas" 4 (List.length (Sequence.formulas seq));
  Alcotest.(check string) "output" "S" (Aref.name (Sequence.output seq));
  Alcotest.(check (list string)) "intermediates" [ "T1"; "T2"; "T3" ]
    (List.map Aref.name (Sequence.intermediates seq));
  let ext = p.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:3 seq in
  let result = Sequence.eval ext ~inputs seq in
  let direct =
    Einsum.contract2 ~out:[ i "t" ] (List.assoc "A" inputs)
      (List.assoc "B" inputs)
  in
  Alcotest.(check bool) "matches direct" true
    (Dense.equal_approx ~tol:1e-9 result direct)

let test_sequence_scope_errors () =
  (* Without an [input] declaration, unknown arrays become inferred inputs;
     with one, referencing an undeclared array is a scope error. *)
  let undefined =
    Parser.parse
      {|
extents a=2, k=2
input X[a,k]
T[a] = sum[k] X[a,k] * X[a,k]
S[a] = sum[k] T2[a,k] * X[a,k]
|}
  in
  (match undefined with
  | Error msg ->
    Alcotest.(check bool) "mentions missing array" true
      (Astring_contains.contains msg "T2")
  | Ok _ -> Alcotest.fail "undefined array accepted");
  let duplicate =
    Parser.parse
      {|
extents a=2, k=2
T[a] = sum[k] X[a,k]
T[a] = sum[k] Y[a,k]
|}
  in
  match duplicate with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate definition accepted"

let test_sequence_wrong_indices () =
  match
    Parser.parse
      {|
extents a=2, b=2, k=2
T[a,b] = sum[k] X[a,k] * Y[k,b]
S[a]   = sum[b,z] T[a,b,z]
|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reference with wrong index set accepted"

(* ---------------- Tree ---------------- *)

let test_tree_roundtrip () =
  let _, seq, _ = ccsd ~scale:`Tiny in
  let tree = get_ok ~ctx:"of_sequence" (Tree.of_sequence seq) in
  Alcotest.(check int) "nodes" 7 (Tree.node_count tree);
  Alcotest.(check (list string)) "leaves" [ "B"; "D"; "C"; "A" ]
    (List.map Aref.name (Tree.leaves tree));
  let back = get_ok ~ctx:"to_sequence" (Tree.to_sequence tree) in
  Alcotest.(check int) "formulas" 3 (List.length (Sequence.formulas back));
  let tree2 = get_ok ~ctx:"again" (Tree.of_sequence back) in
  Alcotest.(check bool) "stable" true (Tree.equal tree tree2)

let test_tree_fuse_mult_sum () =
  let p = get_ok ~ctx:"parse" (Parser.parse fig1_text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence p) in
  let tree = Tree.fuse_mult_sum (get_ok ~ctx:"tree" (Tree.of_sequence seq)) in
  (* S = Σ_j T3 over T3 = T1*T2 with j in both: becomes one Contract. *)
  (match tree with
  | Tree.Contract (a, [ j ], _, _) ->
    Alcotest.(check string) "root" "S" (Aref.name a);
    Alcotest.(check string) "sum" "j" (Index.name j)
  | _ -> Alcotest.fail "expected a contract node at the root");
  Alcotest.(check bool) "idempotent" true
    (Tree.equal tree (Tree.fuse_mult_sum tree))

let test_tree_dag_rejected () =
  let text =
    {|
extents a=2, b=2, k=2
T[a,b] = sum[k] X[a,k] * Y[k,b]
U[a]   = sum[b] T[a,b]
V[b]   = sum[a] T[a,b]
S[a,b] = U[a] * V[b]
|}
  in
  let p = get_ok ~ctx:"parse" (Parser.parse text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence p) in
  match Tree.of_sequence seq with
  | Error msg ->
    Alcotest.(check bool) "mentions DAG" true
      (Astring_contains.contains msg "DAG")
  | Ok _ -> Alcotest.fail "DAG accepted as tree"

let test_tree_eval_matches_sequence () =
  let p, seq, tree = ccsd ~scale:`Tiny in
  let ext = p.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:8 seq in
  let via_seq = Sequence.eval ext ~inputs seq in
  let via_tree = Tree.eval ext ~inputs tree in
  Alcotest.(check bool) "equal" true (Dense.equal_approx via_seq via_tree)

let test_tree_loop_indices () =
  let _, _, tree = ccsd ~scale:`Tiny in
  match tree with
  | Tree.Contract (_, _, l, _) -> begin
    match l with
    | Tree.Contract (_, _, t1, _) ->
      Alcotest.(check (list string)) "T1 loops"
        [ "b"; "c"; "d"; "e"; "f"; "l" ]
        (List.map Index.name (Index.Set.elements (Tree.loop_indices t1)))
    | _ -> Alcotest.fail "expected T1 under T2"
  end
  | _ -> Alcotest.fail "unexpected tree shape"

(* ---------------- Parser ---------------- *)

let test_parser_parens_and_comments () =
  let text =
    {|
# comment line
extents a=2, b=3   # trailing comment
S(a,b) = X(a) * Y(b)
|}
  in
  let p = get_ok ~ctx:"parse" (Parser.parse text) in
  Alcotest.(check int) "defs" 1 (List.length p.Problem.defs);
  Alcotest.(check (list string)) "inferred inputs" [ "X"; "Y" ]
    (List.map Aref.name p.Problem.inputs)

let test_parser_line_numbers () =
  let msg =
    get_error ~ctx:"parse"
      (Parser.parse "extents a=2\nS[a] = sum[] X[a]\n")
  in
  Alcotest.(check bool) "mentions line 2" true
    (Astring_contains.contains msg "line 2")

let test_parser_multifactor () =
  let p =
    get_ok ~ctx:"parse"
      (Parser.parse
         {|
extents a=2, b=2, c=2
S[a] = sum[b,c] X[a,b] * Y[b,c] * Z[c]
|})
  in
  match p.Problem.defs with
  | [ d ] -> Alcotest.(check int) "three factors" 3 (List.length d.Problem.terms)
  | _ -> Alcotest.fail "expected one definition"

let test_parser_input_decl () =
  let p =
    get_ok ~ctx:"parse"
      (Parser.parse
         {|
extents a=2, k=3
input X[a,k], Y[a,k]
S[a] = sum[k] X[a,k] * Y[a,k]
|})
  in
  Alcotest.(check (list string)) "declared inputs" [ "X"; "Y" ]
    (List.map Aref.name p.Problem.inputs)

let test_parser_missing_extent () =
  match
    Parser.parse {|
extents a=2
S[a] = sum[k] X[a,k] * Y[a,k]
|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing extent accepted"

(* ---------------- Problem ---------------- *)

let test_problem_binarize_left_deep () =
  let p =
    get_ok ~ctx:"parse"
      (Parser.parse
         {|
extents a=3, b=3, c=3, d=3
S[a,d] = sum[b,c] X[a,b] * Y[b,c] * Z[c,d]
|})
  in
  let bin = Problem.binarize_left_deep p in
  Alcotest.(check int) "two defs" 2 (List.length bin.Problem.defs);
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence bin) in
  (* Numerically identical to the raw ternary contraction. *)
  let ext = p.Problem.extents in
  let inputs = Sequence.random_inputs ext ~seed:4 seq in
  let via_bin = Sequence.eval ext ~inputs seq in
  let direct =
    Einsum.contract2
      ~out:(idx_list [ "a"; "d" ])
      (Einsum.contract2
         ~out:(idx_list [ "a"; "c" ])
         (List.assoc "X" inputs) (List.assoc "Y" inputs))
      (List.assoc "Z" inputs)
  in
  Alcotest.(check bool) "values" true (Dense.equal_approx via_bin direct)

let test_problem_to_sequence_multifactor_error () =
  let p =
    get_ok ~ctx:"parse"
      (Parser.parse
         {|
extents a=2, b=2, c=2
S[a] = sum[b,c] X[a,b] * Y[b,c] * Z[c]
|})
  in
  ignore (get_error ~ctx:"to_sequence" (Problem.to_sequence p))

let test_pretty_printing () =
  let f =
    get_ok ~ctx:"f"
      (Formula.contract (aref "T" [ "a"; "b" ]) [ i "k" ]
         (aref "X" [ "a"; "k" ]) (aref "Y" [ "k"; "b" ]))
  in
  Alcotest.(check string) "formula" "T[a,b] = sum[k] X[a,k] * Y[k,b]"
    (Format.asprintf "%a" Formula.pp f);
  let p = get_ok ~ctx:"p" (Parser.parse fig1_text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence p) in
  let tree = get_ok ~ctx:"tree" (Tree.of_sequence seq) in
  let rendered = Format.asprintf "%a" Tree.pp tree in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains rendered needle))
    [ "S[t]"; "(sum j)"; "T3[j,t]"; "A[i,j,t]"; "`--" ];
  let seq_text = Format.asprintf "%a" Sequence.pp seq in
  Alcotest.(check bool) "sequence line" true
    (Astring_contains.contains seq_text "T1[j,t] = sum[i] A[i,j,t]");
  let prob_text = Format.asprintf "%a" Problem.pp p in
  Alcotest.(check bool) "problem extents" true
    (Astring_contains.contains prob_text "extents i=7, j=6, k=5, t=4\n")

(* The problem printer writes the DSL: parsing its output gives back the
   same problem — extents, inputs, definitions and sum coefficients to
   the last bit — so printing it again is the identity. *)
let test_problem_print_parse_roundtrip () =
  let ccsd_file =
    List.find Sys.file_exists [ "examples/ccsd.prob"; "../examples/ccsd.prob" ]
  in
  let sum_text =
    "extents a=8, b=8, c=8, d=8\n\
     M[a,b] = sum[c] P[a,c] * Q[c,b]\n\
     E[a,d] = - 0.1 * sum[b] M[a,b] * R[b,d] + sum[b] M[a,b] * U[b,d] \
     - 2 * sum[b] M[a,b] * V[b,d] + 12345678.9 * sum[b] M[a,b] * W[b,d]\n"
  in
  let third = 1.0 /. 3.0 in
  let thirds = get_ok ~ctx:"sum problem" (Parser.parse sum_text) in
  let thirds =
    match thirds.Problem.sum with
    | Some sd ->
      Problem.create_sum_exn ~extents:thirds.Problem.extents
        ~defs:thirds.Problem.defs
        {
          sd with
          Problem.addends =
            List.map
              (fun (a : Problem.addend) ->
                { a with Problem.coeff = a.Problem.coeff *. third })
              sd.Problem.addends;
        }
    | None -> Alcotest.fail "expected a multi-term sum"
  in
  List.iter
    (fun (name, p) ->
      let text = Format.asprintf "%a" Problem.pp p in
      let p' =
        match Parser.parse text with
        | Ok p' -> p'
        | Error msg ->
          Alcotest.failf "%s: printed text does not parse (%s):\n%s" name msg
            text
      in
      Alcotest.(check string) (name ^ ": print is the identity") text
        (Format.asprintf "%a" Problem.pp p');
      Alcotest.(check bool) (name ^ ": same extents") true
        (Extents.bindings p.Problem.extents
        = Extents.bindings p'.Problem.extents);
      Alcotest.(check bool) (name ^ ": same inputs, definitions and sum") true
        (p.Problem.inputs = p'.Problem.inputs
        && p.Problem.defs = p'.Problem.defs
        && p.Problem.sum = p'.Problem.sum))
    [
      ("ccsd.prob", get_ok ~ctx:"ccsd.prob" (Parser.parse_file ccsd_file));
      ("fig1", get_ok ~ctx:"fig1" (Parser.parse fig1_text));
      ("sum", get_ok ~ctx:"sum" (Parser.parse sum_text));
      ("sum with third coefficients", thirds);
    ]

let test_parser_bad_character () =
  let msg = get_error ~ctx:"parse" (Parser.parse "extents a=2
S[a] = X[a] @ Y[a]
") in
  Alcotest.(check bool) "line number" true (Astring_contains.contains msg "line 2")

let suite =
  [
    ( "expr.aref",
      [ case "basics" test_aref_basic; case "errors" test_aref_errors ] );
    ( "expr.formula",
      [
        case "well-formed contraction" test_formula_contract_ok;
        case "rejections" test_formula_rejections;
        case "hadamard multiplication (Fig 1)" test_formula_hadamard_mult;
        case "flop counts" test_formula_flops;
      ] );
    ( "expr.sequence",
      [
        case "Fig 1 sequence evaluates correctly" test_sequence_fig1;
        case "scope errors" test_sequence_scope_errors;
        case "wrong index set in reference" test_sequence_wrong_indices;
      ] );
    ( "expr.tree",
      [
        case "sequence/tree roundtrip" test_tree_roundtrip;
        case "fuse_mult_sum on Fig 1" test_tree_fuse_mult_sum;
        case "DAGs rejected" test_tree_dag_rejected;
        case "tree eval = sequence eval" test_tree_eval_matches_sequence;
        case "loop indices" test_tree_loop_indices;
      ] );
    ( "expr.parser",
      [
        case "parens and comments" test_parser_parens_and_comments;
        case "error line numbers" test_parser_line_numbers;
        case "multi-factor products" test_parser_multifactor;
        case "input declarations" test_parser_input_decl;
        case "missing extents rejected" test_parser_missing_extent;
        case "bad characters rejected with position" test_parser_bad_character;
      ] );
    ( "expr.pretty",
      [
        case "formula/tree/sequence/problem rendering" test_pretty_printing;
        case "problem print/parse roundtrip" test_problem_print_parse_roundtrip;
      ] );
    ( "expr.problem",
      [
        case "binarize_left_deep" test_problem_binarize_left_deep;
        case "to_sequence rejects multi-factor" test_problem_to_sequence_multifactor_error;
      ] );
  ]
