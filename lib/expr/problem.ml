open! Import

type def = { lhs : Aref.t; sum : Index.t list; terms : Aref.t list }
type addend = { coeff : float; sum : Index.t list; factors : Aref.t list }
type sumdef = { lhs : Aref.t; addends : addend list }

type t = {
  extents : Extents.t;
  inputs : Aref.t list;
  defs : def list;
  sum : sumdef option;
}

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let addend_def lhs (a : addend) = { lhs; sum = a.sum; terms = a.factors }

let pp_def ppf { lhs; sum; terms } =
  let pp_terms =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ")
      Aref.pp
  in
  match sum with
  | [] -> Format.fprintf ppf "%a = %a" Aref.pp lhs pp_terms terms
  | _ ->
    Format.fprintf ppf "%a = sum[%a] %a" Aref.pp lhs Index.pp_list sum
      pp_terms terms

let def_indices (d : def) =
  List.fold_left
    (fun acc a -> Index.Set.union acc (Aref.index_set a))
    (Index.Set.union (Aref.index_set d.lhs) (Index.set_of_list d.sum))
    d.terms

let check_def extents d =
  let ( let* ) = Result.bind in
  let* () =
    if d.terms = [] then err "%a: definition needs at least one factor" pp_def d
    else Ok ()
  in
  let union_terms =
    List.fold_left
      (fun acc a -> Index.Set.union acc (Aref.index_set a))
      Index.Set.empty d.terms
  in
  let ks = Index.set_of_list d.sum in
  let* () =
    if not (Index.distinct d.sum) then err "%a: repeated summation index" pp_def d
    else Ok ()
  in
  let* () =
    if not (Index.Set.subset ks union_terms) then
      err "%a: summation index not present in any factor" pp_def d
    else Ok ()
  in
  let* () =
    if not (Index.Set.equal (Aref.index_set d.lhs) (Index.Set.diff union_terms ks))
    then err "%a: output indices must be factor indices minus summation" pp_def d
    else Ok ()
  in
  if Extents.covers extents (def_indices d) then Ok ()
  else err "%a: some index has no declared extent" pp_def d

let infer_inputs (defs : def list) =
  let defined = List.map (fun (d : def) -> Aref.name d.lhs) defs in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun d ->
      List.filter
        (fun a ->
          let nm = Aref.name a in
          if List.mem nm defined || Hashtbl.mem seen nm then false
          else begin
            Hashtbl.add seen nm ();
            true
          end)
        d.terms)
    defs

(* Scope checking: every term is an input or an earlier definition, and
   references agree on the index set. [table] maps array name to index
   set; [check_ops] verifies one definition's operands against it. *)
let check_ops table d =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc op ->
      let* () = acc in
      match Hashtbl.find_opt table (Aref.name op) with
      | None -> err "%a: undefined array %s" pp_def d (Aref.name op)
      | Some idxset ->
        if Index.Set.equal idxset (Aref.index_set op) then Ok ()
        else err "%a: %s referenced with wrong indices" pp_def d (Aref.name op))
    (Ok ()) d.terms

let scope_check ~inputs defs =
  let ( let* ) = Result.bind in
  let table = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace table (Aref.name a) (Aref.index_set a))
    inputs;
  let rec go = function
    | [] -> Ok table
    | d :: rest ->
      let* () = check_ops table d in
      let* () =
        if Hashtbl.mem table (Aref.name d.lhs) then
          err "array %s defined twice" (Aref.name d.lhs)
        else Ok ()
      in
      Hashtbl.replace table (Aref.name d.lhs) (Aref.index_set d.lhs);
      go rest
  in
  go defs

let check_inputs_covered extents inputs =
  if
    List.for_all (fun a -> Extents.covers extents (Aref.index_set a)) inputs
  then Ok ()
  else Error "an input array has an index without a declared extent"

let create ~extents ?inputs defs =
  let ( let* ) = Result.bind in
  let* () =
    if defs = [] then Error "problem needs at least one definition" else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc d -> Result.bind acc (fun () -> check_def extents d))
      (Ok ()) defs
  in
  let inputs =
    match inputs with Some is -> is | None -> infer_inputs defs
  in
  let* _table = scope_check ~inputs defs in
  let* () = check_inputs_covered extents inputs in
  Ok { extents; inputs; defs; sum = None }

let create_exn ~extents ?inputs defs =
  match create ~extents ?inputs defs with
  | Ok t -> t
  | Error msg -> invalid_arg ("Problem.create_exn: " ^ msg)

let create_sum ~extents ?inputs ~defs sd =
  let ( let* ) = Result.bind in
  let* () =
    if sd.addends = [] then Error "sum definition needs at least one addend"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (i, a) ->
        let* () = acc in
        let* () =
          if Float.is_finite a.coeff && a.coeff <> 0.0 then Ok ()
          else err "addend %d: coefficient must be finite and non-zero" (i + 1)
        in
        check_def extents (addend_def sd.lhs a))
      (Ok ())
      (List.mapi (fun i a -> (i, a)) sd.addends)
  in
  let* () =
    List.fold_left
      (fun acc d -> Result.bind acc (fun () -> check_def extents d))
      (Ok ()) defs
  in
  let inputs =
    match inputs with
    | Some is -> is
    | None -> infer_inputs (defs @ List.map (addend_def sd.lhs) sd.addends)
  in
  let* table = scope_check ~inputs defs in
  let* () =
    List.fold_left
      (fun acc a ->
        Result.bind acc (fun () -> check_ops table (addend_def sd.lhs a)))
      (Ok ()) sd.addends
  in
  let* () =
    if Hashtbl.mem table (Aref.name sd.lhs) then
      err "array %s defined twice" (Aref.name sd.lhs)
    else Ok ()
  in
  let* () = check_inputs_covered extents inputs in
  Ok { extents; inputs; defs; sum = Some sd }

let create_sum_exn ~extents ?inputs ~defs sd =
  match create_sum ~extents ?inputs ~defs sd with
  | Ok t -> t
  | Error msg -> invalid_arg ("Problem.create_sum_exn: " ^ msg)

let def_to_formula d =
  match (d.terms, d.sum) with
  | [ _ ], [] -> Error "single-factor definition without summation is an alias"
  | [ x ], k -> Formula.sum d.lhs k x
  | [ x; y ], [] -> Formula.mult d.lhs x y
  | [ x; y ], k -> Formula.contract d.lhs k x y
  | _ ->
    Error
      (Format.asprintf
         "%a: more than two factors; run operation minimization first" pp_def d)

let to_sequence t =
  let ( let* ) = Result.bind in
  let* () =
    match t.sum with
    | None -> Ok ()
    | Some _ ->
      Error
        "problem is a multi-term sum: no single formula sequence; use the \
         sum optimizer"
  in
  let* formulas =
    List.fold_left
      (fun acc d ->
        let* fs = acc in
        Result.map (fun f -> f :: fs) (def_to_formula d))
      (Ok []) t.defs
  in
  Sequence.create ~inputs:t.inputs (List.rev formulas)

let binarize_left_deep t =
  let binarize d =
    match d.terms with
    | [] | [ _ ] | [ _; _ ] -> [ d ]
    | first :: rest ->
      let lhs_set = Aref.index_set d.lhs in
      (* Sum an index as soon as no later factor (nor the output) uses it. *)
      let rec go acc_ref step remaining sum_left acc_defs =
        match remaining with
        | [] -> List.rev acc_defs
        | term :: later ->
          let later_sets =
            List.fold_left
              (fun s a -> Index.Set.union s (Aref.index_set a))
              Index.Set.empty later
          in
          let avail =
            Index.Set.union (Aref.index_set acc_ref) (Aref.index_set term)
          in
          let summable =
            List.filter
              (fun i ->
                Index.Set.mem i avail
                && (not (Index.Set.mem i lhs_set))
                && not (Index.Set.mem i later_sets))
              sum_left
          in
          let sum_left' =
            List.filter
              (fun i -> not (List.exists (Index.equal i) summable))
              sum_left
          in
          let out_set =
            Index.Set.diff avail (Index.set_of_list summable)
          in
          let is_last = later = [] in
          let lhs' =
            if is_last then d.lhs
            else
              Aref.v
                (Printf.sprintf "%s__%d" (Aref.name d.lhs) step)
                (Index.Set.elements out_set)
          in
          let def' = { lhs = lhs'; sum = summable; terms = [ acc_ref; term ] } in
          go lhs' (step + 1) later sum_left' (def' :: acc_defs)
      in
      go first 1 rest d.sum []
  in
  { t with defs = List.concat_map binarize t.defs }

let output t =
  match t.sum with
  | Some sd -> sd.lhs
  | None -> begin
    match List.rev t.defs with
    | last :: _ -> last.lhs
    | [] -> assert false (* create requires at least one definition *)
  end

(* A coefficient the parser reads back to the same float: fixed-point
   (the DSL has no exponent syntax) with the fewest decimals that
   round-trip, and at least one so a large magnitude is never read as
   an integer literal. *)
let coeff_text mag =
  let rec go digits =
    let text = Printf.sprintf "%.*f" digits mag in
    if digits >= 1100 || Float.equal (float_of_string text) mag then text
    else go (digits + 1)
  in
  go 1

let pp_sumdef ppf sd =
  let pp_factors =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ")
      Aref.pp
  in
  Format.fprintf ppf "%a =" Aref.pp sd.lhs;
  List.iteri
    (fun i a ->
      if i = 0 then begin
        if a.coeff < 0.0 then Format.fprintf ppf " -"
      end
      else if a.coeff < 0.0 then Format.fprintf ppf " -"
      else Format.fprintf ppf " +";
      let mag = Float.abs a.coeff in
      if mag <> 1.0 then Format.fprintf ppf " %s *" (coeff_text mag);
      (match a.sum with
      | [] -> ()
      | k -> Format.fprintf ppf " sum[%a]" Index.pp_list k);
      Format.fprintf ppf " %a" pp_factors a.factors)
    sd.addends

let pp ppf t =
  Format.fprintf ppf "extents %s@."
    (String.concat ", "
       (List.map
          (fun (i, n) -> Printf.sprintf "%s=%d" (Index.name i) n)
          (Extents.bindings t.extents)));
  Format.fprintf ppf "input %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Aref.pp)
    t.inputs;
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    pp_def ppf t.defs;
  match t.sum with
  | None -> ()
  | Some sd ->
    if t.defs <> [] then Format.pp_print_newline ppf ();
    pp_sumdef ppf sd
