(* The traced run's layer accounting, measured from outside the program.

   [time name f] wraps one call into a layer's public function. When
   tracing is on it records an [Obs] span (so the call lands in the
   Chrome trace next to the spans the program emits itself) and charges
   the call's wall time to [name]: a layer's self time is its calls' wall
   time minus the time of layer calls nested inside them. The layers are
   all entered from the benchmark's own domain, so nesting is a stack.
   When tracing is off it is a plain call. *)

type acc = { mutable self : float; mutable total : float; mutable calls : int }

let on = ref false
let table : (string, acc) Hashtbl.t = Hashtbl.create 16
let stack : float ref list ref = ref []

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { self = 0.0; total = 0.0; calls = 0 } in
    Hashtbl.replace table name a;
    a

let time name f =
  if not !on then f ()
  else begin
    let inner = ref 0.0 in
    stack := inner :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let dt = Unix.gettimeofday () -. t0 in
      stack := List.tl !stack;
      (match !stack with outer :: _ -> outer := !outer +. dt | [] -> ());
      let a = acc name in
      a.self <- a.self +. (dt -. !inner);
      a.total <- a.total +. dt;
      a.calls <- a.calls + 1
    in
    match Tce.Obs.span ~cat:"perfbench" name f with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let total name = match Hashtbl.find_opt table name with Some a -> a.total | None -> 0.0

let layers () =
  Hashtbl.fold (fun k a l -> (k, a) :: l) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Counter deltas: [Obs] counters only grow, so the work done inside one
   call is the difference of two snapshots. *)
let count sink k =
  Option.value ~default:0 (List.assoc_opt k (Tce.Obs.counters sink))

(* Run [f] and add the growth of each counter in [keys] to [into]. *)
let counted sink into keys f =
  match sink with
  | None -> f ()
  | Some s ->
    let before = List.map (fun k -> count s k) keys in
    let r = f () in
    List.iter2
      (fun k b ->
        let d = count s k - b in
        let cur = Option.value ~default:0 (List.assoc_opt k !into) in
        into := (k, cur + d) :: List.remove_assoc k !into)
      keys before;
    r
