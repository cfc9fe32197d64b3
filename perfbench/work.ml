(* Set-up and the three kinds of timed work every workload runs: a plan
   round, a block of serve requests and a round of executions. A workload
   repeats cycles of its plan rounds, one block and one execution round;
   its name says which carries the load.

   Each kind starts the domains it needs when it begins and joins them when
   it ends, so no more than two domains exist at any time. Idle domains are
   not free: every minor collection stops them all, and on a 2-core host
   one fused execution took a median 19.5 ms with no other domain, 21-22
   ms beside one idle domain, 28 ms beside two and 32-35 ms beside three,
   its quartiles 1.1 ms apart alone and 9 ms apart beside three. *)

open Tce

let params = Params.itanium_2003
let now = Unix.gettimeofday

(* ---- failure accounting ------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few violations *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

(* One operation: [f] returns [Ok ()] or the first violated check; an
   exception is a violation too. *)
let op t label f =
  t.attempted <- t.attempted + 1;
  let outcome =
    match f () with
    | r -> r
    | exception e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- (label ^ ": " ^ msg) :: t.notes

let ( let* ) = Result.bind
let check cond msg = if cond then Ok () else Error msg

(* ---- per-layer counts kept for the traced run -------------------------- *)

type counts = {
  mutable search_words : float;  (** minor words in jobs=1 searches *)
  search_ctr : (string * int) list ref;
  parsearch_ctr : (string * int) list ref;
  spmd_ctr : (string * int) list ref;
  mutable replay_dev : float;
  mutable bytes_computed : float;
  mutable sliced_rotations : int;
  mutable peak_words : int;
}

let counts () =
  {
    search_words = 0.0;
    search_ctr = ref [];
    parsearch_ctr = ref [];
    spmd_ctr = ref [];
    replay_dev = 0.0;
    bytes_computed = 0.0;
    sliced_rotations = 0;
    peak_words = 0;
  }

let search_keys =
  [
    "search.solutions_generated";
    "search.solutions_kept";
    "search.solutions_pruned";
    "search.memo_hits";
    "search.memo_misses";
  ]

let parsearch_keys = [ "parsearch.tasks"; "parsearch.steals" ]
let spmd_keys = [ "spmd.sends"; "spmd.recvs"; "kernel.flops" ]

(* ---- machine characterization ----------------------------------------- *)

(* The paper's method: measure rotations on the (simulated) machine and
   hand the optimizer only the fitted characterization. *)
let measured_rcost grid =
  Layer.time "rcost" (fun () ->
      let measure ~axis ~words =
        Simulate.measure_rotation params grid ~axis ~words
      in
      let samples = Rcost.default_samples in
      if Grid.is_square grid then
        Rcost.characterize ~side:(Grid.side grid) ~samples ~measure
      else
        Rcost.characterize_rect ~rows:(Grid.rows grid) ~cols:(Grid.cols grid)
          ~samples ~measure)

let plan_text p = Layer.time "perfbench.check" (fun () -> Format.asprintf "%a" Plan.pp p)

let single text =
  let* problem = Layer.time "parser" (fun () -> Parser.parse text) in
  let* comp =
    Layer.time "opmin" (fun () -> Opmin.optimize_to_computation problem)
  in
  match comp with
  | Opmin.Single tree -> Ok (problem, tree)
  | Opmin.Summed _ -> Error "expected a single-term problem"

(* ---- plan phase -------------------------------------------------------- *)

type problem = { label : string; text : string; cfg : Search.config }

(* The tree set: the paper's CCSD term at 16 and 64 procs as fixed
   anchors, [big] seconds-scale trees of fixed shape under seeded names,
   and six small trees of fixed shape under seeded names and extents
   (these make [plan_comm_s] differ between seeds). *)
let plan_problems rng ~big =
  let grid procs = Grid.create_exn ~procs in
  let cfg16 =
    Search.default_config ~grid:(grid 16) ~params
      ~rcost:(measured_rcost (grid 16)) ()
  in
  let cfg64 =
    Search.default_config ~grid:(grid 64) ~params
      ~rcost:(measured_rcost (grid 64)) ()
  in
  let anchors =
    let text = Gen.ccsd ~abcd:480 ~efl:64 ~ijk:32 in
    [
      { label = "ccsd-p16"; text; cfg = cfg16 };
      { label = "ccsd-p64"; text; cfg = cfg64 };
    ]
  in
  let bigs =
    List.filteri
      (fun i _ -> i < big)
      (List.map
         (fun (shape_seed, tensors) ->
           {
             label = Printf.sprintf "big-%d" shape_seed;
             text =
               Gen.fixed_tree rng ~shape_seed ~tensors ~rank:7 ~lo:6 ~hi:16;
             cfg = cfg16;
           })
         Gen.big_shapes)
  in
  let smalls =
    List.init 6 (fun k ->
        let t =
          Gen.seeded_tree rng ~shape_seed:(2000 + k) ~tensors:4 ~rank:4 ~lo:8
            ~hi:32
        in
        { label = Printf.sprintf "small-%d" k; text = t; cfg = cfg16 })
  in
  anchors @ bigs @ smalls

(* Per problem, its planning times across rounds, newest first, and the
   host steal during each (see {!Host.steal_between}); a problem's median
   ignores the rounds a burst of load on the host slowed down. *)
type plan_acc = {
  seq : float list array;  (** jobs=1, from text *)
  seq_steal : float list array;
  par : float list array;  (** jobs=2, from text *)
  par_steal : float list array;
  comm : float array;  (** predicted communication of the jobs=1 plan *)
}

let plan_acc problems =
  let n = List.length problems in
  let lists () = Array.make n [] in
  { seq = lists (); seq_steal = lists (); par = lists (); par_steal = lists (); comm = Array.make n 0.0 }

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* [timed], with the host steal while [f] ran. *)
let timed_stolen f =
  let c0 = Host.cpu_snapshot () in
  let dt, r = timed f in
  (dt, Host.steal_between c0 (Host.cpu_snapshot ()), r)

(* One round: every problem planned from its text at jobs=1, then every
   problem again at jobs=2 on a 2-wide pool started for the purpose,
   checked against its jobs=1 plan, validated and replayed. *)
let plan_round t c ~sink ~problems acc =
  let solve layer ?pool p =
    let* problem, tree = single p.text in
    let ext = problem.Problem.extents in
    let w0 = Gc.minor_words () in
    let r = Layer.time layer (fun () -> Search.optimize ?pool p.cfg ext tree) in
    if pool = None then
      c.search_words <- c.search_words +. Gc.minor_words () -. w0;
    Result.map (fun plan -> (ext, plan)) r
  in
  let firsts = Array.make (List.length problems) (Error "not planned") in
  List.iteri
    (fun i p ->
      let dt, steal, r =
        timed_stolen (fun () ->
            Layer.counted sink c.search_ctr search_keys (fun () ->
                solve "search" p))
      in
      acc.seq.(i) <- dt :: acc.seq.(i);
      acc.seq_steal.(i) <- steal :: acc.seq_steal.(i);
      Host.note_rss ();
      firsts.(i) <- r)
    problems;
  let pool = Parsearch.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Parsearch.close pool) @@ fun () ->
  List.iteri
    (fun i p ->
      let dt, steal, r2 =
        timed_stolen (fun () ->
            Layer.counted sink c.parsearch_ctr parsearch_keys (fun () ->
                solve "parsearch" ~pool p))
      in
      acc.par.(i) <- dt :: acc.par.(i);
      acc.par_steal.(i) <- steal :: acc.par_steal.(i);
      Host.note_rss ();
      op t p.label (fun () ->
          let* ext, p1 = firsts.(i) in
          let* _, p2 = r2 in
          acc.comm.(i) <- Plan.comm_cost p1;
          let* () =
            check
              (String.equal (plan_text p1) (plan_text p2))
              "jobs=2 plan differs from jobs=1"
          in
          let* () = Layer.time "plan.validate" (fun () -> Plan.validate p1) in
          match
            Layer.time "simulate" (fun () -> Simulate.run_plan params ext p1)
          with
          | Error e -> Error (Tce_error.to_string e)
          | Ok timing ->
            let model = Plan.comm_cost p1 in
            let dev =
              Float.abs (timing.Simulate.comm_seconds -. model)
              /. Float.max model 1e-300
            in
            c.replay_dev <- Float.max c.replay_dev dev;
            Ok ()))
    problems

(* The whole set's time: the sum of the problems' medians. *)
let set_seconds times =
  Array.fold_left (fun a l -> a +. Stat.median l) 0.0 times

(* ---- serve phase ------------------------------------------------------- *)

(* One closed-loop client: each request is sent only after the previous
   reply arrived. Most requests repeat a recent problem (a cache hit); a
   repeated single-term tree renames its intermediates, which the cache
   key erases.

   The request mix is assumed, not derived from recorded traffic: no
   request log of the daemon exists to derive it from. The shares below
   (72% repeats from the 48 most recent problems; of new problems 20%
   sums, 20% node-aware trees on 8 procs, 30% trees on 16 procs and 30%
   on 4; 10% validate and 10% simulate views) are the assumptions
   README.md lists with their basis. Each block holds them in exact
   counts, in an order drawn from the seed, so that every seed asks the
   server for the same amount of work. *)

type kind =
  | Tree of { shape : Gen.shape; names : string array; ext : int array; oseed : int }
  | Sum of string

type entry = {
  kind : kind;
  procs : int;
  node : bool;
  mutable plan : Digest.t option;
      (** digest of the first reply's plan, canonical names *)
}

type fresh = New_sum | New_node | New_tree of int  (** procs *)

(* One block's requests, in order: [None] repeats a recent problem,
   [Some k] asks a new one of kind [k]; and each request's view. *)
type schedule = { slots : fresh option array; views : string array }

type stream = {
  rng : Gen.rng;
  ladder_rng : Gen.rng;
  problems : (int, entry) Hashtbl.t;
  mutable next_pid : int;
  mutable block_first : int;  (** the first problem of the current block *)
  mutable sent : int;
  mutable shapes : int;  (** small trees drawn so far *)
}

let stream rng =
  {
    rng;
    ladder_rng = Random.State.split rng;
    problems = Hashtbl.create 256;
    next_pid = 0;
    block_first = 0;
    sent = 0;
    shapes = 0;
  }

(* [n] copies of each value of [counts], shuffled. *)
let dealt rng counts =
  Gen.shuffle rng (List.concat_map (fun (n, v) -> List.init n (fun _ -> v)) counts)

let share n pct = n * pct / 100

let schedule rng ~block =
  let fresh = block - share block 72 in
  let sums = share fresh 20 and node = share fresh 20 in
  let trees = fresh - sums - node in
  let kinds =
    dealt rng
      [
        (sums, Some New_sum);
        (node, Some New_node);
        (trees / 2, Some (New_tree 16));
        (trees - (trees / 2), Some (New_tree 4));
      ]
  in
  (* The first request of a block is new: there is nothing to repeat. *)
  let slots =
    List.hd kinds
    :: Gen.shuffle rng (List.tl kinds @ List.init (block - fresh) (fun _ -> None))
  in
  let v = share block 10 in
  {
    slots = Array.of_list slots;
    views =
      Array.of_list
        (dealt rng [ (v, "validate"); (v, "simulate"); (block - (2 * v), "optimize") ]);
  }

(* Repeats draw from the block's 48 most recent problems, well inside the
   cache's 128 entries, so a repeat is a hit unless the cache misbehaves. *)
let recent = 48

(* The traced run ends every block with a ladder request: {!Gen.ladder_tree},
   whose exact search takes 21-23 s on a 2-core x86 host, sent with
   fresh index names so it never hits the cache, under a 4 s deadline it
   misses by about 5x. The ladder gives the exact rung 60% of the budget,
   the beam rung 80% of the rest and its greedy last rung (10-14 ms of
   work on this tree) what remains. Under a 1.5 s deadline and 11% host
   steal that rung, left about 90 ms, came too late and the reply was
   deadline_exceeded; 4 s leaves it about 0.3 s. *)
let ladder_deadline_ms = 4000.0

let render_tree ~shape ~names ~ext ~oseed ~prefix =
  Gen.render (Gen.rng_of_seed oseed) shape ~names ~ext
    ~inter:(Printf.sprintf "%s%d" prefix) ~out:"S"

(* Map a renamed repeat's intermediates [<prefix><k>] back to [T<k>]. *)
let canonical ~prefix s =
  let n = String.length s and lp = String.length prefix in
  let buf = Buffer.create n in
  let is_id c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  let i = ref 0 in
  while !i < n do
    if is_id s.[!i] then begin
      let j = ref !i in
      while !j < n && is_id s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      if
        String.length tok > lp
        && String.sub tok 0 lp = prefix
        && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub tok lp (String.length tok - lp))
      then Buffer.add_string buf ("T" ^ String.sub tok lp (String.length tok - lp))
      else Buffer.add_string buf tok;
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

type request = {
  line : string;
  pid : int option;  (** [None]: a ladder request *)
  prefix : string;
  view : string;
}

let request_line ~id ~view ~expr ~procs ~node ~deadline =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Num (float_of_int id));
          ("op", Json.Str view);
          ("expr", Json.Str expr);
          ("procs", Json.Num (float_of_int procs));
        ]
       @ (if node then [ ("topology", Json.Str "node"); ("nodes", Json.Num 4.0) ] else [])
       @ match deadline with None -> [] | Some ms -> [ ("deadline_ms", Json.Num ms) ]))

let ladder_request s =
  let id = s.sent in
  s.sent <- s.sent + 1;
  {
    line =
      request_line ~id ~view:"validate" ~expr:(Gen.ladder_tree s.ladder_rng)
        ~procs:16 ~node:false ~deadline:(Some ladder_deadline_ms);
    pid = None;
    prefix = "T";
    view = "validate";
  }

let new_problem s kind =
  let rng = s.rng in
  let pid = s.next_pid in
  s.next_pid <- pid + 1;
  let tree ~procs ~node =
    let shape, n, ext = Gen.small_shape s.shapes in
    s.shapes <- s.shapes + 1;
    let names = Gen.index_names rng n in
    { kind = Tree { shape; names; ext; oseed = Gen.int rng 1_000_000 }; procs; node; plan = None }
  in
  let entry =
    match kind with
    | New_sum -> { kind = Sum (Gen.planted_sum rng); procs = 16; node = false; plan = None }
    | New_node -> tree ~procs:8 ~node:true
    | New_tree procs -> tree ~procs ~node:false
  in
  Hashtbl.replace s.problems pid entry;
  Hashtbl.remove s.problems (pid - recent);
  pid

let next_request s sched k =
  let id = s.sent in
  s.sent <- s.sent + 1;
  let repeat, pid =
    match sched.slots.(k) with
    | Some kind -> (false, new_problem s kind)
    | None ->
      let seen = s.next_pid - s.block_first in
      (true, s.next_pid - 1 - Gen.int s.rng (min recent seen))
  in
  let e = Hashtbl.find s.problems pid in
  let prefix = if repeat then Printf.sprintf "W%dq" (id mod 97) else "T" in
  let expr =
    match e.kind with
    | Sum text -> text
    | Tree { shape; names; ext; oseed } ->
      render_tree ~shape ~names ~ext ~oseed ~prefix
  in
  let view = sched.views.(k) in
  {
    line = request_line ~id ~view ~expr ~procs:e.procs ~node:e.node ~deadline:None;
    pid = Some pid;
    prefix;
    view;
  }

type serve_acc = {
  mutable req : float list list;
      (** per block: the latency of every request but the ladder's *)
  mutable ladder : float list;
  mutable hit : float list;
  mutable cold : float list;
  mutable rates : float list;
      (** per block: requests per second, the ladder request apart *)
  mutable block_steal : float list;  (** per block *)
  mutable ok : int;
  mutable approximate : int;
  mutable servers : Server.stats list;  (** each block's server at its end *)
}

let serve_acc () =
  {
    req = [];
    ladder = [];
    hit = [];
    cold = [];
    rates = [];
    block_steal = [];
    ok = 0;
    approximate = 0;
    servers = [];
  }

let server_config = Server.default_config ~workers:1 ~search_jobs:1 ()

(* One block of [block] requests to a server started for the block, each
   checked as its reply arrives, and with [ladder] one ladder request
   after them. The block starts with an empty cache, so its repeats draw
   only from its own problems. The ladder request's time is its
   deadline's, so it stays out of the block's latencies and rate. *)
let serve_block t s ~block ~ladder acc =
  Hashtbl.reset s.problems;
  s.block_first <- s.next_pid;
  let sched = schedule s.rng ~block in
  let c0 = Host.cpu_snapshot () in
  let server = Server.create server_config in
  Fun.protect ~finally:(fun () ->
      Server.drain server;
      Server.close server)
  @@ fun () ->
  let busy = ref 0.0 and lat = ref [] in
  for k = 0 to (if ladder then block else block - 1) do
    let ladder = k = block in
    let r =
      Layer.time "perfbench.gen" (fun () ->
          if ladder then ladder_request s else next_request s sched k)
    in
    let dt, reply =
      timed (fun () ->
          Layer.time "server" (fun () -> Server.call_line server r.line))
    in
    if ladder then acc.ladder <- dt :: acc.ladder
    else begin
      busy := !busy +. dt;
      lat := dt :: !lat
    end;
    if k mod 50 = 49 then Host.note_rss ();
    op t "serve" (fun () ->
        Layer.time "perfbench.check" (fun () ->
            let json = Json.parse_exn reply in
            let field k = Json.member k json in
            let* () =
              check (field "status" = Some (Json.Str "ok"))
                ("status not ok: " ^ String.sub reply 0 (min 200 (String.length reply)))
            in
            acc.ok <- acc.ok + 1;
            if field "approximate" = Some (Json.Bool true) then
              acc.approximate <- acc.approximate + 1;
            let cached = field "cached" = Some (Json.Bool true) in
            if cached then acc.hit <- dt :: acc.hit
            else if not ladder then acc.cold <- dt :: acc.cold;
            let* () =
              match r.view with
              | "validate" -> check (field "valid" = Some (Json.Bool true)) "plan not valid"
              | "simulate" -> check (field "simulated" <> None) "no simulated timing"
              | _ -> Ok ()
            in
            match (r.pid, field "plan") with
            | None, _ -> Ok ()
            | Some pid, Some (Json.Str plan) -> (
              let e = Hashtbl.find s.problems pid in
              let plan = Digest.string (canonical ~prefix:r.prefix plan) in
              match e.plan with
              | None ->
                e.plan <- Some plan;
                Ok ()
              | Some first ->
                check (Digest.equal first plan)
                  (if cached then "cache-hit plan differs from its cold plan"
                   else "re-planned problem differs from its first plan"))
            | Some _, _ -> Error "reply without a plan"))
  done;
  acc.block_steal <- Host.steal_between c0 (Host.cpu_snapshot ()) :: acc.block_steal;
  acc.rates <- (float_of_int block /. !busy) :: acc.rates;
  acc.req <- !lat :: acc.req;
  acc.servers <- Server.stats server :: acc.servers

(* ---- execute phase ----------------------------------------------------- *)

type exec_in = {
  ext : Extents.t;
  inputs : (string * Dense.t) list;
  reference : Dense.t;
  mc_grid : Grid.t;
  mc_plan : Plan.t;
  fused_grid : Grid.t;
  fused_plan : Plan.t;
}

let get = function Ok v -> v | Error msg -> failwith msg

(* CCSD at the given extents: a plan for real domains on a 1x2 grid, and
   a plan for the fused executor on a 2x2 grid under the largest of a few
   memory limits below the unconstrained plan's footprint that is still
   feasible, so its intermediates are sliced and re-rotated. *)
let exec_setup rng ~abcd ~efl ~ijk =
  let problem, tree = get (single (Gen.ccsd ~abcd ~efl ~ijk)) in
  let ext = problem.Problem.extents in
  let seq = get (Problem.to_sequence problem) in
  let inputs = Gen.tensors rng ext seq in
  let reference = Layer.time "sequence.eval" (fun () -> Sequence.eval ext ~inputs seq) in
  let mc_grid = Grid.create_rect_exn ~rows:1 ~cols:2 in
  let mc_cfg =
    Search.default_config ~grid:mc_grid ~params ~rcost:(measured_rcost mc_grid) ()
  in
  let mc_plan = get (Layer.time "search" (fun () -> Search.optimize mc_cfg ext tree)) in
  let fused_grid = Grid.create_exn ~procs:4 in
  let rcost = measured_rcost fused_grid in
  let cfg ?mem_limit_bytes () =
    Search.default_config ?mem_limit_bytes ~grid:fused_grid ~params ~rcost ()
  in
  let free = get (Layer.time "search" (fun () -> Search.optimize (cfg ()) ext tree)) in
  let full = Plan.mem_per_node_bytes free in
  let fused_plan =
    match
      List.find_map
        (fun f ->
          Result.to_option
            (Layer.time "search" (fun () ->
                 Search.optimize (cfg ~mem_limit_bytes:(f *. full) ()) ext tree)))
        [ 0.6; 0.7; 0.8; 0.9 ]
    with
    | Some p -> p
    | None -> failwith "no memory-limited CCSD plan"
  in
  get (Plan.validate mc_plan);
  get (Plan.validate fused_plan);
  { ext; inputs; reference; mc_grid; mc_plan; fused_grid; fused_plan }

(* Bytes the plan's rotations move on [grid], computed from block sizes:
   every rank sends its block of each rotated array once per round. *)
let rotation_bytes grid ext (plan : Plan.t) =
  let rows = Grid.rows grid and cols = Grid.cols grid in
  List.fold_left
    (fun acc (step : Plan.step) ->
      List.fold_left
        (fun acc (role, axis) ->
          let words =
            Eqs.dist_size_rect ext ~rows ~cols
              ~alpha:(Variant.dist_of step.variant role)
              ~fused:Index.Set.empty
              ~dims:(Aref.indices (Variant.aref_of step.variant role))
          in
          acc
          +. float_of_int
               (Grid.rotation_steps grid ~axis * Grid.procs grid * words * 8))
        acc (Variant.rotated step.variant))
    0.0 plan.steps

type exec_acc = {
  mutable mc : float list list;  (** per round: each [Multicore.run_plan] *)
  mutable fused : float list list;  (** per round: each [Fusedexec.run_plan] *)
  mutable mc_steal : float list;  (** per round *)
  mutable fused_steal : float list;
  mutable first_mc : Dense.t option;
  mutable first_fused : Dense.t option;
}

let exec_acc () =
  { mc = []; fused = []; mc_steal = []; fused_steal = []; first_mc = None; first_fused = None }

(* [runs] executions of each plan, each checked against the reference and
   against the executor's first output: the real-domain runs on a team of
   the 1x2 grid's two domains started for them (reused across the runs, as
   a serving loop would), then the fused runs in this domain alone. *)
let exec_round t c ~sink (x : exec_in) ~runs acc =
  let bytes = rotation_bytes x.mc_grid x.ext x.mc_plan in
  let same first out =
    match first with
    | None -> Ok ()
    | Some f ->
      check (Dense.bits_equal f out) "output differs bitwise from the first execution"
  in
  let mc = ref [] and fused = ref [] in
  let c0 = Host.cpu_snapshot () in
  let pool = Spmd.Pool.create ~procs:(Grid.procs x.mc_grid) in
  Fun.protect ~finally:(fun () -> Spmd.Pool.close pool) (fun () ->
      for _ = 1 to runs do
        op t "multicore" (fun () ->
            let dt, out =
              timed (fun () ->
                  Layer.counted sink c.spmd_ctr spmd_keys (fun () ->
                      Layer.time "multicore" (fun () ->
                          Multicore.run_plan ~pool x.mc_grid x.ext x.mc_plan
                            ~inputs:x.inputs)))
            in
            mc := dt :: !mc;
            Host.note_rss ();
            c.bytes_computed <- c.bytes_computed +. bytes;
            Layer.time "perfbench.check" (fun () ->
                let* () =
                  check (Dense.equal_approx ~tol:1e-9 x.reference out)
                    "output not within 1e-9 of the reference"
                in
                let* () = same acc.first_mc out in
                if acc.first_mc = None then acc.first_mc <- Some out;
                Ok ()))
      done);
  let c1 = Host.cpu_snapshot () in
  for _ = 1 to runs do
    op t "fusedexec" (fun () ->
        let dt, st =
          timed (fun () ->
              Layer.time "fusedexec" (fun () ->
                  Fusedexec.run_plan x.fused_grid x.ext x.fused_plan
                    ~inputs:x.inputs))
        in
        fused := dt :: !fused;
        Host.note_rss ();
        c.sliced_rotations <- c.sliced_rotations + st.Fusedexec.sliced_rotations;
        c.peak_words <- max c.peak_words st.Fusedexec.peak_words_per_proc;
        let out = st.Fusedexec.result in
        Layer.time "perfbench.check" (fun () ->
            let* () =
              check (Dense.equal_approx ~tol:1e-9 x.reference out)
                "fused output not within 1e-9 of the reference"
            in
            let* () = same acc.first_fused out in
            if acc.first_fused = None then acc.first_fused <- Some out;
            Ok ()))
  done;
  acc.mc_steal <- Host.steal_between c0 c1 :: acc.mc_steal;
  acc.fused_steal <- Host.steal_between c1 (Host.cpu_snapshot ()) :: acc.fused_steal;
  acc.mc <- !mc :: acc.mc;
  acc.fused <- !fused :: acc.fused
