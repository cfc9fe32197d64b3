(* The pipeline benchmark: one seeded run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   Prints the host record, one line per metric, and as its last line one
   JSON object with the keys correct, attempted, failed and metrics. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones from a traced run. Exits 1 when any output is wrong.
   See README.md in this directory for the metrics and workloads. *)

open Tce

type workload = {
  name : string;
  big : int;  (** seconds-scale trees in the plan set *)
  block : int;  (** requests per serve block *)
  exec : int * int * int;  (** CCSD extents a-d, e/f/l, i-k executed *)
  runs : int;  (** executions of each plan per cycle *)
}

(* Per cycle on a 2-core x86 host: plan-large spends about 1.7 s planning,
   0.2 s serving and 0.5 s executing; execute 0.1, 0.2 and 1.7 s. The
   traced run adds a 4 s ladder request to every block. *)
let workloads =
  [
    { name = "plan-large"; big = 3; block = 500; exec = (16, 8, 8); runs = 60 };
    { name = "execute"; big = 0; block = 500; exec = (20, 10, 10); runs = 75 };
  ]

(* ---- set-up ------------------------------------------------------------ *)

type setup = {
  problems : Work.problem list;
  stream : Work.stream;
  exec_in : Work.exec_in;
}

let setup w seed =
  let rng = Gen.rng_of_seed seed in
  let problems = Work.plan_problems rng ~big:w.big in
  let stream = Work.stream (Random.State.split rng) in
  let abcd, efl, ijk = w.exec in
  let exec_in = Work.exec_setup rng ~abcd ~efl ~ijk in
  (* Each cycle starts the pools and the server it uses; start each once
     here too, so that work moved into their start-up shows in set-up
     time. *)
  Parsearch.close (Parsearch.create ~jobs:2);
  let server = Server.create Work.server_config in
  Server.drain server;
  Server.close server;
  Spmd.Pool.close (Spmd.Pool.create ~procs:2);
  { problems; stream; exec_in }

let setup_count = 9

(* Set up [n] times from scratch, keep the last, and report the median
   set-up time: one set-up is too short to time steadily. *)
let setups w seed n =
  let times = ref [] and kept = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    kept := Some (setup w seed);
    times := (Unix.gettimeofday () -. t0) :: !times
  done;
  (Option.get !kept, Stat.median !times)

(* ---- one pass: cycles until the time is up ---------------------------- *)

type pass = {
  tally : Work.tally;
  counts : Work.counts;
  plan : Work.plan_acc;
  serve : Work.serve_acc;
  exec : Work.exec_acc;
  cycles : int;
  rss : float list;  (** per cycle: its largest resident memory, MB *)
  wall : float;
}

(* Cycles while the next one, as long as the last, still ends inside
   [seconds]; at least two, so that no metric rests on a single block.
   [ladder]: end every serve block with a ladder request.
   [fixed]: exactly one cycle (the self-test's repeatable counts). *)
let pass w s ~seconds ~fixed ~ladder ~sink =
  let tally = Work.tally () and counts = Work.counts () in
  let plan = Work.plan_acc s.problems in
  let serve = Work.serve_acc () and exec = Work.exec_acc () in
  let t0 = Unix.gettimeofday () in
  let cycles = ref 0 and last = ref 0.0 and rss = ref [] in
  Host.rss_peak := 0.0;
  while
    if fixed then !cycles < 1
    else !cycles < 2 || Unix.gettimeofday () -. t0 +. !last <= seconds
  do
    incr cycles;
    let c0 = Unix.gettimeofday () in
    Work.plan_round tally counts ~sink ~problems:s.problems plan;
    Work.serve_block tally s.stream ~block:w.block ~ladder serve;
    Work.exec_round tally counts ~sink s.exec_in ~runs:w.runs exec;
    Host.note_rss ();
    rss := !Host.rss_peak :: !rss;
    Host.rss_peak := 0.0;
    last := Unix.gettimeofday () -. c0
  done;
  {
    tally;
    counts;
    plan;
    serve;
    exec;
    cycles = !cycles;
    rss = !rss;
    wall = Unix.gettimeofday () -. t0;
  }

(* ---- output ------------------------------------------------------------ *)


(* A metric line for people, and its entry in the result object. *)
type metric = { mname : string; value : float; unit_ : string; note : string }

let metric ?(note = "") mname unit_ value = { mname; value; unit_; note }

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "metric %-30s %14.6g %-6s%s\n" m.mname m.value m.unit_
        (if m.note = "" then "" else "  " ^ m.note))
    ms

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed ms =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
              (json_number m.value) m.unit_)
          ms))

let ms x = 1e3 *. x

(* The median over rounds of each round's tail; the percentile is that of
   a round's samples. *)
let tail_metric name ls =
  let _, pct, n = Stat.tail (match ls with l :: _ -> l | [] -> []) in
  metric name "ms"
    (ms (Stat.median_of_tails ls))
    ~note:
      (Printf.sprintf "(p%.2f of each round's %d samples; median of %d rounds)"
         pct n (List.length ls))

(* Host steal slows every timing together (README.md, "Host steal"), so
   each timing reports only the rounds that saw the least of it: the
   calmer half, at least two. [steals] and [xs] hold one entry per round,
   newest first. The host's counters choose the rounds, not the
   timings. *)
let calm steals xs =
  let n = List.length steals in
  let k = min n (max 2 ((n + 1) / 2)) in
  let kept =
    List.mapi (fun i s -> (s, i)) steals
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.filteri (fun r _ -> r < k)
    |> List.map snd
  in
  List.filteri (fun i _ -> List.mem i kept) xs

(* The end-to-end metrics: those BENCHMARK.json bounds, and those printed
   beside them but left unbounded because on a shared 2-vCPU host their
   ten-seed spread passed any bound the benchmark may set (README.md,
   "Host steal"): the request and execution-tail figures, set by
   hand-offs between two domains, and the fused execution time, set by
   how busy other guests keep the host. *)
let end_to_end ~setup_s p =
  let plan = p.plan and serve = p.serve and exec = p.exec in
  let seq = Array.map2 calm plan.Work.seq_steal plan.Work.seq in
  let par = Array.map2 calm plan.Work.par_steal plan.Work.par in
  let rates = calm serve.Work.block_steal serve.Work.rates in
  let req = calm serve.Work.block_steal serve.Work.req in
  let mc = calm exec.Work.mc_steal exec.Work.mc in
  let fused = calm exec.Work.fused_steal exec.Work.fused in
  let of_n n what = Printf.sprintf "(median of %d %s)" n what in
  ( [
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" (Stat.median p.rss)
      ~note:"(median over cycles of the largest VmRSS sampled in a cycle)";
    metric "plan_s" "s" (Work.set_seconds seq)
      ~note:
        (Printf.sprintf "(sum of per-tree medians over %d of %d rounds)"
           (List.length seq.(0)) (List.length plan.Work.seq.(0)));
    metric "plan_par_s" "s" (Work.set_seconds par);
    metric "plan_comm_s" "s" (Array.fold_left ( +. ) 0.0 plan.Work.comm);
    metric "exec_ms_p50" "ms" (ms (Stat.median_of_medians mc))
      ~note:(of_n (List.length mc) "round medians");
  ],
  [
    metric "fused_exec_ms_p50" "ms" (ms (Stat.median_of_medians fused))
      ~note:(of_n (List.length fused) "round medians");
    metric "req_per_s" "1/s" (Stat.median rates)
      ~note:(of_n (List.length rates) "blocks; closed loop, 1 client");
    metric "req_ms_p50" "ms" (ms (Stat.median_of_medians req))
      ~note:(of_n (List.length req) "block medians");
    tail_metric "req_ms_tail" req;
    tail_metric "exec_ms_tail" mc;
  ] )

(* ---- the traced run's per-layer metrics -------------------------------- *)

let span_seconds sink name =
  List.fold_left
    (fun acc (e : Obs.event) ->
      if e.ph = `X && e.pid = Obs.wall_pid && String.equal e.name name then
        acc +. (e.dur_us *. 1e-6)
      else acc)
    0.0 (Obs.events sink)

let ctr r k = float_of_int (Option.value ~default:0 (List.assoc_opt k !r))
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A server statistic summed over the pass's blocks, each served by its
   own server. *)
let server_sum p f = List.fold_left (fun a st -> a + f st) 0 p.serve.Work.servers

let per_layer ~sink ~rcost_s ~overhead ~gc0 ~gc1 p =
  let c = p.counts in
  let s = c.Work.search_ctr in
  let generated = ctr s "search.solutions_generated" in
  let search_busy = Layer.total "search" in
  let hits = ctr s "search.memo_hits" and misses = ctr s "search.memo_misses" in
  let d f = float_of_int (server_sum p f) in
  let ch = d (fun s -> s.Server.cache.Plancache.hits) in
  let cm = d (fun s -> s.Server.cache.Plancache.misses) in
  let kernel_busy = span_seconds sink "multiply" in
  let flops = ctr c.Work.spmd_ctr "kernel.flops" in
  let self_sum = List.fold_left (fun a (_, l) -> a +. l.Layer.self) 0.0 (Layer.layers ()) in
  let med xs = if xs = [] then 0.0 else Stat.median xs in
  [
    metric "search.busy_s" "s" search_busy;
    metric "search.minor_words" "words" c.Work.search_words;
    metric "search.solutions_generated" "count" generated;
    metric "search.solutions_pruned" "count" (ctr s "search.solutions_pruned");
    metric "search.solutions_kept" "count" (ctr s "search.solutions_kept");
    metric "search.kept_ratio" "ratio" (ratio (ctr s "search.solutions_kept") generated);
    metric "search.words_per_candidate" "words" (ratio c.Work.search_words generated);
    metric "search.ns_per_candidate" "ns" (ratio (search_busy *. 1e9) generated);
    metric "search.memo_hit_ratio" "ratio" (ratio hits (hits +. misses));
    metric "parsearch.tasks" "count" (ctr c.Work.parsearch_ctr "parsearch.tasks");
    metric "parsearch.steals" "count" (ctr c.Work.parsearch_ctr "parsearch.steals");
    metric "parsearch.busy_s" "s" (Layer.total "parsearch");
    metric "parser.busy_s" "s" (Layer.total "parser");
    metric "opmin.busy_s" "s" (Layer.total "opmin");
    metric "plan.validate_busy_s" "s" (Layer.total "plan.validate");
    metric "simulate.busy_s" "s" (Layer.total "simulate");
    metric "simulate.replay_dev" "ratio" c.Work.replay_dev;
    metric "cache.hits" "count" ch;
    metric "cache.misses" "count" cm;
    metric "cache.evictions" "count" (d (fun s -> s.Server.cache.Plancache.evictions));
    metric "cache.hit_ratio" "ratio" (ratio ch (ch +. cm));
    metric "server.hit_ms_p50" "ms" (ms (med p.serve.Work.hit));
    metric "server.cold_ms_p50" "ms" (ms (med p.serve.Work.cold));
    metric "server.degraded" "count" (d (fun s -> s.Server.degraded));
    metric "server.greedy_seeded" "count" (d (fun s -> s.Server.greedy_seeded));
    metric "server.deadline_exceeded" "count" (d (fun s -> s.Server.deadline_exceeded));
    metric "kernel.busy_s" "s" kernel_busy;
    metric "kernel.flops" "flop" flops;
    metric "kernel.gflops" "GF/s" (ratio flops kernel_busy /. 1e9);
    metric "multicore.busy_s" "s" (Layer.total "multicore");
    metric "spmd.sends" "count" (ctr c.Work.spmd_ctr "spmd.sends");
    metric "spmd.recvs" "count" (ctr c.Work.spmd_ctr "spmd.recvs");
    metric "spmd.recv_wait_s" "s" (span_seconds sink "recv-wait");
    metric "spmd.bytes_computed" "B" c.Work.bytes_computed;
    metric "fusedexec.busy_s" "s" (Layer.total "fusedexec");
    metric "fusedexec.sliced_rotations" "count" (float_of_int c.Work.sliced_rotations);
    metric "fusedexec.peak_words_per_proc" "words" (float_of_int c.Work.peak_words);
    metric "rcost.busy_s" "s" rcost_s;
    metric "gc.minor_words" "words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    metric "gc.major_collections" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    metric "trace.total_s" "s" p.wall;
    metric "trace.unaccounted_s" "s" (p.wall -. self_sum);
    metric "trace.overhead" "ratio" overhead;
  ]

let print_layers p =
  Printf.printf "layer self times over the traced total of %.4f s:\n" p.wall;
  let sum = ref 0.0 in
  List.iter
    (fun (name, (l : Layer.acc)) ->
      sum := !sum +. l.self;
      Printf.printf "  %-16s self %10.4f s  (%5.1f%%)  %7d calls\n" name l.self
        (100.0 *. l.self /. p.wall) l.calls)
    (Layer.layers ());
  Printf.printf "  %-16s      %10.4f s  (%5.1f%%)\n" "unaccounted"
    (p.wall -. !sum) (100.0 *. (p.wall -. !sum) /. p.wall)

(* ---- commands ----------------------------------------------------------- *)

let report_failures (t : Work.tally) =
  List.iter (fun n -> Printf.printf "violation: %s\n" n) (List.rev t.Work.notes)

let headline w p =
  if w.big > 0 then Work.set_seconds p.plan.Work.seq
  else Stat.median_of_medians p.exec.Work.mc

let run w ~seed ~seconds ~trace =
  let cpu0 = Host.cpu_snapshot () in
  print_endline ("host " ^ Host.record ());
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" w.name seed seconds
    (if trace then 1 else 0);
  Layer.on := trace;
  let s, setup_s = setups w seed setup_count in
  let rcost_s = Layer.total "rcost" /. float_of_int setup_count in
  Hashtbl.reset Layer.table;
  let p, metrics, unbounded, correct =
    if not trace then begin
      Layer.on := false;
      let p = pass w s ~seconds ~fixed:false ~ladder:false ~sink:None in
      let metrics, unbounded = end_to_end ~setup_s p in
      (p, metrics, unbounded, List.for_all (fun m -> Float.is_finite m.value) metrics)
    end
    else begin
      (* Untraced half first, as the base of the overhead figure. *)
      Layer.on := false;
      let base = pass w s ~seconds:(seconds /. 2.0) ~fixed:false ~ladder:false ~sink:None in
      Layer.on := true;
      let sink = Obs.create ~limit:1_000_000 () in
      let gc0 = Gc.quick_stat () in
      let p =
        Obs.with_sink sink (fun () ->
            pass w s ~seconds:(seconds /. 2.0) ~fixed:false ~ladder:true ~sink:(Some sink))
      in
      let gc1 = Gc.quick_stat () in
      let overhead = (headline w p /. headline w base) -. 1.0 in
      print_layers p;
      Printf.printf
        "tracing overhead on the workload's headline time: %+.1f%% \
         (plan %+.1f%%, request p50 %+.1f%%, execution p50 %+.1f%%); %d \
         events, %d dropped\n"
        (100.0 *. overhead)
        (100.0 *. ((Work.set_seconds p.plan.Work.seq /. Work.set_seconds base.plan.Work.seq) -. 1.0))
        (100.0 *. ((Stat.median_of_medians p.serve.Work.req /. Stat.median_of_medians base.serve.Work.req) -. 1.0))
        (100.0 *. ((Stat.median_of_medians p.exec.Work.mc /. Stat.median_of_medians base.exec.Work.mc) -. 1.0))
        (List.length (Obs.events sink)) (Obs.dropped sink);
      let trace_ok =
        match Obs.Trace_check.validate (Obs.to_chrome_json sink) with
        | Ok _ -> true
        | Error msg ->
          Printf.printf "violation: chrome trace invalid: %s\n" msg;
          false
      in
      p.tally.Work.attempted <- base.tally.Work.attempted + p.tally.Work.attempted;
      p.tally.Work.failed <- base.tally.Work.failed + p.tally.Work.failed;
      p.tally.Work.notes <- p.tally.Work.notes @ base.tally.Work.notes;
      (p, per_layer ~sink ~rcost_s ~overhead ~gc0 ~gc1 p, [], trace_ok)
    end
  in
  let tally = p.tally and serve = p.serve in
  Printf.printf "cycles %d; host steal %.1f%% of CPU time during the run\n"
    p.cycles (100.0 *. Host.steal_share ~since:cpu0);
  print_metrics metrics;
  if unbounded <> [] then begin
    print_endline "printed only, not in the result (see README.md):";
    print_metrics unbounded
  end;
  Printf.printf "metric %-30s %14.6g %-6s  (%d of %d operations)\n" "fail_ratio"
    (float_of_int tally.Work.failed /. float_of_int (max 1 tally.Work.attempted))
    "ratio" tally.Work.failed tally.Work.attempted;
  Printf.printf "metric %-30s %14.6g %-6s  (%d of %d ok replies%s)\n" "approx_ratio"
    (float_of_int serve.Work.approximate /. float_of_int (max 1 serve.Work.ok))
    "ratio" serve.Work.approximate serve.Work.ok
    (match serve.Work.ladder with
    | [] -> "; no ladder requests"
    | l ->
      Printf.sprintf "; %d ladder requests, median %.1f ms" (List.length l)
        (ms (Stat.median l)));
  report_failures tally;
  let correct = correct && tally.Work.failed = 0 in
  result_line ~correct ~attempted:tally.Work.attempted ~failed:tally.Work.failed metrics;
  if correct then 0 else 1

(* Exact counts of a fixed amount of work must repeat exactly, and the
   traced run's Chrome trace must validate. *)
let self_test () =
  print_endline ("host " ^ Host.record ());
  let exact w =
    let s, _ = setups w 1 1 in
    Layer.on := true;
    Hashtbl.reset Layer.table;
    let sink = Obs.create ~limit:1_000_000 () in
    let p =
      Obs.with_sink sink (fun () ->
          pass w s ~seconds:0.0 ~fixed:true ~ladder:false ~sink:(Some sink))
    in
    Layer.on := false;
    let c = p.counts in
    let cache f = server_sum p (fun st -> f st.Server.cache) in
    let counts =
      [
        ("search.minor_words", c.Work.search_words);
        ("search.solutions_generated", ctr c.Work.search_ctr "search.solutions_generated");
        ("search.solutions_pruned", ctr c.Work.search_ctr "search.solutions_pruned");
        ("search.solutions_kept", ctr c.Work.search_ctr "search.solutions_kept");
        ("spmd.sends", ctr c.Work.spmd_ctr "spmd.sends");
        ("spmd.recvs", ctr c.Work.spmd_ctr "spmd.recvs");
        ("kernel.flops", ctr c.Work.spmd_ctr "kernel.flops");
        ("cache.hits", float_of_int (cache (fun s -> s.Plancache.hits)));
        ("cache.misses", float_of_int (cache (fun s -> s.Plancache.misses)));
        ("plan_comm_s", Array.fold_left ( +. ) 0.0 p.plan.Work.comm);
      ]
    in
    (counts, Obs.Trace_check.validate (Obs.to_chrome_json sink), p.tally)
  in
  let ok = ref true in
  List.iter
    (fun w ->
      let a, trace_a, ta = exact w in
      let b, _, tb = exact w in
      List.iter2
        (fun (k, x) (_, y) ->
          let same = Float.equal x y in
          if not same then ok := false;
          Printf.printf "%-11s %-28s %.17g %.17g %s\n" w.name k x y
            (if same then "same" else "DIFFERENT"))
        a b;
      (match trace_a with
      | Ok n -> Printf.printf "%-11s chrome trace valid (%d events)\n" w.name n
      | Error msg ->
        ok := false;
        Printf.printf "%-11s chrome trace INVALID: %s\n" w.name msg);
      List.iter
        (fun (t : Work.tally) ->
          if t.Work.failed > 0 then begin
            ok := false;
            report_failures t
          end)
        [ ta; tb ])
    workloads;
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  if !ok then 0 else 1

let usage =
  "usage: main.exe --workload plan-large|execute --seed N \
   --seconds S --trace 0|1\n       main.exe --self-test"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && k <> "--self-test" ->
      parse ((k, v) :: acc) rest
    | [ "--self-test" ] -> `Self_test
    | [] -> `Run acc
    | _ -> `Bad
  in
  let code =
    match parse [] args with
    | `Self_test -> self_test ()
    | `Bad ->
      prerr_endline usage;
      2
    | `Run kv -> (
      let find k = List.assoc_opt k kv in
      match
        ( Option.bind (find "--workload") (fun n ->
              List.find_opt (fun w -> w.name = n) workloads),
          Option.bind (find "--seed") int_of_string_opt,
          Option.bind (find "--seconds") float_of_string_opt,
          find "--trace" )
      with
      | Some w, Some seed, Some seconds, Some ("0" | "1" as t) when seconds > 0.0 ->
        run w ~seed ~seconds ~trace:(t = "1")
      | _ ->
        prerr_endline usage;
        2)
  in
  exit code
