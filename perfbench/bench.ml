(* The benchmark engine: one call of [run] measures one workload.

   One closed-loop client issues the requests of a workload round by
   round, each after the previous one has completed, until at least S
   seconds of requests and enough samples for the tail percentile have
   been measured; only whole rounds are run, so every run measures the
   same mix. Every output is checked after its clock has stopped.

   Untraced, the Metrics sink stays off and the end-to-end metrics
   are measured. Traced, each round runs twice, once untraced and once
   traced (Metrics sink on, spans around every layer call), and the
   per-layer metrics are reported per traced round along with the
   tracing overhead. A quick run (the self-test's) does only the
   fingerprint rounds. *)

module Pool = Rb_util.Pool
module Metrics = Rb_util.Metrics
module Json = Rb_util.Json

type workload = {
  name : string;
  tail : float;  (** the percentile reported as latency_tail_s *)
  setup : pool:Pool.t -> seed:int -> int -> Request.t array;
      (** inputs and contexts; returns the generator of round [r] *)
}

let workloads =
  [
    { name = "codesign-sweep"; tail = 0.9; setup = Codesign_sweep.setup };
    { name = "kernel-bind"; tail = 0.8; setup = (fun ~pool:_ ~seed -> Kernel_bind.setup ~seed) };
    { name = "sat-attack"; tail = 0.9; setup = Sat_attack.setup };
  ]

(* Rounds covered by the fingerprint: every run completes them. *)
let fingerprint_rounds = 2

(* Set-up is repeated and its median reported, so a single slow
   allocation does not read as a set-up regression. *)
let setup_repeats = 15

(* A tail percentile is reported only with at least this many samples
   beyond it. *)
let tail_samples = 10

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array, with the number of
   samples strictly beyond its rank. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

let samples_needed tail = int_of_float (Float.ceil (float_of_int tail_samples /. (1. -. tail)))

(* ------------------------------------------------------------ running *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, most recent first *)
  mutable latencies : float list;
  by_label : (string, float list) Hashtbl.t;  (** latencies of each request label *)
  mutable digests : string list;  (** fingerprint rounds only, most recent first *)
  work : (string, int) Hashtbl.t;  (** fingerprint rounds only *)
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    latencies = [];
    by_label = Hashtbl.create 32;
    digests = [];
    work = Hashtbl.create 16;
  }

let fail tally label msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.failures < 5 then tally.failures <- (label ^ ": " ^ msg) :: tally.failures

(* Run one request, timing only its [run] part; returns the latency and
   the work counts of its outcome. *)
let run_request tally ~fingerprint (req : Request.t) =
  tally.attempted <- tally.attempted + 1;
  let t0 = Metrics.now_s () in
  match Span.record "request" req.run with
  | exception e ->
    let latency = Metrics.now_s () -. t0 in
    fail tally req.label (Printexc.to_string e);
    (latency, [])
  | finish ->
    let latency = Metrics.now_s () -. t0 in
    let o = finish () in
    (match o.check with Ok () -> () | Error msg -> fail tally req.label msg);
    if fingerprint then begin
      tally.digests <- o.digest :: tally.digests;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tally.work k (v + Option.value ~default:0 (Hashtbl.find_opt tally.work k)))
        o.work
    end;
    (latency, o.work)

let run_round tally ~fingerprint requests =
  Array.fold_left
    (fun (wall, work) req ->
      let latency, w = run_request tally ~fingerprint req in
      tally.latencies <- latency :: tally.latencies;
      Hashtbl.replace tally.by_label req.label
        (latency :: Option.value ~default:[] (Hashtbl.find_opt tally.by_label req.label));
      (wall +. latency, w @ work))
    (0., []) requests

let sorted_work tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The fingerprint of a run: a digest of every output of the
   fingerprint rounds, and the exact work counts those rounds did. Two
   runs of one seed must print the same fingerprint. *)
let fingerprint tally ~counters =
  let work = sorted_work tally.work @ counters in
  Json.Obj
    [
      ("rounds", Json.Int fingerprint_rounds);
      ("requests", Json.Int (List.length tally.digests));
      ("outputs", Json.String (Request.digest_of_string (String.concat "\n" (List.rev tally.digests))));
      ("work", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) work));
    ]

let metric value unit = Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]

(* Request count and median latency of every label: where the median
   and the tail percentile fall in the mix. *)
let latency_by_label tally =
  Hashtbl.fold
    (fun label l acc ->
      (label, Json.Obj [ ("requests", Json.Int (List.length l)); ("median_s", Json.Float (median l)) ])
      :: acc)
    tally.by_label []
  |> List.sort compare

(* ------------------------------------------------------ untraced run *)

(* Both kinds of run return the tally, the metrics, the details printed
   beside them (the fingerprint among them) and the run's own checks. *)

let measure ~quick ~seconds w generate =
  let tally = new_tally () in
  let needed = if quick then 0 else samples_needed w.tail in
  let rec loop r busy round_s =
    let finished =
      r >= fingerprint_rounds
      && (quick || (busy >= seconds && List.length tally.latencies >= needed))
    in
    if finished then (r, busy, List.rev round_s)
    else
      let wall, _ = run_round tally ~fingerprint:(r < fingerprint_rounds) (generate r) in
      loop (r + 1) (busy +. wall) (wall :: round_s)
  in
  let rounds, busy, round_s = loop 0 0. [] in
  let sorted = Array.of_list tally.latencies in
  Array.sort compare sorted;
  let p50, _ = percentile sorted 0.5 in
  let tail, beyond = percentile sorted w.tail in
  let n = Array.length sorted in
  ( tally,
    [
      (* Every round issues the same slots, so a round's time is a
         sample of the mix's cost; the median round sets the rate, and a
         few rounds slowed by other load on the machine do not. *)
      ("requests_per_s", metric (float_of_int (n / rounds) /. median round_s) "1/s");
      ("latency_p50_s", metric p50 "s");
      ("latency_tail_s", metric tail "s");
    ],
    [
      ("fingerprint", fingerprint tally ~counters:[]);
      ("rounds", Json.Int rounds);
      ("samples", Json.Int n);
      ("busy_s", Json.Float busy);
      ("round_s", Json.List (List.map (fun s -> Json.Float s) round_s));
      ("tail_percentile", Json.Float (100. *. w.tail));
      ("tail_samples_beyond", Json.Int beyond);
      ("latency_by_label", Json.Obj (latency_by_label tally));
    ],
    [ ("enough tail samples", quick || beyond >= tail_samples) ] )

(* -------------------------------------------------------- traced run *)

(* Library counters and timers read in the traced run, by the name the
   benchmark reports them under. *)
let counters =
  [
    ("matching.assignments", "matching/assignments");
    ("matching.augmenting_phases", "matching/augmenting_phases");
    ("matching.relaxation_scans", "matching/relaxation_scans");
    ("sim.kmatrix_samples", "sim/kmatrix_samples");
    ("sim.op_evals", "sim/op_evals");
    ("sim.injections", "sim/injections");
    ("sat.propagations", "sat/propagations");
    ("sat.conflicts", "sat/conflicts");
    ("sat.decisions", "sat/decisions");
    ("sat.learned_clauses", "sat/learned_clauses");
    ("attack.dip_queries", "attack/dip_queries");
    ("attack.oracle_queries", "attack/oracle_queries");
  ]

let timers =
  [
    ("matching.assignment_s", "matching/assignment");
    ("matching.canonicalize_s", "matching/canonicalize");
    ("sat.solve_s", "sat/solve");
  ]

(* Layer spans recorded by this benchmark, reported as self time. Every
   per-layer metric is a mean per traced round. *)
let layer_spans =
  [
    "core.obf_fast";
    "core.codesign_optimal";
    "core.codesign_heuristic";
    "sched.path_based";
    "sim.kmatrix_build";
    "hls.profile_build";
    "hls.area_bind";
    "hls.power_bind";
    "core.obf_bind";
    "core.codesign_bind";
    "sim.application_errors";
    "lint.design";
    "netlist.lock";
    "sat.attack";
  ]

(* Work counts read off request results. *)
let result_counts =
  [
    "core.obf_fast_evals";
    "core.codesign_optimal_tuples";
    "core.codesign_heuristic_tuples";
    "sched.cycles";
  ]

let counter_of snap key = Option.value ~default:0 (List.assoc_opt key snap.Metrics.counters)

let timer_of snap key =
  match List.assoc_opt key snap.Metrics.timers with Some d -> d.Metrics.total | None -> 0.

let traced ~quick ~seconds ~pool generate =
  let tally = new_tally () in
  let result_work = Hashtbl.create 16 in
  let fingerprint_counters = ref [] in
  Metrics.reset ();
  Span.reset ();
  let rec loop r untraced traced =
    if r >= fingerprint_rounds && (quick || untraced +. traced >= seconds) then (r, untraced, traced)
    else begin
      let requests = generate r in
      let untraced_pass () = fst (run_round (new_tally ()) ~fingerprint:false requests) in
      let traced_pass () =
        Metrics.set_enabled true;
        Span.on := true;
        let pass = run_round tally ~fingerprint:(r < fingerprint_rounds) requests in
        Span.on := false;
        Metrics.set_enabled false;
        pass
      in
      (* Alternate which pass goes first, so neither always runs on the
         caches and heap the other warmed. *)
      let u, (t, work) =
        if r mod 2 = 0 then
          let u = untraced_pass () in
          (u, traced_pass ())
        else
          let t = traced_pass () in
          (untraced_pass (), t)
      in
      List.iter
        (fun (k, v) ->
          Hashtbl.replace result_work k (v + Option.value ~default:0 (Hashtbl.find_opt result_work k)))
        work;
      if r = fingerprint_rounds - 1 then begin
        let snap = Metrics.snapshot () in
        fingerprint_counters := List.map (fun (name, key) -> (name, counter_of snap key)) counters
      end;
      loop (r + 1) (untraced +. u) (traced +. t)
    end
  in
  let rounds, untraced, traced = loop 0 0. 0. in
  let snap = Metrics.snapshot () in
  let per_round x = x /. float_of_int rounds in
  let s name = per_round (Span.self name) in
  let solve = timer_of snap "sat/solve" in
  let fan_out = Span.inclusive "core.obf_fast" in
  let utilisation =
    if fan_out = 0. then 0.
    else if Pool.jobs pool = 1 then 1.
    else timer_of snap "pool/task_busy" /. (float_of_int (Pool.jobs pool) *. fan_out)
  in
  let self_sum = List.fold_left (fun acc name -> acc +. Span.self name) 0. (Span.names ()) in
  let wall = Span.inclusive "request" in
  let metrics =
    List.map (fun name -> (name ^ "_s", metric (s name) "s")) layer_spans
    @ List.map
        (fun name ->
          ( name,
            metric
              (per_round (float_of_int (Option.value ~default:0 (Hashtbl.find_opt result_work name))))
              "count" ))
        result_counts
    @ List.map (fun (name, key) -> (name, metric (per_round (float_of_int (counter_of snap key))) "count")) counters
    @ List.map (fun (name, key) -> (name, metric (per_round (timer_of snap key)) "s")) timers
    @ [
        ("sat.attack_self_s", metric (per_round (Span.self "sat.attack" -. solve)) "s");
        ( "sat.props_per_s",
          metric
            (if solve = 0. then 0. else float_of_int (counter_of snap "sat/propagations") /. solve)
            "1/s" );
        ("util.pool_utilisation", metric utilisation "ratio");
        ("unattributed_s", metric (s "request") "s");
        ("trace.wall_s", metric (per_round wall) "s");
        ("trace.untraced_wall_s", metric (per_round untraced) "s");
        ("trace.overhead_s", metric (per_round (traced -. untraced)) "s");
      ]
  in
  (* Self times partition the request spans, so they must add up to the
     traced wall; a gap means a span was left open or nested wrongly. *)
  let adds_up = Float.abs (self_sum -. wall) <= 1e-6 *. Float.max 1. wall in
  ( tally,
    metrics,
    [
      ("fingerprint", fingerprint tally ~counters:!fingerprint_counters);
      ("rounds", Json.Int rounds);
      ("traced_s", Json.Float traced);
      ("untraced_s", Json.Float untraced);
      ("self_sum_s", Json.Float self_sum);
    ],
    [ ("self times add up to the traced wall", adds_up) ] )

(* ---------------------------------------------------------------- main *)

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (%s)" name
         (String.concat ", " (List.map (fun w -> w.name) workloads)))

let run ~pool ~workload ~seed ~seconds ~trace ~quick =
  let w = find workload in
  (* Each set-up starts from the same compacted heap; only the last
     one's inputs are kept, so the repeats do not add to the peak RSS. *)
  let rec set_up k times =
    Gc.compact ();
    let t0 = Metrics.now_s () in
    let generate = w.setup ~pool ~seed in
    let times = (Metrics.now_s () -. t0) :: times in
    if k = 1 then (median times, generate) else set_up (k - 1) times
  in
  let setup_s, generate = set_up setup_repeats [] in
  let tally, metrics, details, checks =
    if trace then traced ~quick ~seconds ~pool generate
    else
      let tally, metrics, details, checks = measure ~quick ~seconds w generate in
      (tally, ("setup_s", metric setup_s "s") :: metrics, details, checks)
  in
  let broken = List.filter_map (fun (name, ok) -> if ok then None else Some name) checks in
  Json.Obj
    ([
       ("workload", Json.String w.name);
       ("seed", Json.Int seed);
       ("trace", Json.Bool trace);
       ("correct", Json.Bool (tally.failed = 0 && broken = []));
       ("attempted", Json.Int tally.attempted);
       ("failed", Json.Int tally.failed);
       ("fail_ratio", Json.Float (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)));
       ("failures", Json.List (List.rev_map (fun s -> Json.String s) tally.failures));
       ("broken_checks", Json.List (List.map (fun s -> Json.String s) broken));
       ("pool_jobs", Json.Int (Pool.jobs pool));
       ("metrics", Json.Obj metrics);
     ]
    @ details)
