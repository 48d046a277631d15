(* Workload "kernel-bind": one request binds one thousand-op parametric
   kernel end to end — schedule, K matrix, profile, one registered
   binder, lint, trace replay — under one locking configuration. *)

module Dfg = Rb_dfg.Dfg
module Rng = Rb_util.Rng
module Benchmark = Rb_workload.Benchmark
module Schedule = Rb_sched.Schedule
module Kmatrix = Rb_sim.Kmatrix
module Exec = Rb_sim.Exec
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Binder = Rb_hls.Binder
module Config = Rb_locking.Config

type job = {
  bench : Benchmark.t;
  trace : Rb_sim.Trace.t;
  limits : Rb_sched.Scheduler.limits;
  binder : string;
  kind : Dfg.op_kind;
  locked_fus : int;
  minterms_per_fu : int;
  lock_seed : int;  (** picks each locked FU's minterms among the candidates *)
}

let label j =
  Printf.sprintf "%s/%s/a%dm%d/%s/L%d/M%d" j.bench.Benchmark.name j.binder j.limits.adders
    j.limits.multipliers (Dfg.kind_label j.kind) j.locked_fus j.minterms_per_fu

let n_candidates = 10

(* The span each binder's call is recorded under, named after the
   library directory the binder lives in. *)
let binder_span = function
  | "area" -> "hls.area_bind"
  | "power" -> "hls.power_bind"
  | "obf" -> "core.obf_bind"
  | "codesign" -> "core.codesign_bind"
  | name -> invalid_arg ("Kernel_bind.binder_span: " ^ name)

(* Lock the first [locked_fus] FUs of the kind, each on its own draw of
   [minterms_per_fu] of the kind's most frequent minterms. *)
let config j allocation candidates =
  let rng = Rng.create j.lock_seed in
  let fus = List.filteri (fun i _ -> i < j.locked_fus) (Allocation.fu_ids allocation j.kind) in
  let locks =
    List.map
      (fun fu ->
        let picks = Array.copy candidates in
        Rng.shuffle rng picks;
        (fu, Array.to_list (Array.sub picks 0 j.minterms_per_fu)))
      fus
  in
  Config.make ~scheme:Rb_locking.Scheme.Sfll_rem ~locks

type result = {
  schedule : Schedule.t;
  k : Kmatrix.t;
  candidates : Rb_dfg.Minterm.t array;
  out : Binder.output;
  lint : Rb_lint.Report.t;
  errors : Exec.error_report;
}

let evaluate j =
  let schedule =
    Span.record "sched.path_based" (fun () -> Benchmark.schedule ~limits:j.limits j.bench)
  in
  let k = Span.record "sim.kmatrix_build" (fun () -> Kmatrix.build j.trace) in
  let profile = Span.record "hls.profile_build" (fun () -> Rb_hls.Profile.build j.trace) in
  let allocation = Allocation.for_schedule schedule in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:j.kind k ~n:n_candidates) in
  let input =
    { Binder.schedule; allocation; profile; k; config = config j allocation candidates; candidates }
  in
  let out = Span.record (binder_span j.binder) (fun () -> Binder.bind j.binder input) in
  let fu_of_op = Binding.fu_array out.binding in
  let lint =
    Span.record "lint.design" (fun () ->
        Rb_lint.Lint.design ~config:out.config ~candidates ~subject:(label j) schedule allocation
          ~fu_of_op)
  in
  let errors =
    Span.record "sim.application_errors" (fun () ->
        Exec.application_errors schedule j.trace ~fu_of_op ~config:out.config)
  in
  { schedule; k; candidates; out; lint; errors }

let check r =
  let open Request in
  let expected = Rb_core.Cost.expected_errors r.k r.out.binding r.out.config in
  (match Schedule.validate r.schedule with Ok () -> Ok () | Error e -> Error ("schedule: " ^ e))
  &&& lazy
        (ok_if (Rb_lint.Report.is_clean r.lint) "lint: %d error(s)"
           (Rb_lint.Report.error_count r.lint))
  &&& lazy
        (ok_if (r.errors.clean_hits = expected) "trace replay %d <> K-matrix sum %d"
           r.errors.clean_hits expected)

let render j r =
  let e = r.errors in
  Printf.sprintf "%s\ncycles %d\nconfig %s\nbinding %s\nerrors %d %d %d %d %d %d %d\nlint %d"
    (label j) (Schedule.n_cycles r.schedule)
    (Format.asprintf "%a" Config.pp r.out.config)
    (String.concat "," (Array.to_list (Array.map string_of_int (Binding.fu_array r.out.binding))))
    e.samples e.error_events e.clean_hits e.corrupted_output_words e.corrupted_samples
    e.corrupted_cycles e.max_consecutive_cycles
    (Rb_lint.Report.error_count r.lint)

let request j =
  {
    Request.label = label j;
    run =
      (fun () ->
        let r = evaluate j in
        fun () ->
          {
            Request.check = check r;
            digest = Request.digest_of_string (render j r);
            work =
              [
                ("sched.cycles", Schedule.n_cycles r.schedule);
                ("kernel.ops", Dfg.op_count (Schedule.dfg r.schedule));
                ("sim.clean_hits", r.errors.clean_hits);
                ("sim.error_events", r.errors.error_events);
              ];
          });
  }

(* One slot per (kernel, binder). Kernels, FU limits and the shape of
   the lock (2 FUs x 2 minterms) are fixed so every round costs the
   same; each round draws the locked minterms afresh, and the seed
   draws the kernels' input traces. The lock shape is fixed because the
   codesign binder's cost grows with |L| x C(10, |M|). The cheap
   binders (area, obf) bind each family at twice the size (1-4k ops)
   that the dear ones (power, codesign) bind (1-2k ops), so the sixteen
   slots spread over one range (~0.2-0.45 s) instead of two clusters
   with the median in the gap between them. *)
let slots =
  [
    ("fft", 128, "power"); ("fft", 128, "codesign"); ("fft", 256, "area"); ("fft", 256, "obf");
    ("dct", 32, "power"); ("dct", 32, "codesign"); ("dct", 64, "area"); ("dct", 64, "obf");
    ("conv", 64, "power"); ("conv", 64, "codesign"); ("conv", 128, "area"); ("conv", 128, "obf");
    ("aes", 8, "power"); ("aes", 8, "codesign"); ("aes", 16, "area"); ("aes", 16, "obf");
  ]

let limits = { Rb_sched.Scheduler.adders = 16; multipliers = 16 }

let setup ~seed =
  let kernels = Hashtbl.create 8 in
  let kernel family n =
    match Hashtbl.find_opt kernels (family, n) with
    | Some k -> k
    | None ->
      let bench = Benchmark.parametric family ~n in
      let k = (bench, Benchmark.trace ~seed bench) in
      Hashtbl.replace kernels (family, n) k;
      k
  in
  let slots =
    List.map
      (fun (family, n, binder) ->
        let bench, trace = kernel family n in
        (bench, trace, binder))
      slots
    |> Array.of_list
  in
  Request.round ~seed ~slots ~draw:(fun ~round:_ rng (bench, trace, binder) ->
      request
        {
          bench;
          trace;
          limits;
          binder;
          kind = Dfg.Add;
          locked_fus = 2;
          minterms_per_fu = 2;
          lock_seed = Rng.int rng 1_000_000;
        })
