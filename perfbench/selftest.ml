(* Self-test of the benchmark: a quick run of every workload must pass
   its output checks, print the same fingerprint twice (once with the
   pool's calls inline, once on min(2, nproc) workers), and print the
   same outputs traced as untraced, with the traced self times adding
   up to the traced wall; and the codesign-sweep requests, which
   recompose Experiments.sweep from its layers, must return what the
   sweep itself returns. Exits 1 on the first failure.

     selftest.exe   (or: python3 perfbench/run.py --self-test) *)

module Pool = Rb_util.Pool
module Json = Rb_util.Json
module Experiments = Rb_core.Experiments

let seed = 7

let fail fmt = Printf.ksprintf (fun msg -> print_endline ("FAIL " ^ msg); exit 1) fmt

let member path json =
  List.fold_left
    (fun j key -> match Json.member key j with Some v -> v | None -> fail "no %s" key)
    json path

let quick_run ~pool ~trace name =
  let r = Bench.run ~pool ~workload:name ~seed ~seconds:0. ~trace ~quick:true in
  if member [ "correct" ] r <> Json.Bool true then
    fail "%s (trace %b) is not correct: %s" name trace (Json.to_string r);
  r

(* The fingerprint work counts that come from request results; the
   traced run adds library counters to them. *)
let result_work r =
  match member [ "fingerprint"; "work" ] r with
  | Json.Obj fields -> List.filter (fun (k, _) -> not (List.mem_assoc k Bench.counters)) fields
  | _ -> fail "fingerprint work is not an object"

let check_workload ~inline ~pool name =
  let a = quick_run ~pool:inline ~trace:false name in
  let b = quick_run ~pool ~trace:false name in
  let t = quick_run ~pool:inline ~trace:true name in
  if member [ "fingerprint" ] a <> member [ "fingerprint" ] b then
    fail "%s: fingerprints differ between two runs" name;
  if member [ "fingerprint"; "outputs" ] a <> member [ "fingerprint"; "outputs" ] t
     || result_work a <> result_work t
  then fail "%s: the traced run computed different outputs" name;
  Printf.printf "ok %s: checks pass, fingerprint %s repeats with 1 and %d workers, traced run agrees\n%!"
    name
    (Json.to_string (member [ "fingerprint"; "outputs" ] a))
    (Pool.jobs pool)

let check_sweep_equivalence ~pool =
  let b = Rb_workload.Benchmark.find "jdmerge1" in
  let ctx =
    Experiments.context ~name:b.name (Rb_workload.Benchmark.schedule b)
      (Rb_workload.Benchmark.trace ~seed b)
  in
  List.iter
    (fun (c : Codesign_sweep.config) ->
      let l = List.length c.locked_fus and m = c.minterms_per_fu in
      let mine = Codesign_sweep.evaluate ~pool ~seed c in
      match
        Experiments.sweep ~pool ~seed ~max_combos_per_config:Codesign_sweep.max_combos
          ~max_optimal_assignments:Codesign_sweep.max_optimal_assignments ~fu_counts:[ l ]
          ~minterm_counts:[ m ] ctx c.kind
      with
      | [ theirs ] ->
        let combos =
          Array.map
            (fun (s : Codesign_sweep.scored) ->
              { Experiments.e_area = s.e_area; e_power = s.e_power; e_obf = s.e_obf })
            mine.combos
        in
        if
          combos <> theirs.combos
          || mine.optimal.errors <> theirs.e_codesign_optimal
          || mine.optimal_candidates <> theirs.optimal_candidates_used
          || mine.heuristic.errors <> theirs.e_codesign_heuristic
          || mine.heuristic.assignments_searched <> theirs.heuristic_searched
        then fail "%s differs from Experiments.sweep" (Codesign_sweep.label c)
      | _ -> fail "Experiments.sweep returned no single result for %s" (Codesign_sweep.label c))
    (Codesign_sweep.configs ctx);
  print_endline "ok codesign-sweep requests match Experiments.sweep on every jdmerge1 configuration"

let () =
  Rb_core.Binders.ensure_registered ();
  Pool.with_pool ~jobs:1 (fun inline ->
      Pool.with_pool ~jobs:(min 2 (Pool.default_jobs ())) (fun pool ->
          check_sweep_equivalence ~pool;
          List.iter (fun (w : Bench.workload) -> check_workload ~inline ~pool w.name) Bench.workloads));
  print_endline "ok all"
