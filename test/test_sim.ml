module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Trace = Rb_sim.Trace
module Exec = Rb_sim.Exec
module Kmatrix = Rb_sim.Kmatrix
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Schedule = Rb_sched.Schedule
module Testgen = Rb_testsupport.Testgen
module B = Dfg.Builder

(* y = (a + b), z = y * c ; two ops, easy to trace by hand. *)
let tiny_dfg () =
  let b = B.create "tiny" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let c = B.input b "c" in
  let y = B.add ~label:"y" b a bb in
  let z = B.mul ~label:"z" b y c in
  B.output b z;
  B.finish b

let tiny_trace dfg =
  Trace.make dfg ~samples:[| [| 1; 2; 3 |]; [| 1; 2; 3 |]; [| 10; 20; 2 |] |]

(* -------------------------------------------------------------- trace *)

let test_trace_accessors () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "value" 20 (Trace.input_value t ~sample:2 ~input:"b");
  Alcotest.(check int) "index" 2 (Trace.input_index t "c")

let test_trace_clamps () =
  let dfg = tiny_dfg () in
  let t = Trace.make dfg ~samples:[| [| 300; -1; 256 |] |] in
  Alcotest.(check int) "clamped 300" (300 land 255) (Trace.input_value t ~sample:0 ~input:"a");
  Alcotest.(check int) "clamped 256" 0 (Trace.input_value t ~sample:0 ~input:"c")

let test_trace_validation () =
  let dfg = tiny_dfg () in
  (match Trace.make dfg ~samples:[||] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty trace accepted");
  (match Trace.make dfg ~samples:[| [| 1 |] |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "narrow sample accepted");
  match Trace.input_value (tiny_trace dfg) ~sample:0 ~input:"nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown input accepted"

(* --------------------------------------------------------------- exec *)

let test_eval_clean_by_hand () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let e = Exec.eval_clean t ~sample:0 in
  Alcotest.(check int) "y = 1+2" 3 e.(0).Exec.result;
  Alcotest.(check int) "z = 3*3" 9 e.(1).Exec.result;
  Alcotest.(check (pair int int)) "z operands" (3, 3) (e.(1).Exec.a, e.(1).Exec.b);
  let e2 = Exec.eval_clean t ~sample:2 in
  Alcotest.(check int) "z = 30*2" 60 e2.(1).Exec.result

let lock_z_config () =
  (* lock FU 1 on minterm (3,3) — z's operands in samples 0 and 1. *)
  Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (1, [ Minterm.pack 3 3 ]) ]

let test_eval_locked_injects () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  (* op0 (add) -> FU 0, op1 (mul) -> FU 1 *)
  let fu_of_op = [| 0; 1 |] in
  let results, injections = Exec.eval_locked t ~sample:0 ~fu_of_op ~config:(lock_z_config ()) in
  Alcotest.(check int) "one injection" 1 injections;
  Alcotest.(check int) "corrupted output" (Config.corrupt 9) results.(1).Exec.result;
  let results2, injections2 = Exec.eval_locked t ~sample:2 ~fu_of_op ~config:(lock_z_config ()) in
  Alcotest.(check int) "no injection on other data" 0 injections2;
  Alcotest.(check int) "clean output" 60 results2.(1).Exec.result

let test_corruption_propagates () =
  (* Lock the *add* FU: its corrupted result changes the multiply's
     operands downstream. *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let fu_of_op = [| 0; 1 |] in
  let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ Minterm.pack 1 2 ]) ] in
  let results, injections = Exec.eval_locked t ~sample:0 ~fu_of_op ~config in
  Alcotest.(check int) "inject at add" 1 injections;
  let corrupted_y = Config.corrupt 3 in
  Alcotest.(check int) "downstream operand" corrupted_y results.(1).Exec.a;
  Alcotest.(check int) "downstream result" ((corrupted_y * 3) land 255) results.(1).Exec.result

let schedule_of dfg = Schedule.make dfg ~cycle_of:[| 0; 1 |]

let test_application_errors_report () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  let report =
    Exec.application_errors schedule t ~fu_of_op:[| 0; 1 |] ~config:(lock_z_config ())
  in
  Alcotest.(check int) "samples" 3 report.Exec.samples;
  (* samples 0 and 1 hit minterm (3,3) on the locked mul *)
  Alcotest.(check int) "error events" 2 report.Exec.error_events;
  Alcotest.(check int) "clean hits agree" 2 report.Exec.clean_hits;
  Alcotest.(check int) "corrupted samples" 2 report.Exec.corrupted_samples;
  Alcotest.(check int) "corrupted output words" 2 report.Exec.corrupted_output_words;
  Alcotest.(check int) "corrupted cycles" 2 report.Exec.corrupted_cycles;
  Alcotest.(check int) "burst length" 1 report.Exec.max_consecutive_cycles

let test_application_errors_burst () =
  (* Lock both FUs so a sample injects in both cycles: burst = 2. *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ Minterm.pack 1 2 ]); (1, [ Minterm.pack (Config.corrupt 3) 3 ]) ]
  in
  let report = Exec.application_errors schedule t ~fu_of_op:[| 0; 1 |] ~config in
  Alcotest.(check int) "burst spans both cycles" 2 report.Exec.max_consecutive_cycles

let test_application_errors_validation () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  match Exec.application_errors schedule t ~fu_of_op:[| 0 |] ~config:(lock_z_config ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "binding width mismatch accepted"

let test_eval_locked_multi_kind_config () =
  (* one locked adder FU and one locked multiplier FU in a single
     configuration: injections accumulate across kinds *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ Minterm.pack 1 2 ]); (1, [ Minterm.pack (Config.corrupt 3) 3 ]) ]
  in
  let _, injections = Exec.eval_locked t ~sample:0 ~fu_of_op:[| 0; 1 |] ~config in
  Alcotest.(check int) "both kinds inject" 2 injections

let test_trace_sub () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let tail = Trace.sub t ~pos:1 ~len:2 in
  Alcotest.(check int) "length" 2 (Trace.length tail);
  Alcotest.(check int) "offset preserved" 10 (Trace.input_value tail ~sample:1 ~input:"a");
  (match Trace.sub t ~pos:2 ~len:5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "overrun accepted");
  match Trace.sub t ~pos:0 ~len:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty slice accepted"

(* ------------------------------------------------------------ kmatrix *)

let test_kmatrix_counts () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let k = Kmatrix.build t in
  Alcotest.(check int) "K((1,2), add)" 2 (Kmatrix.count k (Minterm.pack 1 2) 0);
  Alcotest.(check int) "K((10,20), add)" 1 (Kmatrix.count k (Minterm.pack 10 20) 0);
  Alcotest.(check int) "K((3,3), mul)" 2 (Kmatrix.count k (Minterm.pack 3 3) 1);
  Alcotest.(check int) "absent" 0 (Kmatrix.count k (Minterm.pack 9 9) 1)

let test_kmatrix_counts_sum_to_samples () =
  let dfg = Testgen.random_dfg 11 in
  let t = Testgen.skewed_trace 12 dfg in
  let k = Kmatrix.build t in
  for op = 0 to Dfg.op_count dfg - 1 do
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Kmatrix.op_histogram k op) in
    Alcotest.(check int) "histogram covers trace" (Trace.length t) total
  done

let test_kmatrix_count_set_additive () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  let set = Minterm.Set.of_list [ Minterm.pack 1 2; Minterm.pack 10 20 ] in
  Alcotest.(check int) "set = sum of members" 3 (Kmatrix.count_set k set 0)

let test_kmatrix_top_minterms () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (match Kmatrix.top_minterms k ~n:1 with
   | [ m ] ->
     (* (1,2) on add and (3,3) on mul both occur twice; tie broken by
        minterm order, so (1,2) wins. *)
     Alcotest.(check (pair int int)) "most common" (1, 2) (Minterm.unpack m)
   | _ -> Alcotest.fail "expected one");
  Alcotest.(check int) "n bounds result" 3 (List.length (Kmatrix.top_minterms k ~n:3))

let test_kmatrix_top_minterms_by_kind () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  match Kmatrix.top_minterms ~kind:Dfg.Mul k ~n:1 with
  | [ m ] -> Alcotest.(check (pair int int)) "mul head" (3, 3) (Minterm.unpack m)
  | _ -> Alcotest.fail "expected one"

let test_kmatrix_of_counts () =
  let dfg = Testgen.fig2_dfg () in
  let k = Testgen.fig2_kmatrix dfg in
  Alcotest.(check int) "x on OPA" 6 (Kmatrix.count k Testgen.minterm_x 0);
  Alcotest.(check int) "y on OPE" 8 (Kmatrix.count k Testgen.minterm_y 4);
  Alcotest.(check int) "x total" 23 (Kmatrix.total_occurrences k Testgen.minterm_x)

let test_kmatrix_of_counts_validation () =
  let dfg = tiny_dfg () in
  (match Kmatrix.of_counts dfg [ (7, [ (Minterm.pack 0 0, 1) ]) ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad op id accepted");
  match Kmatrix.of_counts dfg [ (0, [ (Minterm.pack 0 0, -2) ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

let test_kmatrix_head_mass () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (* 6 operand pairs total over 3 samples x 2 ops; top-4 covers all *)
  Alcotest.(check (float 1e-9)) "all mass" 1.0 (Kmatrix.head_mass k ~n:4);
  Alcotest.(check bool) "head of 1 is partial" true
    (Kmatrix.head_mass k ~n:1 < 1.0 && Kmatrix.head_mass k ~n:1 > 0.0)

let test_kmatrix_op_concentration () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (* (1,2) occurs only on the add op: fully concentrated *)
  Alcotest.(check (float 1e-9)) "single-op minterm" 1.0
    (Kmatrix.op_concentration k (Minterm.pack 1 2));
  Alcotest.(check (float 1e-9)) "absent minterm" 0.0
    (Kmatrix.op_concentration k (Minterm.pack 200 200))

let qcheck_clean_hits_match_kmatrix =
  (* Exec.clean_hits must equal the K-matrix sum over locked (fu, op)
     pairs — the consistency between simulator and Eqn. 2's table. *)
  QCheck2.Test.make ~name:"clean hits = K restricted to locked ops" ~count:40
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:12 in
      let t = Testgen.skewed_trace (seed + 1) dfg in
      let schedule = Rb_sched.Scheduler.path_based dfg in
      let allocation = Rb_hls.Allocation.for_schedule schedule in
      let binding = Testgen.random_valid_binding (seed + 2) schedule allocation in
      let k = Kmatrix.build t in
      let locked_fu = 0 in
      let minterms = List.filteri (fun i _ -> i < 2) (Kmatrix.top_minterms k ~n:2) in
      match minterms with
      | [] -> true
      | _ ->
        let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (locked_fu, minterms) ] in
        let report =
          Exec.application_errors schedule t ~fu_of_op:(Rb_hls.Binding.fu_array binding)
            ~config
        in
        let expected =
          List.fold_left
            (fun acc op ->
              acc + Kmatrix.count_set k (Config.minterms_of config locked_fu) op)
            0
            (Rb_hls.Binding.ops_on_fu binding locked_fu)
        in
        report.Exec.clean_hits = expected)

(* The cross-op totals against a reference summed from the public
   per-op histograms into a [Minterm.Map]: the same sorted list, prefix
   and distinct count. The random [of_counts] tables list some
   minterms with count 0, which must still appear (with total 0). *)
let reference_minterms ?kind k =
  let dfg = Kmatrix.dfg k in
  let totals = ref Minterm.Map.empty in
  for op = 0 to Dfg.op_count dfg - 1 do
    if match kind with None -> true | Some kd -> (Dfg.op dfg op).Dfg.kind = kd then
      List.iter
        (fun (m, c) ->
          totals :=
            Minterm.Map.update m
              (fun cur -> Some (Option.value cur ~default:0 + c))
              !totals)
        (Kmatrix.op_histogram k op)
  done;
  Minterm.Map.bindings !totals
  |> List.sort (fun (m1, c1) (m2, c2) ->
         match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c)

let qcheck_aggregate_matches_reference =
  QCheck2.Test.make ~name:"Kmatrix totals = summed per-op histograms" ~count:40
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rb_util.Rng.create seed in
      let dfg = Testgen.random_dfg seed ~n_ops:(2 + Rb_util.Rng.int rng 14) in
      let built = Kmatrix.build (Testgen.skewed_trace (seed + 1) dfg) in
      let explicit =
        Kmatrix.of_counts dfg
          (List.init (Dfg.op_count dfg) (fun op ->
               ( op,
                 List.init (Rb_util.Rng.int rng 6) (fun _ ->
                     ( Minterm.pack (Rb_util.Rng.int rng 2) (Rb_util.Rng.int rng 4),
                       Rb_util.Rng.int rng 3 )) )))
      in
      List.for_all
        (fun k ->
          List.for_all
            (fun kind ->
              let expected = reference_minterms ?kind k in
              Kmatrix.all_minterms ?kind k = expected
              && Kmatrix.top_minterms ?kind k ~n:3
                 = List.map fst (List.filteri (fun i _ -> i < 3) expected))
            [ None; Some Dfg.Add; Some Dfg.Mul ]
          && Kmatrix.distinct_minterms k = List.length (reference_minterms k))
        [ built; explicit ])

(* Two threads of one domain and a second domain total the same K
   matrix at once: each call must see only its own totals, however the
   runtime switches threads inside it. 100 ops with 300 draws each
   make every call long enough for switches to land mid-call. *)
let test_aggregate_concurrent () =
  let rng = Rb_util.Rng.create 97 in
  let dfg = Testgen.random_dfg ~n_ops:100 97 in
  let k =
    Kmatrix.of_counts dfg
      (List.init (Dfg.op_count dfg) (fun op ->
           ( op,
             List.init 300 (fun _ ->
                 (Minterm.of_int (Rb_util.Rng.int rng Minterm.space_size), Rb_util.Rng.int rng 4))
           )))
  in
  let expected = Kmatrix.all_minterms k in
  let expected_add = Kmatrix.all_minterms ~kind:Dfg.Add k in
  let worker () =
    let ok = ref true in
    for _ = 1 to 12 do
      if Kmatrix.all_minterms k <> expected then ok := false;
      if Kmatrix.all_minterms ~kind:Dfg.Add k <> expected_add then ok := false
    done;
    !ok
  in
  let results = Array.make 2 false in
  let threads = List.init 2 (fun i -> Thread.create (fun () -> results.(i) <- worker ()) ()) in
  let domain = Domain.spawn worker in
  List.iter Thread.join threads;
  let domain_ok = Domain.join domain in
  Alcotest.(check (array bool)) "thread totals" [| true; true |] results;
  Alcotest.(check bool) "domain totals" true domain_ok

let () =
  Alcotest.run "rb_sim"
    [
      ( "trace",
        [
          Alcotest.test_case "accessors" `Quick test_trace_accessors;
          Alcotest.test_case "clamps" `Quick test_trace_clamps;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
      ( "exec",
        [
          Alcotest.test_case "clean by hand" `Quick test_eval_clean_by_hand;
          Alcotest.test_case "locked injects" `Quick test_eval_locked_injects;
          Alcotest.test_case "corruption propagates" `Quick test_corruption_propagates;
          Alcotest.test_case "error report" `Quick test_application_errors_report;
          Alcotest.test_case "burst metric" `Quick test_application_errors_burst;
          Alcotest.test_case "validation" `Quick test_application_errors_validation;
          Alcotest.test_case "multi-kind config" `Quick test_eval_locked_multi_kind_config;
          Alcotest.test_case "trace sub" `Quick test_trace_sub;
        ] );
      ( "kmatrix",
        [
          Alcotest.test_case "counts" `Quick test_kmatrix_counts;
          Alcotest.test_case "sums to samples" `Quick test_kmatrix_counts_sum_to_samples;
          Alcotest.test_case "count_set additive" `Quick test_kmatrix_count_set_additive;
          Alcotest.test_case "top minterms" `Quick test_kmatrix_top_minterms;
          Alcotest.test_case "top by kind" `Quick test_kmatrix_top_minterms_by_kind;
          Alcotest.test_case "of_counts" `Quick test_kmatrix_of_counts;
          Alcotest.test_case "of_counts validation" `Quick test_kmatrix_of_counts_validation;
          Alcotest.test_case "head mass" `Quick test_kmatrix_head_mass;
          Alcotest.test_case "op concentration" `Quick test_kmatrix_op_concentration;
          Alcotest.test_case "concurrent totals" `Quick test_aggregate_concurrent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_clean_hits_match_kmatrix; qcheck_aggregate_matches_reference ] );
    ]
