(* The repository benchmark's entry point: one process measures one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one JSON object on stdout (see Bench.run); perfbench/run.py
   turns it into the benchmark's result line. *)

module Pool = Rb_util.Pool
module Json = Rb_util.Json

let () =
  (* The GC settings of the bench harness (bench/main.ml): fewer minor
     collections inside the timed requests, and a resident set in which
     the fixed minor heaps weigh more than whichever request of the
     seed's draw needed the most memory. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024; space_overhead = 200 };
  Rb_core.Binders.ensure_registered ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of requests to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* One worker: the pool's calls run inline and no domain is spawned
     (the self-test checks that min(2, nproc) workers give the same
     outputs). Idle worker domains still take part in every minor
     collection: on a 2-vCPU VM, one busy process beside the benchmark
     made kernel-bind 22-27% slower with two idle workers and left it
     unchanged without them. *)
  let pool = Pool.create ~jobs:1 () in
  let result =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Bench.run ~pool ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~quick:false)
  in
  print_endline (Json.to_string result)
