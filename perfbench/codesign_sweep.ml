(* Workload "codesign-sweep": one request is what
   [Rb_core.Experiments.sweep] does for one locking configuration
   (benchmark x kind x |L| x |M|) of the Fig. 4/5 space, composed here
   from the layers' public functions so each call gets its own span. *)

module Dfg = Rb_dfg.Dfg
module Pool = Rb_util.Pool
module Rng = Rb_util.Rng
module Combi = Rb_util.Combi
module Binding = Rb_hls.Binding
module Allocation = Rb_hls.Allocation
module Experiments = Rb_core.Experiments
module Codesign = Rb_core.Codesign
module Cost = Rb_core.Cost
module Fast = Rb_core.Obf_binding.Fast

(* The settings of the bench harness's fig4 section. *)
let max_combos = 2000
let max_optimal_assignments = 200_000
let chunk_size = 256

type config = {
  ctx : Experiments.context;
  kind : Dfg.op_kind;
  locked_fus : int list;
  minterms_per_fu : int;
  table : Cost.cand_table;
  fast : Fast.t;
}

let label c =
  Printf.sprintf "%s/%s/L%d/M%d" c.ctx.Experiments.benchmark (Dfg.kind_label c.kind)
    (List.length c.locked_fus) c.minterms_per_fu

(* Every feasible configuration of one context, in Experiments.sweep
   order. The candidate table and Fast state are per (benchmark, kind),
   built once as the sweep builds them. *)
let configs ctx =
  List.concat_map
    (fun kind ->
      let candidates = Experiments.candidates_for ctx kind in
      let n_cands = Array.length candidates in
      let fus = Allocation.fu_ids ctx.Experiments.allocation kind in
      if n_cands = 0 || fus = [] then []
      else
        let table = Cost.cand_table ctx.Experiments.k candidates in
        let fast = Fast.prepare table ctx.schedule ctx.allocation ~kind in
        List.concat_map
          (fun l ->
            if l > List.length fus then []
            else
              List.filter_map
                (fun m ->
                  if m > n_cands then None
                  else
                    Some
                      {
                        ctx;
                        kind;
                        locked_fus = List.filteri (fun i _ -> i < l) fus;
                        minterms_per_fu = m;
                        table;
                        fast;
                      })
                [ 1; 2; 3 ])
          [ 1; 2; 3 ])
    [ Dfg.Add; Dfg.Mul ]

(* Locked-input occurrences per (FU, candidate) under a fixed binding. *)
let fixed_binding_weights table binding fus =
  let n_cands = Array.length (Cost.candidates table) in
  List.map
    (fun fu ->
      let row = Array.make n_cands 0 in
      List.iter
        (fun op ->
          for c = 0 to n_cands - 1 do
            row.(c) <- row.(c) + Cost.cand_count table ~cand:c ~op
          done)
        (Binding.ops_on_fu binding fu);
      row)
    fus

let fixed_error rows assignment =
  List.fold_left2
    (fun acc row subset -> Array.fold_left (fun acc c -> acc + row.(c)) acc subset)
    0 rows assignment

let random_subset rng n m =
  let indices = Array.init n Fun.id in
  Rng.shuffle rng indices;
  let subset = Array.sub indices 0 m in
  Array.sort Int.compare subset;
  subset

(* The candidate assignments scored for a configuration: all of them
   when there are at most [max_combos], else a sample drawn exactly as
   Experiments.sweep draws it for [seed]. *)
let assignments ~seed c =
  let n_cands = Array.length (Cost.candidates c.table) in
  let l = List.length c.locked_fus and m = c.minterms_per_fu in
  let total = Combi.product_size (List.init l (fun _ -> Combi.choose n_cands m)) in
  if total <= max_combos then begin
    let subsets = Array.of_list (Combi.k_subsets (Array.init n_cands Fun.id) m) in
    let base = Array.length subsets in
    Array.init total (fun t ->
        let rec go j t acc =
          if j < 0 then acc else go (j - 1) (t / base) (subsets.(t mod base) :: acc)
        in
        go (l - 1) t [])
  end
  else begin
    let config_seed =
      seed + (1000 * l) + m + Hashtbl.hash (c.ctx.benchmark, Dfg.kind_label c.kind)
    in
    Array.init max_combos (fun t ->
        let rng = Rng.create (Hashtbl.hash (config_seed, t)) in
        List.map (fun _ -> random_subset rng n_cands m) c.locked_fus)
  end

type scored = { e_area : int; e_power : int; e_obf : int }

type result = {
  combos : scored array;
  optimal : Codesign.solution;
  optimal_candidates : int;
  heuristic : Codesign.solution;
  lint : Rb_lint.Report.t;
}

(* Codesign.optimal under the cap; a refused space is re-run on the
   longest prefix of the candidate list that fits, as the sweep does. *)
let optimal c spec =
  let run spec =
    Codesign.optimal ~max_assignments:max_optimal_assignments c.ctx.k c.ctx.schedule
      c.ctx.allocation spec
  in
  let rec shrink n =
    let reduced = { spec with Codesign.candidates = Array.sub spec.Codesign.candidates 0 n } in
    if Codesign.search_space reduced > max_optimal_assignments then shrink (n - 1)
    else
      match run reduced with
      | `Solution s -> (s, n)
      | `Too_large _ -> failwith "Codesign.optimal refused a space within its cap"
  in
  match run spec with
  | `Solution s -> (s, Array.length spec.Codesign.candidates)
  | `Too_large _ -> shrink (Array.length spec.Codesign.candidates - 1)

let evaluate ~pool ~seed c =
  let area = fixed_binding_weights c.table c.ctx.area_binding c.locked_fus in
  let power = fixed_binding_weights c.table c.ctx.power_binding c.locked_fus in
  let all = assignments ~seed c in
  let n = Array.length all in
  let chunks = Array.init ((n + chunk_size - 1) / chunk_size) Fun.id in
  let score chunk =
    let lo = chunk * chunk_size in
    Array.init (min chunk_size (n - lo)) (fun i ->
        let a = all.(lo + i) in
        {
          e_area = fixed_error area a;
          e_power = fixed_error power a;
          e_obf = Fast.best_errors c.fast ~locks:(List.combine c.locked_fus a);
        })
  in
  let combos =
    Span.record "core.obf_fast" (fun () ->
        Array.concat (Array.to_list (Pool.map_array pool ~f:score chunks)))
  in
  let spec =
    {
      Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
      locked_fus = c.locked_fus;
      minterms_per_fu = c.minterms_per_fu;
      candidates = Experiments.candidates_for c.ctx c.kind;
    }
  in
  let optimal, optimal_candidates = Span.record "core.codesign_optimal" (fun () -> optimal c spec) in
  let heuristic =
    Span.record "core.codesign_heuristic" (fun () ->
        Codesign.heuristic c.ctx.k c.ctx.schedule c.ctx.allocation spec)
  in
  let lint =
    Span.record "lint.design" (fun () ->
        Rb_lint.Lint.design ~config:heuristic.config ~candidates:spec.candidates
          ~subject:(label c) c.ctx.schedule c.ctx.allocation
          ~fu_of_op:(Binding.fu_array heuristic.binding))
  in
  { combos; optimal; optimal_candidates; heuristic; lint }

let check c r =
  let open Request in
  let n_cands = Array.length (Cost.candidates c.table) in
  let best_scored = Array.fold_left (fun acc s -> max acc s.e_obf) 0 r.combos in
  (match Array.find_opt (fun s -> s.e_obf < s.e_area || s.e_obf < s.e_power) r.combos with
   | Some s ->
     Error
       (Printf.sprintf "Thm. 2 violated: obf %d < area %d or power %d" s.e_obf s.e_area
          s.e_power)
   | None -> Ok ())
  &&& lazy
        (ok_if
           (r.optimal_candidates < n_cands || r.optimal.errors >= r.heuristic.errors)
           "optimal %d < heuristic %d" r.optimal.errors r.heuristic.errors)
  &&& lazy
        (ok_if
           (r.optimal_candidates < n_cands || r.optimal.errors >= best_scored)
           "optimal %d < a scored combination %d" r.optimal.errors best_scored)
  &&& lazy
        (ok_if (Rb_lint.Report.is_clean r.lint) "lint: %d error(s)"
           (Rb_lint.Report.error_count r.lint))

let render c r =
  let b = Buffer.create 4096 in
  Buffer.add_string b (label c);
  Array.iter (fun s -> Printf.bprintf b " %d,%d,%d" s.e_area s.e_power s.e_obf) r.combos;
  let sol name (s : Codesign.solution) =
    Printf.bprintf b "\n%s %d %d %s %s" name s.errors s.assignments_searched
      (Format.asprintf "%a" Rb_locking.Config.pp s.config)
      (String.concat "," (Array.to_list (Array.map string_of_int (Binding.fu_array s.binding))))
  in
  sol "optimal" r.optimal;
  sol "heuristic" r.heuristic;
  Printf.bprintf b "\noptimal-candidates %d lint %d" r.optimal_candidates
    (Rb_lint.Report.error_count r.lint);
  Buffer.contents b

let request ~pool ~seed c =
  {
    Request.label = label c;
    run =
      (fun () ->
        let r = evaluate ~pool ~seed c in
        fun () ->
          {
            Request.check = check c r;
            digest = Request.digest_of_string (render c r);
            work =
              [
                ("core.obf_fast_evals", Array.length r.combos);
                ("core.codesign_optimal_tuples", r.optimal.assignments_searched);
                ("core.codesign_heuristic_tuples", r.heuristic.assignments_searched);
              ];
          });
  }

(* The draw is stratified so every round has the same cost profile: a
   slot is one (|L|, |M|) class on kernels of one size, and each round
   draws one configuration per slot. Size is the number of operations
   of the locked kind, which sets a configuration's cost to within ~10%
   inside a slot where the benchmark alone would spread it 4x. Only
   8-op kernels take |L| = 3, and kernels of 13+ ops are left out: one
   of their |L| = 3 configurations costs 2-5 s, as much as a whole
   round of the rest, and drawing them made the seed-to-seed spread of
   every latency exceed the bounds. *)
let size_class c =
  match List.length (Dfg.ops_of_kind (Rb_sched.Schedule.dfg c.ctx.schedule) c.kind) with
  | 8 -> Some `Small
  | ops when ops >= 9 && ops <= 12 -> Some `Medium
  | _ -> None

(* The (|L|, |M|, size) slots of a round, in ascending order of cost.
   |L| = 1 with |M| <= 2 is left out (requests of ~1 ms that exercise
   no search). Five cheaper and five dearer slots flank a block of five
   |L| = 2, |M| = 2 slots on the 8-op kernels, so the median request
   falls in the middle of one class of requests (~30 ms) rather than
   between two; the 90th percentile falls in the middle of the
   |L| = 3, |M| = 2 slot (~0.65 s). *)
let slot_classes =
  [
    (1, 3, `Small); (1, 3, `Medium); (2, 1, `Small); (2, 1, `Medium); (3, 1, `Small);
    (2, 2, `Small); (2, 2, `Small); (2, 2, `Small); (2, 2, `Small); (2, 2, `Small);
    (2, 2, `Medium); (2, 3, `Small); (2, 3, `Medium); (3, 2, `Small); (3, 3, `Small);
  ]

(* Each slot with the configurations of its class, the slot's
   occurrence among the slots of its class and their number. *)
let slots configs =
  let members (l, m, size) =
    Array.of_list
      (List.filter
         (fun c -> List.length c.locked_fus = l && c.minterms_per_fu = m && size_class c = Some size)
         configs)
  in
  let count cls l = List.length (List.filter (( = ) cls) l) in
  List.mapi
    (fun i cls ->
      (members cls, count cls (List.filteri (fun j _ -> j < i) slot_classes), count cls slot_classes))
    slot_classes
  |> List.filter (fun (members, _, _) -> members <> [||])
  |> Array.of_list

(* The seed orders each class's configurations once; the slots of a
   class then walk that order round after round, so every configuration
   of a class is drawn equally often, whatever the seed. *)
let setup ~pool ~seed =
  let contexts =
    List.map
      (fun b ->
        Experiments.context ~name:b.Rb_workload.Benchmark.name
          (Rb_workload.Benchmark.schedule b)
          (Rb_workload.Benchmark.trace ~seed b))
      (Rb_workload.Benchmark.all ())
  in
  let slots =
    Array.map
      (fun (members, occurrence, count) ->
        let order = Array.copy members in
        Rng.shuffle (Rng.create (Hashtbl.hash (seed, Array.map label members))) order;
        (order, occurrence, count))
      (slots (List.concat_map configs contexts))
  in
  Request.round ~seed ~slots ~draw:(fun ~round _rng (order, occurrence, count) ->
      request ~pool ~seed order.(((round * count) + occurrence) mod Array.length order))
