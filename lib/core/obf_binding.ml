module Schedule = Rb_sched.Schedule
module Allocation = Rb_hls.Allocation
module Bind_engine = Rb_hls.Bind_engine

let bind k config schedule allocation =
  let weight ~kind:_ ~cycle:_ ~op ~fu =
    float_of_int (Cost.edge_weight k config ~fu ~op)
  in
  Bind_engine.bind ~objective:`Maximize ~weight schedule allocation

module Fast = struct
  type t = {
    table : Cost.cand_table;
    fus : int array;
    cycles : int array array;  (** non-empty cycles only *)
  }

  let prepare table schedule allocation ~kind =
    let fus = Array.of_list (Allocation.fu_ids allocation kind) in
    let cycles =
      Array.init (Schedule.n_cycles schedule) (fun c ->
          Array.of_list (Schedule.ops_in_cycle schedule kind c))
    in
    Array.iter
      (fun ops ->
        if Array.length ops > Array.length fus then
          invalid_arg "Obf_binding.Fast.prepare: allocation too small")
      cycles;
    let cycles = List.filter (fun ops -> ops <> [||]) (Array.to_list cycles) in
    { table; fus; cycles = Array.of_list cycles }

  (* Reduced evaluation (DESIGN.md §15). Weights are >= 0 and every
     cycle has at most as many ops as FUs, so unlocked FUs absorb the
     leftover ops at zero: a cycle's optimum is the max-weight matching
     of its ops against the locked columns alone. With [d] locked
     columns, each column's [d] heaviest ops suffice, so a table of
     per-(cycle, subset) top-[d] lists scores any assignment. *)
  type tops = {
    depth : int;
    n_subsets : int;
    lens : int array;  (** per cycle: min depth (ops in the cycle) *)
    ops : int array;
        (** list of (cycle c, subset s) at [(c * n_subsets + s) * depth]:
            positions of ops within the cycle, heaviest first *)
    ws : int array;  (** weights of [ops] *)
    (* Scratch of the collision solve, so scoring allocates nothing:
       one evaluation at a time. *)
    column : int array;  (** position in the cycle -> matrix column, or -1 *)
    cost : int array;  (** row-major collision matrix *)
    u : int array;
    v : int array;
    mate : int array;
    way : int array;
    minv : int array;
    used : bool array;
  }

  let tops t ~depth subsets =
    let n_subsets = Array.length subsets in
    let n_cycles = Array.length t.cycles in
    let lens = Array.map (fun ops -> min depth (Array.length ops)) t.cycles in
    let ops = Array.make (n_cycles * n_subsets * depth) (-1) in
    let ws = Array.make (n_cycles * n_subsets * depth) 0 in
    Array.iteri
      (fun c cycle ->
        let len = lens.(c) in
        if len > 0 then
          Array.iteri
            (fun s subset ->
              let base = ((c * n_subsets) + s) * depth in
              let filled = ref 0 in
              (* Insertion into the sorted list; a strict [>] keeps the
                 earlier op on ties. *)
              Array.iteri
                (fun pos op ->
                  let w = Cost.subset_weight t.table ~subset ~op in
                  if !filled < len || w > ws.(base + len - 1) then begin
                    let k = ref (if !filled < len then !filled else len - 1) in
                    if !filled < len then incr filled;
                    while !k > 0 && ws.(base + !k - 1) < w do
                      ws.(base + !k) <- ws.(base + !k - 1);
                      ops.(base + !k) <- ops.(base + !k - 1);
                      decr k
                    done;
                    ws.(base + !k) <- w;
                    ops.(base + !k) <- pos
                  end)
                cycle)
            subsets)
      t.cycles;
    let max_ops = Array.fold_left (fun acc ops -> max acc (Array.length ops)) 0 t.cycles in
    let width = min max_ops (depth * depth) + depth + 1 in
    {
      depth;
      n_subsets;
      lens;
      ops;
      ws;
      column = Array.make max_ops (-1);
      cost = Array.make (depth * width) 0;
      u = Array.make (depth + 1) 0;
      v = Array.make width 0;
      mate = Array.make width 0;
      way = Array.make width 0;
      minv = Array.make width 0;
      used = Array.make width false;
    }

  (* Min-cost assignment of rows 1..n to columns 1..m (n <= m) of the
     row-major [tops.cost] ((i, j) at [(i - 1) * m + j - 1]): the
     potentials method of {!Rb_matching.Hungarian}, on ints and the
     scratch arrays. Returns the optimal total. *)
  let min_cost tops n m =
    let cost = tops.cost and u = tops.u and v = tops.v and mate = tops.mate in
    let way = tops.way and minv = tops.minv and used = tops.used in
    Array.fill u 0 (n + 1) 0;
    Array.fill v 0 (m + 1) 0;
    Array.fill mate 0 (m + 1) 0;
    for i = 1 to n do
      mate.(0) <- i;
      Array.fill minv 0 (m + 1) max_int;
      Array.fill used 0 (m + 1) false;
      let j0 = ref 0 in
      while mate.(!j0) <> 0 do
        used.(!j0) <- true;
        let i0 = mate.(!j0) in
        let delta = ref max_int and j1 = ref 0 in
        for j = 1 to m do
          if not used.(j) then begin
            let cur = cost.(((i0 - 1) * m) + j - 1) - u.(i0) - v.(j) in
            if cur < minv.(j) then begin
              minv.(j) <- cur;
              way.(j) <- !j0
            end;
            if minv.(j) < !delta then begin
              delta := minv.(j);
              j1 := j
            end
          end
        done;
        for j = 0 to m do
          if used.(j) then begin
            u.(mate.(j)) <- u.(mate.(j)) + !delta;
            v.(j) <- v.(j) - !delta
          end
          else minv.(j) <- minv.(j) - !delta
        done;
        j0 := !j1
      done;
      while !j0 <> 0 do
        let j1 = way.(!j0) in
        mate.(!j0) <- mate.(j1);
        j0 := j1
      done
    done;
    let total = ref 0 in
    for j = 1 to m do
      if mate.(j) > 0 then total := !total + cost.(((mate.(j) - 1) * m) + j - 1)
    done;
    !total

  (* One cycle's optimum for columns locking [tuple.(j)]. If the
     columns' heaviest ops are pairwise distinct, each column takes its
     heaviest op; otherwise solve the |tuple| x (listed ops + |tuple|
     zero pads) matching. Unlisted (op, column) pairs weigh 0 there:
     some optimum never uses them, so the total is unchanged. *)
  let cycle_errors tops c tuple =
    let cols = Array.length tuple in
    let len = tops.lens.(c) in
    let row j = ((c * tops.n_subsets) + tuple.(j)) * tops.depth in
    let distinct = ref true in
    let total = ref 0 in
    for j = 0 to cols - 1 do
      let top = tops.ops.(row j) in
      for i = 0 to j - 1 do
        if tops.ops.(row i) = top then distinct := false
      done;
      total := !total + tops.ws.(row j)
    done;
    if !distinct then !total
    else begin
      let column = tops.column in
      let listed = ref 0 in
      for j = 0 to cols - 1 do
        for k = 0 to len - 1 do
          let pos = tops.ops.(row j + k) in
          if column.(pos) < 0 then begin
            column.(pos) <- !listed;
            incr listed
          end
        done
      done;
      let m = !listed + cols in
      Array.fill tops.cost 0 (cols * m) 0;
      for j = 0 to cols - 1 do
        for k = 0 to len - 1 do
          let at = row j + k in
          tops.cost.((j * m) + column.(tops.ops.(at))) <- -tops.ws.(at)
        done
      done;
      for j = 0 to cols - 1 do
        for k = 0 to len - 1 do
          column.(tops.ops.(row j + k)) <- -1
        done
      done;
      -min_cost tops cols m
    end

  let tuple_errors tops tuple =
    if Array.length tuple > tops.depth then
      invalid_arg "Obf_binding.Fast.tuple_errors: more columns than list depth";
    let total = ref 0 in
    for c = 0 to Array.length tops.lens - 1 do
      total := !total + cycle_errors tops c tuple
    done;
    !total

  let best_errors t ~locks =
    (* A repeated FU keeps its last subset. *)
    let subsets =
      List.fold_left
        (fun acc (fu, subset) ->
          if not (Array.exists (( = ) fu) t.fus) then
            invalid_arg "Obf_binding.Fast: locked FU of the wrong kind";
          (fu, subset) :: List.remove_assoc fu acc)
        [] locks
      |> List.map snd |> Array.of_list
    in
    let cols = Array.length subsets in
    tuple_errors (tops t ~depth:cols subsets) (Array.init cols Fun.id)
end
