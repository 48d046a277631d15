module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type t = {
  dfg : Dfg.t;
  (* op id -> minterm counts. The buckets hold [int ref]s so that the
     build loop bumps a count with one hash probe ([find_opt] + [incr])
     instead of the find/replace double probe an immutable [int]
     payload forces. *)
  per_op : (Minterm.t, int ref) Hashtbl.t array;
}

module Metrics = Rb_util.Metrics

let m_builds = Metrics.counter ~scope:"sim" "kmatrix_builds"
let m_samples = Metrics.counter ~scope:"sim" "kmatrix_samples"
let t_build = Metrics.timer ~scope:"sim" "kmatrix_build"

let build trace =
  Metrics.incr m_builds;
  Metrics.add m_samples (Trace.length trace);
  Metrics.time t_build @@ fun () ->
  let dfg = Trace.dfg trace in
  let n = Dfg.op_count dfg in
  let per_op = Array.init n (fun _ -> Hashtbl.create 32) in
  (* One compiled evaluator for the whole sweep: operand buffers are
     reused across samples, so the loop's only allocations are the
     count refs of first-seen minterms. *)
  let fast = Exec.Fast.make trace in
  let a = Exec.Fast.a fast and b = Exec.Fast.b fast in
  for s = 0 to Trace.length trace - 1 do
    Exec.Fast.eval_clean fast ~sample:s;
    for id = 0 to n - 1 do
      let m = Minterm.pack a.(id) b.(id) in
      let table = per_op.(id) in
      match Hashtbl.find_opt table m with
      | Some r -> incr r
      | None -> Hashtbl.add table m (ref 1)
    done
  done;
  { dfg; per_op }

let of_counts dfg entries =
  let n = Dfg.op_count dfg in
  let per_op = Array.init n (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (op, counts) ->
      if op < 0 || op >= n then invalid_arg "Kmatrix.of_counts: op id";
      List.iter
        (fun (m, c) ->
          if c < 0 then invalid_arg "Kmatrix.of_counts: negative count";
          match Hashtbl.find_opt per_op.(op) m with
          | Some r -> r := !r + c
          | None -> Hashtbl.add per_op.(op) m (ref c))
        counts)
    entries;
  { dfg; per_op }

let dfg t = t.dfg

let count t m n =
  match Hashtbl.find_opt t.per_op.(n) m with Some r -> !r | None -> 0

let count_set t set n =
  Minterm.Set.fold (fun m acc -> acc + count t m n) set 0

let op_histogram t n =
  Hashtbl.fold (fun m c acc -> (m, !c) :: acc) t.per_op.(n) []
  |> List.sort (fun (m1, c1) (m2, c2) ->
         match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c)

let total_occurrences t m =
  Array.fold_left
    (fun acc table ->
      acc + (match Hashtbl.find_opt table m with Some r -> !r | None -> 0))
    0 t.per_op

(* Totals per minterm over the selected ops, summed into a dense array
   over the minterm space: one array add per (op, minterm) entry
   instead of a hash probe and replace. [-1] marks a minterm no
   selected op lists, since a K matrix from [of_counts] may list one
   with count 0. The closing scan collects the totals in minterm order
   and sets every slot back to [-1]; only then does the array go back
   into [spare] for the next call. A call that finds [spare] empty,
   because another thread or domain holds it, allocates its own, so
   concurrent callers never share an array. The array lives off the
   OCaml heap: a heap array of the same size, even one kept for the
   whole run, raised the co-design sweep's peak RSS from ~36 to
   ~41-43 MB, against ~37 MB for this one. *)
let spare : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t option Atomic.t =
  Atomic.make None

let aggregate ?kind t =
  let include_op id =
    match kind with None -> true | Some k -> (Dfg.op t.dfg id).kind = k
  in
  let totals =
    match Atomic.exchange spare None with
    | Some a -> a
    | None ->
        let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout Minterm.space_size in
        Bigarray.Array1.fill a (-1);
        a
  in
  Array.iteri
    (fun id table ->
      if include_op id then
        Hashtbl.iter
          (fun m c ->
            let i = (m : Minterm.t :> int) in
            let cur = totals.{i} in
            totals.{i} <- (if cur < 0 then !c else cur + !c))
          table)
    t.per_op;
  let found = ref [] in
  for i = Minterm.space_size - 1 downto 0 do
    let c = totals.{i} in
    if c >= 0 then begin
      found := (Minterm.of_int i, c) :: !found;
      totals.{i} <- -1
    end
  done;
  Atomic.set spare (Some totals);
  !found

let all_minterms ?kind t =
  List.sort
    (fun (m1, c1) (m2, c2) ->
      match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c)
    (aggregate ?kind t)

let top_minterms ?kind t ~n =
  all_minterms ?kind t |> List.filteri (fun i _ -> i < n) |> List.map fst

let distinct_minterms t = List.length (aggregate t)

let head_mass ?kind t ~n =
  let all = all_minterms ?kind t in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 all in
  if total = 0 then 0.0
  else begin
    let head =
      all |> List.filteri (fun i _ -> i < n)
      |> List.fold_left (fun acc (_, c) -> acc + c) 0
    in
    float_of_int head /. float_of_int total
  end

let op_concentration t m =
  let total = total_occurrences t m in
  if total = 0 then 0.0
  else begin
    let best = ref 0 in
    Array.iter
      (fun table ->
        let c = match Hashtbl.find_opt table m with Some r -> !r | None -> 0 in
        if c > !best then best := c)
      t.per_op;
    float_of_int !best /. float_of_int total
  end
