(* Workload "sat-attack": one request locks an adder or multiplier and
   runs the oracle-guided SAT attack on it to a verdict. *)

module Rng = Rb_util.Rng
module Limits = Rb_util.Limits
module Netlist = Rb_netlist.Netlist
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module Attack = Rb_sat.Attack

type scheme = Rll | Pf of int | Permnet | Anti_sat

type job = {
  unit_kind : Rb_dfg.Dfg.op_kind;
  width : int;
  scheme : scheme;
  lock_seed : int;  (** the key gates, protected minterms or network draw *)
}

let scheme_label = function
  | Rll -> "rll"
  | Pf h -> Printf.sprintf "pf%d" h
  | Permnet -> "permnet"
  | Anti_sat -> "antisat"

let label j =
  Printf.sprintf "%s%d/%s" (Rb_dfg.Dfg.kind_label j.unit_kind) j.width (scheme_label j.scheme)

(* Every attack must end in a verdict well inside this; a stop counts as
   an undecided request. *)
let conflict_budget = 2_000_000

let lock j base =
  let rng = Rng.create j.lock_seed in
  match j.scheme with
  | Rll -> Lock.xor_random ~rng ~key_bits:(2 * j.width) base
  | Pf h ->
    let space = 1 lsl Netlist.n_inputs base in
    Lock.point_function ~minterms:(List.init h (fun _ -> Rng.int rng space)) base
  | Permnet -> Lock.permutation_network ~rng ~layers:4 base
  | Anti_sat -> Lock.anti_sat ~rng base

let request ~pool j base =
  {
    Request.label = label j;
    run =
      (fun () ->
        let locked = Span.record "netlist.lock" (fun () -> lock j base) in
        let outcome =
          Span.record "sat.attack" (fun () ->
              Attack.attack_locked ~pool ~portfolio:1
                ~limit:(Limits.conflicts conflict_budget) locked)
        in
        fun () ->
          let check, key, iterations =
            match outcome with
            | Attack.Broken { key; iterations } ->
              ( Request.ok_if (Attack.key_is_correct locked key) "recovered key is wrong",
                key,
                iterations )
            | Budget_exceeded { iterations } -> (Error "iteration budget exceeded", [||], iterations)
            | Solver_limit { iterations; _ } -> (Error "undecided: solver budget", [||], iterations)
          in
          let bits = String.init (Array.length key) (fun i -> if key.(i) then '1' else '0') in
          {
            Request.check;
            digest =
              Request.digest_of_string
                (Printf.sprintf "%s %s %d %s" (label j) locked.description iterations bits);
            work = [ ("attack.dips", iterations); ("netlist.gates", Netlist.n_gates locked.circuit) ];
          });
  }

(* One slot per (unit, width, scheme), in ascending order of cost; each
   round draws fresh key gates, protected minterms and networks. The
   attack cost of a point function or permutation network depends on
   the draw (its coefficient of variation is 0.5-1.2), so only the
   cheap ones are drawn: permutation networks at width 4 on the
   multiplier, point functions up to width 5. Anti-SAT, whose cost
   barely depends on the draw (always 2^n DIPs), holds the median and
   the tail: nine cheaper and four dearer slots flank seven anti-SAT
   slots at width 4, so the median falls in the middle of that block,
   and five anti-SAT slots at width 5 (a fifth of the slots, most of a
   round's time) hold the 90th percentile in their middle. *)
let slots =
  let open Rb_dfg.Dfg in
  [
    (Add, 4, Rll); (Add, 6, Rll); (Mul, 4, Rll);
    (Add, 4, Pf 1); (Mul, 4, Pf 1); (Add, 5, Pf 1); (Add, 4, Pf 2); (Mul, 4, Pf 2);
    (Mul, 4, Permnet);
    (Add, 4, Anti_sat); (Add, 4, Anti_sat); (Add, 4, Anti_sat); (Add, 4, Anti_sat);
    (Mul, 4, Anti_sat); (Mul, 4, Anti_sat); (Mul, 4, Anti_sat);
    (Mul, 6, Rll); (Mul, 5, Pf 1); (Add, 5, Pf 2); (Mul, 5, Pf 2);
    (Add, 5, Anti_sat); (Add, 5, Anti_sat); (Add, 5, Anti_sat);
    (Mul, 5, Anti_sat); (Mul, 5, Anti_sat);
  ]
  |> Array.of_list

let setup ~pool ~seed =
  let circuits =
    Array.map (fun (unit_kind, width, _) -> Circuits.of_kind unit_kind ~width) slots
  in
  let slots = Array.mapi (fun i slot -> (slot, circuits.(i))) slots in
  Request.round ~seed ~slots ~draw:(fun ~round:_ rng ((unit_kind, width, scheme), base) ->
      request ~pool { unit_kind; width; scheme; lock_seed = Rng.int rng 1_000_000 } base)
