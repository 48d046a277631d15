module Minterm = Rb_dfg.Minterm
module Trace = Rb_sim.Trace
module Exec = Rb_sim.Exec

(* Operands are clamped to [Word.width] bits, so an op's (lhs, rhs)
   pair in one sample packs losslessly into one minterm. The table is
   op-major: the Hamming score of two ops walks two contiguous rows. *)
type t = {
  n_samples : int;
  words : Minterm.t array array; (* op -> sample -> (lhs, rhs) *)
}

let build trace =
  let n_samples = Trace.length trace in
  (* One compiled plan for the whole trace, as in [Kmatrix.build]: the
     sample loop reads the plan's operand buffers and allocates
     nothing. *)
  let fast = Exec.Fast.make trace in
  let n_ops = Exec.Fast.n_ops fast in
  let a = Exec.Fast.a fast and b = Exec.Fast.b fast in
  let words = Array.init n_ops (fun _ -> Array.make n_samples (Minterm.pack 0 0)) in
  for s = 0 to n_samples - 1 do
    Exec.Fast.eval_clean fast ~sample:s;
    for id = 0 to n_ops - 1 do
      Array.unsafe_set (Array.unsafe_get words id) s
        (Minterm.pack (Array.unsafe_get a id) (Array.unsafe_get b id))
    done
  done;
  { n_samples; words }

let n_samples t = t.n_samples

let operands t op ~sample = Minterm.unpack t.words.(op).(sample)

(* SWAR popcount of a packed pair (at most 16 bits): bit pairs, then
   nibbles, then bytes, each step summing adjacent fields in place. *)
let () = assert (Minterm.space_size <= 1 lsl 16)

let[@inline] popcount16 x =
  let x = x - ((x lsr 1) land 0x5555) in
  let x = (x land 0x3333) + ((x lsr 2) land 0x3333) in
  let x = (x + (x lsr 4)) land 0x0f0f in
  (x + (x lsr 8)) land 0x1f

(* A minterm is the lhs bits above the rhs bits, so the xor of two
   packed pairs is the two ports' differences side by side and one
   popcount scores both ports. The integer total is what
   the per-port loop summed, hence the same float after the division. *)
let expected_input_hamming t op1 op2 =
  let w1 = t.words.(op1) and w2 = t.words.(op2) in
  let total = ref 0 in
  for s = 0 to t.n_samples - 1 do
    total :=
      !total
      + popcount16 ((Array.unsafe_get w1 s :> int) lxor (Array.unsafe_get w2 s :> int))
  done;
  float_of_int !total /. float_of_int t.n_samples
