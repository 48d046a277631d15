(* What one request of a workload returns once its timed part is over. *)
type outcome = {
  check : (unit, string) result;  (** the output checks of the workload *)
  digest : string;  (** digest of everything the request produced *)
  work : (string * int) list;  (** exact work counts read off the result *)
}

(* [run ()] is the timed part of the request. The closure it returns
   checks and fingerprints the output; Bench calls it after
   stopping the clock. *)
type t = { label : string; run : unit -> unit -> outcome }

let digest_of_string s = Digest.to_hex (Digest.string s)

let ok_if cond fmt = Printf.ksprintf (fun msg -> if cond then Ok () else Error msg) fmt

let ( &&& ) a b = match a with Ok () -> Lazy.force b | Error _ -> a

(* Round [r] of a workload: one request per slot, each drawn with its
   own generator derived from (seed, round, slot), in a seeded order.
   Every round has the same slots, so rounds differ in their inputs but
   not in their cost profile. [draw] is also told the round. *)
let round ~seed ~slots ~draw r =
  let module Rng = Rb_util.Rng in
  let requests =
    Array.mapi (fun i slot -> draw ~round:r (Rng.create (Hashtbl.hash (seed, r, i))) slot) slots
  in
  Rng.shuffle (Rng.create (Hashtbl.hash (seed, r))) requests;
  requests
