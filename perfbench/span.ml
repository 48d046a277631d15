(* Layer spans recorded by the benchmark around each call it makes into a
   library layer. Spans nest (the request span covers the layer spans
   inside it), and each name accumulates both its inclusive time and its
   self time: the span's duration minus the part its child spans cover.
   Self times of every span therefore add up to the wall of the outermost
   spans exactly, which is what the traced run reports.

   Recording is off by default; when off, [record] only runs the thunk.
   Spans are only ever opened on the main domain: pool fan-out is
   wrapped as one span in the submitting domain. *)

module Metrics = Rb_util.Metrics

let on = ref false

type totals = { mutable inclusive : float; mutable self : float; mutable count : int }

let table : (string, totals) Hashtbl.t = Hashtbl.create 32

(* Child time covered so far, one cell per open span, innermost first. *)
let open_spans : float ref list ref = ref []

let reset () =
  Hashtbl.reset table;
  open_spans := []

let totals name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
    let t = { inclusive = 0.; self = 0.; count = 0 } in
    Hashtbl.replace table name t;
    t

let record name f =
  if not !on then f ()
  else begin
    let covered = ref 0. in
    open_spans := covered :: !open_spans;
    let t0 = Metrics.now_s () in
    Fun.protect f ~finally:(fun () ->
        let d = Metrics.now_s () -. t0 in
        open_spans := List.tl !open_spans;
        (match !open_spans with parent :: _ -> parent := !parent +. d | [] -> ());
        let t = totals name in
        t.inclusive <- t.inclusive +. d;
        t.self <- t.self +. (d -. !covered);
        t.count <- t.count + 1)
  end

let inclusive name = match Hashtbl.find_opt table name with Some t -> t.inclusive | None -> 0.
let self name = match Hashtbl.find_opt table name with Some t -> t.self | None -> 0.

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort compare
