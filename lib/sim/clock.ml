(** Virtual clock of the simulated machine. *)

type t = { mutable now : Time.ns }

let create () = { now = 0 }
let now t = t.now

(* Rewind to the epoch for machine reuse: a reset clock is
   indistinguishable from a freshly created one. *)
let reset t = t.now <- 0

let advance_to t target =
  if target < t.now then
    invalid_arg
      (Printf.sprintf "Clock.advance_to: time goes backwards (%d < %d)" target
         t.now);
  t.now <- target

let advance_by t delta =
  if delta < 0 then invalid_arg "Clock.advance_by: negative delta";
  t.now <- t.now + delta
