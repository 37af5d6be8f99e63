type t =
  | Manual of { mutable now : float }
  | System of { epoch : float }

let manual ?(start = 0.0) () = Manual { now = start }
let system () = System { epoch = Vblu_precond.Wall_clock.now () }

let now = function
  | Manual m -> m.now
  | System s -> Vblu_precond.Wall_clock.since s.epoch

let advance t dt =
  if (not (Float.is_finite dt)) || dt < 0.0 then
    invalid_arg "Clock.advance: negative or non-finite delta";
  match t with Manual m -> m.now <- m.now +. dt | System _ -> ()

let is_manual = function Manual _ -> true | System _ -> false
