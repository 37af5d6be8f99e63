open Vblu_smallblas

type t = {
  name : string;
  dim : int;
  setup_seconds : float;
  apply : Vector.t -> Vector.t;
}

let identity n =
  { name = "none"; dim = n; setup_seconds = 0.0; apply = Vector.copy }

let apply t r =
  if Array.length r <> t.dim then
    invalid_arg "Preconditioner.apply: dimension mismatch";
  t.apply r

let timed f =
  let t0 = Wall_clock.now () in
  let x = f () in
  (x, Wall_clock.since t0)

let instrument ~obs ~span ~counter apply =
  if Vblu_obs.Ctx.enabled obs then fun r ->
    Vblu_obs.Ctx.with_span obs ~cat:"precond" span (fun () ->
        Vblu_obs.Ctx.incr obs counter 1.0;
        apply r)
  else apply
