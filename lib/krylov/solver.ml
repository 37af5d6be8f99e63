open Vblu_smallblas
open Vblu_precond

type config = {
  max_iters : int;
  rtol : float;
  record_history : bool;
}

let default_config = { max_iters = 10_000; rtol = 1e-6; record_history = false }

type outcome = Converged | Max_iterations | Breakdown of string

type stats = {
  outcome : outcome;
  iterations : int;
  residual_norm : float;
  rhs_norm : float;
  solve_seconds : float;
  history : float array;
}

let converged s = s.outcome = Converged

let pp_stats ppf s =
  let outcome =
    match s.outcome with
    | Converged -> "converged"
    | Max_iterations -> "max-iterations"
    | Breakdown why -> "breakdown: " ^ why
  in
  Format.fprintf ppf "%s in %d its, ‖r‖=%.3e (‖b‖=%.3e), %.3fs" outcome
    s.iterations s.residual_norm s.rhs_norm s.solve_seconds

type ctx = {
  prec : Precision.t;
  spmv : Vector.t -> Vector.t -> unit;
  mutable precond : Preconditioner.t;
  b_norm : float;
  target : float;
  cfg : config;
  mutable recorded : float list;
  obs : Vblu_obs.Ctx.t option;
  name : string;
}

let make_ctx ?(prec = Precision.Double) ?precond ?obs ?(name = "krylov")
    (a : Vblu_sparse.Csr.t) b cfg =
  let n, cols = Vblu_sparse.Csr.dims a in
  if n <> cols then invalid_arg "Krylov: matrix not square";
  if Array.length b <> n then invalid_arg "Krylov: rhs dimension mismatch";
  let precond =
    match precond with Some p -> p | None -> Preconditioner.identity n
  in
  if precond.Preconditioner.dim <> n then
    invalid_arg "Krylov: preconditioner dimension mismatch";
  let b_norm = Vector.nrm2 ~prec b in
  {
    prec;
    spmv = (fun x y -> Vblu_sparse.Csr.spmv_into ~prec a x y);
    precond;
    b_norm;
    target = cfg.rtol *. b_norm;
    cfg;
    recorded = [];
    obs;
    name;
  }

let record ctx r =
  if ctx.cfg.record_history then ctx.recorded <- r :: ctx.recorded;
  if Vblu_obs.Ctx.enabled ctx.obs then begin
    (* One deterministic 1 µs tick per recorded iteration: the solver runs
       host-side (no modelled kernel time), and wall-clock must never
       enter a trace, so this nominal tick is what spreads the iteration
       samples along the simulated timeline. *)
    Vblu_obs.Ctx.sample ctx.obs (ctx.name ^ ".residual") (fun () ->
        [ ("rnorm", r) ]);
    Vblu_obs.Ctx.incr ctx.obs "krylov.records" 1.0;
    Vblu_obs.Ctx.advance ctx.obs 1.0
  end

exception Guard_restart

(* NaN/Inf + stagnation guard.  Built only when the caller supplies a
   preconditioner refresh function, so default solves stay bit-identical
   (no guard state, no extra float compares feeding back into the
   recurrences — the checks below read [rnorm] without modifying it). *)
type guard = {
  g_refresh : unit -> Preconditioner.t;
  g_window : int;
  mutable g_best : float;
  mutable g_since : int;
  mutable g_used : bool;
}

let guard ?(window = 200) refresh =
  {
    g_refresh = refresh;
    g_window = window;
    g_best = infinity;
    g_since = 0;
    g_used = false;
  }

let guard_check ctx g rnorm =
  let trip =
    if not (Float.is_finite rnorm) then Some "non-finite residual"
    else begin
      if rnorm < 0.999 *. g.g_best then begin
        g.g_best <- rnorm;
        g.g_since <- 0
      end
      else g.g_since <- g.g_since + 1;
      if g.g_since > g.g_window then Some "stagnation" else None
    end
  in
  match trip with
  | None -> `Ok
  | Some why ->
    if g.g_used then begin
      Vblu_obs.Ctx.instant ctx.obs ~cat:"krylov" "guard.break"
        ~args:[ ("why", Vblu_obs.Trace.Str why) ];
      Vblu_obs.Ctx.incr ctx.obs "krylov.guard.breaks" 1.0;
      `Break (Printf.sprintf "guard: %s" why)
    end
    else begin
      (* One refresh per solve: rebuild the preconditioner (flushing any
         corrupted factors) and let the solver restart its recurrences
         from the current iterate. *)
      g.g_used <- true;
      g.g_best <- infinity;
      g.g_since <- 0;
      Vblu_obs.Ctx.instant ctx.obs ~cat:"krylov" "guard.restart"
        ~args:[ ("why", Vblu_obs.Trace.Str why) ];
      Vblu_obs.Ctx.incr ctx.obs "krylov.guard.restarts" 1.0;
      ctx.precond <- g.g_refresh ();
      `Restart why
    end

let finish ctx ~outcome ~iterations ~x ~b ~started ~a =
  let prec = ctx.prec in
  let r = Vector.sub ~prec b (Vblu_sparse.Csr.spmv ~prec a x) in
  let residual_norm = Vector.nrm2 ~prec r in
  (if Vblu_obs.Ctx.enabled ctx.obs then begin
     let slug =
       match outcome with
       | Converged -> "converged"
       | Max_iterations -> "max_iterations"
       | Breakdown _ -> "breakdown"
     in
     (* [solve_seconds] is wall-clock and deliberately left out of both
        the trace and the registry. *)
     Vblu_obs.Ctx.instant ctx.obs ~cat:"krylov" (ctx.name ^ ".done")
       ~args:
         [
           ("outcome", Vblu_obs.Trace.Str slug);
           ("iterations", Vblu_obs.Trace.Int iterations);
           ("residual_norm", Vblu_obs.Trace.Float residual_norm);
         ];
     Vblu_obs.Ctx.incr_l ctx.obs "krylov.outcome" [ ("outcome", slug) ] 1.0;
     Vblu_obs.Ctx.incr ctx.obs "krylov.solves" 1.0;
     Vblu_obs.Ctx.observe ctx.obs "krylov.iterations" (float_of_int iterations)
   end);
  {
    outcome;
    iterations;
    residual_norm;
    rhs_norm = ctx.b_norm;
    solve_seconds = Wall_clock.since started;
    history = Array.of_list (List.rev ctx.recorded);
  }
