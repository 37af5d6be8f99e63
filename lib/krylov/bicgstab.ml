open Vblu_smallblas
open Vblu_precond

let solve ?(prec = Precision.Double) ?precond
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"bicgstab" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Wall_clock.now () in
  let n = Array.length b in
  let x = Vector.create n in
  let r = Vector.copy b in
  let rstar = Vector.copy r in
  let p = Vector.create n in
  let v = Vector.create n in
  (* Per-solve workspaces: the iteration allocates nothing of size n. *)
  let s = Vector.create n and t = Vector.create n in
  let single = prec = Precision.Single in
  let rho = ref 1.0 and alpha = ref 1.0 and om = ref 1.0 in
  let iters = ref 0 in
  let outcome = ref None in
  let apply_m y = Preconditioner.apply ctx.Solver.precond y in
  Solver.record ctx (Vector.nrm2 ~prec r);
  if Vector.nrm2 ~prec r <= ctx.Solver.target then outcome := Some Solver.Converged;
  let check_guard rnorm =
    match sguard with
    | None -> ()
    | Some gd -> (
      match Solver.guard_check ctx gd rnorm with
      | `Ok -> ()
      | `Break why -> outcome := Some (Solver.Breakdown why)
      | `Restart _ -> raise Solver.Guard_restart)
  in
  (* Re-arm after a guard-triggered preconditioner refresh: keep the
     iterate (zeroing it if the corruption reached it), recompute the true
     residual, and restart the BiCG recurrences from scratch — fresh
     shadow residual, zero direction vectors, unit scalars. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    ctx.Solver.spmv x t;
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) t r;
    Vector.blit ~src:r ~dst:rstar;
    Vector.fill p 0.0;
    Vector.fill v 0.0;
    rho := 1.0;
    alpha := 1.0;
    om := 1.0;
    let rnorm = Vector.nrm2 ~prec r in
    Solver.record ctx rnorm;
    if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
    else if !iters >= config.Solver.max_iters then
      outcome := Some Solver.Max_iterations
  in
  let again = ref true in
  while !again do
    again := false;
    try
      while !outcome = None do
    let rho1 = Vector.dot ~prec rstar r in
    if rho1 = 0.0 then outcome := Some (Solver.Breakdown "rho = 0")
    else begin
      (* [Precision.mul] and the two [Precision.fma]s of
         p = r + beta (p - om v), spelled out inline as in the [Vector]
         kernels.  Computed here, [beta] stays unboxed, so ocamlopt keeps
         it the left operand of [beta *. q] and its NaN wins over [q]'s,
         as in [Precision.fma] (DESIGN §5i). *)
      let beta =
        let q = (rho1 /. !rho) *. (!alpha /. !om) in
        if single then Int32.float_of_bits (Int32.bits_of_float q) else q
      in
      let om' = -. !om in
      for i = 0 to n - 1 do
        let q = (om' *. v.(i)) +. p.(i) in
        let q = if single then Int32.float_of_bits (Int32.bits_of_float q) else q in
        let q = (beta *. q) +. r.(i) in
        p.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float q) else q)
      done;
      let phat = apply_m p in
      ctx.Solver.spmv phat v;
      incr iters;
      let denom = Vector.dot ~prec rstar v in
      if denom = 0.0 then outcome := Some (Solver.Breakdown "r*ᵀv = 0")
      else begin
        alpha := Precision.div prec rho1 denom;
        Vector.blit ~src:r ~dst:s;
        Vector.axpy ~prec (-. !alpha) v s;
        let snorm = Vector.nrm2 ~prec s in
        (* Each half-step counts as an iteration, so the cap is checked
           here as well as after the second one. *)
        if snorm <= ctx.Solver.target || !iters >= config.Solver.max_iters then begin
          Vector.axpy ~prec !alpha phat x;
          Solver.record ctx snorm;
          outcome :=
            Some
              (if snorm <= ctx.Solver.target then Solver.Converged
               else Solver.Max_iterations)
        end
        else begin
          let shat = apply_m s in
          ctx.Solver.spmv shat t;
          incr iters;
          let tt = Vector.dot ~prec t t in
          if tt = 0.0 then outcome := Some (Solver.Breakdown "t = 0")
          else begin
            om := Precision.div prec (Vector.dot ~prec t s) tt;
            Vector.axpy ~prec !alpha phat x;
            Vector.axpy ~prec !om shat x;
            Array.blit s 0 r 0 n;
            Vector.axpy ~prec (-. !om) t r;
            rho := rho1;
            let rnorm = Vector.nrm2 ~prec r in
            Solver.record ctx rnorm;
            if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
            else if !iters >= config.Solver.max_iters then
              outcome := Some Solver.Max_iterations
            else if !om = 0.0 then
              outcome := Some (Solver.Breakdown "omega = 0")
            else check_guard rnorm
          end
        end
      end
    end
      done
    with Solver.Guard_restart ->
      rearm ();
      again := true
  done;
  let outcome = match !outcome with Some o -> o | None -> Solver.Max_iterations in
  (x, Solver.finish ctx ~outcome ~iterations:!iters ~x ~b ~started ~a)
