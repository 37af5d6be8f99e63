open Vblu_smallblas
open Vblu_precond

let solve ?(prec = Precision.Double) ?precond
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"cg" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Wall_clock.now () in
  let n = Array.length b in
  let x = Vector.create n in
  let r = Vector.copy b in
  let z = Preconditioner.apply ctx.Solver.precond r in
  let p = Vector.copy z in
  let rz = ref (Vector.dot ~prec r z) in
  (* Per-solve workspace for A·p: the iteration allocates nothing of size
     n outside the preconditioner. *)
  let ap = Vector.create n in
  let single = prec = Precision.Single in
  let iters = ref 0 in
  let outcome = ref None in
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
     iterate (zeroing it if the corruption reached it), recompute the
     true residual and restart the direction recurrence. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    ctx.Solver.spmv x ap;
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) ap r;
    let z = Preconditioner.apply ctx.Solver.precond r in
    Vector.blit ~src:z ~dst:p;
    rz := Vector.dot ~prec r z;
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
        ctx.Solver.spmv p ap;
        incr iters;
        let pap = Vector.dot ~prec p ap in
        if pap = 0.0 then outcome := Some (Solver.Breakdown "pᵀAp = 0")
        else begin
          let alpha = Precision.div prec !rz pap in
          Vector.axpy ~prec alpha p x;
          Vector.axpy ~prec (-.alpha) ap r;
          let rnorm = Vector.nrm2 ~prec r in
          Solver.record ctx rnorm;
          if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
          else if !iters >= config.Solver.max_iters then
            outcome := Some Solver.Max_iterations
          else begin
            check_guard rnorm;
            if !outcome = None then begin
              let z = Preconditioner.apply ctx.Solver.precond r in
              let rz' = Vector.dot ~prec r z in
              if !rz = 0.0 then outcome := Some (Solver.Breakdown "rᵀz = 0")
              else begin
                let beta = Precision.div prec rz' !rz in
                rz := rz';
                (* [Precision.fma] spelled out inline, as in the
                   [Vector] kernels; [unsafe_get] keeps [beta] the left
                   operand of the product, as explained there. *)
                for i = 0 to n - 1 do
                  let q = (beta *. Array.unsafe_get p i) +. z.(i) in
                  p.(i) <-
                    (if single then Int32.float_of_bits (Int32.bits_of_float q)
                     else q)
                done
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
