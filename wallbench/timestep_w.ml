(* Workload [timestep]: the drifting convection-diffusion sequence of
   [Timestep.matrix].  The benchmark drives the steps itself: one
   [Block_ilu0.handle] at step 0, then [Block_ilu0.update ~tol:0.] and
   IDR(4) every step, on 2 domains.  The seed draws each step's
   right-hand side.  Refactor-heavy where [suite] is apply-heavy. *)

open Vblu_sparse
open Vblu_precond
open Vblu_krylov
module Timestep = Vblu_workloads.Timestep
module Pool = Vblu_par.Pool

(* [Timestep.run]'s defaults: a 24x24 grid and supervariable bound 16. *)
let bound = 16
let config = Solver.default_config

type input = { mats : Csr.t array; rhs : float array array }

let generate ~seed ~smoke =
  let grid, steps = if smoke then (8, 4) else (24, 40) in
  let mats = Array.init steps (fun step -> Timestep.matrix ~nx:grid ~ny:grid ~step ()) in
  let rhs =
    Array.mapi
      (fun step a ->
        let st = Random.State.make [| seed; step |] in
        Array.init a.Csr.n_rows (fun _ -> Random.State.float st 2.0 -. 1.0))
      mats
  in
  { mats; rhs }

type step = {
  refresh : float;  (** wall seconds of the step's build or update. *)
  solve : float;
  x : float array;
  stats : Solver.stats;
  update : Block_jacobi.update_stats;
}

type pass = { h : Block_ilu0.handle; steps : step array }

let pass ~pool inp sp tr =
  let h, setup =
    Speed.time sp (fun () ->
        Trace.span tr ~item:0 "precond.setup" (fun () ->
            Block_ilu0.handle ~pool ~max_block_size:bound inp.mats.(0)))
  in
  let precond = Run.traced_precond tr ~item:(-1) (Block_ilu0.precond h) in
  let steps =
    Array.mapi
      (fun k a ->
        let update, refresh =
          if k = 0 then (Block_ilu0.last_update h, setup)
          else
            Speed.time sp (fun () ->
                Trace.span tr ~item:k "precond.update" (fun () ->
                    Block_ilu0.update ~tol:0.0 h a))
        in
        let (x, stats), solve =
          Speed.time sp (fun () ->
              Trace.span tr ~item:k "krylov.solve" (fun () ->
                  Idr.solve ~s:4 ~config ~precond a inp.rhs.(k)))
        in
        { refresh; solve; x; stats; update })
      inp.mats
  in
  { h; steps }

(* Outside the timed region: every converged step meets rtol on its true
   residual, and the refreshed handle equals a fresh build on the last
   matrix bit for bit (the tol-0 contract). *)
let check ~pool inp p =
  Array.iteri
    (fun k s ->
      if Solver.converged s.stats then
        Run.check
          (Run.residual_ok ~rtol:config.Solver.rtol inp.mats.(k) inp.rhs.(k) s.x)
          "timestep: step %d converged but its true residual exceeds rtol*|b|" k)
    p.steps;
  let last = inp.mats.(Array.length inp.mats - 1) in
  let fresh = Block_ilu0.handle ~pool ~max_block_size:bound last in
  let same (m1, p1) (m2, p2) =
    Run.same_bits m1.Vblu_smallblas.Matrix.a m2.Vblu_smallblas.Matrix.a && p1 = p2
  in
  let got = Block_ilu0.handle_factors p.h
  and want = Block_ilu0.handle_factors fresh in
  Run.check
    (Array.length got = Array.length want && Array.for_all2 same got want)
    "timestep: updated handle differs from a fresh build on the last matrix"

let run (ctx : Run.ctx) =
  let inp = generate ~seed:ctx.seed ~smoke:ctx.smoke in
  let pool = Pool.create ~num_domains:2 () in
  let n = Array.length inp.mats in
  let sp = Speed.create () in
  let { Run.plain; traced; trace = tr; cache } =
    Run.passes ctx ~min_passes:3 ~check:(check ~pool inp) (pass ~pool inp sp)
  in
  let all = plain @ traced in
  let attempted = List.length all * n in
  let failed =
    List.fold_left
      (fun acc p ->
        acc + Run.count_by (fun s -> if Solver.converged s.stats then 0 else 1) p.steps)
      0 all
  in
  (* Step 0's refresh is the set-up, so [solve_s] leaves it out. *)
  let med f ps = Run.unit_medians (List.map (fun p -> Array.mapi f p.steps) ps) in
  let tts ps = med (fun _ s -> s.refresh +. s.solve) ps in
  let e2e =
    Run.e2e ~smoke:ctx.smoke
      ~setup:(Array.of_list (List.map (fun p -> p.steps.(0).refresh) plain))
      ~solve:(med (fun k s -> if k = 0 then s.solve else s.refresh +. s.solve) plain)
      ~tts:(tts plain) ~busy:(Run.sum (tts plain)) ~per_pass:n
      ~passes:(List.length plain)
  in
  let layers =
    match tr with
    | None -> []
    | Some t ->
      let k = float_of_int (List.length traced) in
      let p = List.hd traced in
      let st = p.steps in
      let iters = Run.count_by (fun s -> s.stats.Solver.iterations) st in
      let updates = Array.sub st 1 (n - 1) in
      let reused = Run.count_by (fun s -> s.update.Block_jacobi.reused) updates in
      let refactored = Run.count_by (fun s -> s.update.Block_jacobi.refactored) updates in
      let apply = !((Block_ilu0.handle_info p.h).Block_ilu0.last_apply) in
      let waves, apply_tx, apply_modelled =
        match apply with
        | None -> (0, 0, 0.0)
        | Some a ->
          ( Array.length a.Block_ilu0.waves,
            Array.fold_left (fun acc w -> acc + w.Block_ilu0.transactions) 0 a.waves,
            a.modelled_seconds )
      in
      let applies = Trace.count t "precond.apply" in
      let budget = if ctx.smoke then 0.01 else 0.5 in
      let bl, blocking = Probes.blocking ~budget ~bound [| inp.mats.(0) |] in
      let m = Metric.v in
      [
        m "krylov.iterations" (float_of_int iters);
        m ~samples:(List.length traced) "krylov.self_ms"
          (1e3 *. Trace.self_total t "krylov.solve" /. k);
        m "krylov.alloc_words_per_iter"
          (Trace.self_words_total t "krylov.solve" /. k /. float_of_int (max 1 iters));
        m ~samples:applies "precond.apply_us"
          (1e6 *. Trace.total t "precond.apply" /. float_of_int (max 1 applies));
        m "precond.apply_calls" (float_of_int applies /. k);
        m ~samples:(List.length traced) "precond.setup_ms"
          (1e3 *. Trace.total t "precond.setup" /. k);
        m ~samples:(List.length traced) "precond.update_ms"
          (1e3 *. Trace.total t "precond.update" /. k);
        m "precond.setup_launches"
          (float_of_int (Run.count_by (fun s -> s.update.Block_jacobi.launches) st));
        m "precond.setup_tx"
          (float_of_int (Run.count_by (fun s -> s.update.Block_jacobi.setup_transactions) st));
        m "precond.setup_modelled_us"
          (1e6 *. Run.sum_by (fun s -> s.update.Block_jacobi.modelled_seconds) st);
        m "precond.reuse_frac"
          (float_of_int reused /. float_of_int (max 1 (reused + refactored)));
        m "precond.ilu0.apply_waves" (float_of_int waves);
        m "precond.ilu0.apply_tx" (float_of_int apply_tx);
        m "precond.ilu0.apply_modelled_us" (1e6 *. apply_modelled);
        m "failed_frac" (float_of_int failed /. float_of_int attempted);
        Run.overhead ~plain:(Run.sum (tts plain)) ~traced:(Run.sum (tts traced));
      ]
      @ blocking
      @ Probes.spmv ~budget inp.mats
      @ Probes.batched ~budget ~pool ~seed:ctx.seed
          (Probes.diagonal_blocks [| inp.mats.(0) |] bl)
      @ Probes.fanout ~budget @ cache @ [ Speed.metric sp ]
  in
  { Run.e2e; layers; attempted; failed; trace = tr }
