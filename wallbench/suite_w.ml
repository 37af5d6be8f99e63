(* Workload [suite]: the paper's Table I / Figure 9 path.  Block-Jacobi
   (LU, supervariable bound 32) built through [Block_jacobi.handle], then
   IDR(4) to rtol 1e-6, over the 48 [Workloads.Suite] matrices, on one
   domain.  The seed draws the right-hand sides. *)

open Vblu_sparse
open Vblu_precond
open Vblu_krylov
module Suite = Vblu_workloads.Suite
module Pool = Vblu_par.Pool

let bound = 32
let config = Solver.default_config

type input = { names : string array; mats : Csr.t array; rhs : float array array }

let generate ~seed ~smoke =
  let entries =
    Array.of_list
      (if smoke then
         List.filter (fun e -> e.Suite.name = "dw1024" || e.Suite.name = "bcsstk38") Suite.all
       else Suite.all)
  in
  let mats = Array.map Suite.matrix entries in
  let rhs =
    Array.mapi
      (fun i a ->
        let st = Random.State.make [| seed; entries.(i).Suite.id |] in
        Array.init a.Csr.n_rows (fun _ -> Random.State.float st 2.0 -. 1.0))
      mats
  in
  { names = Array.map (fun e -> e.Suite.name) entries; mats; rhs }

type system = {
  setup : float;
  solve : float;
  x : float array;
  stats : Solver.stats;
  launches : int;
  tx : int;
  modelled : float;
}

let pass inp sp tr =
  Array.mapi
    (fun i a ->
      let h, setup =
        Speed.time sp (fun () ->
            Trace.span tr ~item:i "precond.setup" (fun () ->
                Block_jacobi.handle ~pool:Pool.sequential ~max_block_size:bound a))
      in
      let precond = Run.traced_precond tr ~item:i (Block_jacobi.precond h) in
      let (x, stats), solve =
        Speed.time sp (fun () ->
            Trace.span tr ~item:i "krylov.solve" (fun () ->
                Idr.solve ~s:4 ~config ~precond a inp.rhs.(i)))
      in
      let u = Block_jacobi.last_update h in
      {
        setup;
        solve;
        x;
        stats;
        launches = u.Block_jacobi.launches;
        tx = u.Block_jacobi.setup_transactions;
        modelled = u.Block_jacobi.modelled_seconds;
      })
    inp.mats

let check inp systems =
  Array.iteri
    (fun i s ->
      if Solver.converged s.stats then
        Run.check
          (Run.residual_ok ~rtol:config.Solver.rtol inp.mats.(i) inp.rhs.(i) s.x)
          "suite: %s converged but its true residual exceeds rtol*|b|"
          inp.names.(i))
    systems

let run (ctx : Run.ctx) =
  let inp = generate ~seed:ctx.seed ~smoke:ctx.smoke in
  let n = Array.length inp.mats in
  let sp = Speed.create () in
  let { Run.plain; traced; trace = tr; cache } =
    Run.passes ctx ~min_passes:3 ~check:(check inp) (pass inp sp)
  in
  let all = plain @ traced in
  let attempted = List.length all * n in
  let failed =
    List.fold_left
      (fun acc r -> acc + Run.count_by (fun s -> if Solver.converged s.stats then 0 else 1) r)
      0 all
  in
  let med f rs = Run.unit_medians (List.map (Array.map f) rs) in
  let tts rs = med (fun s -> s.setup +. s.solve) rs in
  let e2e =
    Run.e2e ~smoke:ctx.smoke
      ~setup:(Array.of_list (List.map (Run.sum_by (fun s -> s.setup)) plain))
      ~solve:(med (fun s -> s.solve) plain)
      ~tts:(tts plain) ~busy:(Run.sum (tts plain)) ~per_pass:n
      ~passes:(List.length plain)
  in
  let layers =
    match tr with
    | None -> []
    | Some t ->
      let k = float_of_int (List.length traced) in
      let r = List.hd traced in
      let iters = Run.count_by (fun s -> s.stats.Solver.iterations) r in
      let budget = if ctx.smoke then 0.01 else 0.5 in
      let bl, blocking = Probes.blocking ~budget ~bound inp.mats in
      let applies = Trace.count t "precond.apply" in
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
        m "precond.setup_launches" (float_of_int (Run.count_by (fun s -> s.launches) r));
        m "precond.setup_tx" (float_of_int (Run.count_by (fun s -> s.tx) r));
        m "precond.setup_modelled_us" (1e6 *. Run.sum_by (fun s -> s.modelled) r);
        m "failed_frac" (float_of_int failed /. float_of_int attempted);
        Run.overhead ~plain:(Run.sum (tts plain)) ~traced:(Run.sum (tts traced));
      ]
      @ blocking
      @ Probes.spmv ~budget inp.mats
      @ Probes.batched ~budget ~pool:Pool.sequential ~seed:ctx.seed
          (Probes.diagonal_blocks inp.mats bl)
      @ Probes.fanout ~budget @ cache @ [ Speed.metric sp ]
  in
  { Run.e2e; layers; attempted; failed; trace = tr }
