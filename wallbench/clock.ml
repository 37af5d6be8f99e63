(* The one wall clock of the benchmark: CLOCK_MONOTONIC through
   bechamel's stub.  The library's own timers ([Solver.stats.solve_seconds],
   [Preconditioner.setup_seconds], [Timestep.result.elapsed_seconds],
   [Serve.Clock.system]) read [Sys.time], which is process CPU time summed
   over domains, so the benchmark never reads them. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
