(* Tests for the Krylov solvers: convergence on known systems, correctness
   against direct solutions, preconditioning behaviour, and the stopping /
   breakdown machinery. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond
open Vblu_krylov

let laplacian nx ny = Vblu_workloads.Generators.laplacian_2d ~nx ~ny ()

let direct_solution a b =
  (* Dense LU on the small test systems. *)
  let m = Csr.to_dense a in
  Lu.solve (Lu.factor_explicit m) b

let check_solution name a b x tol =
  let x_ref = direct_solution a b in
  Alcotest.(check bool)
    (name ^ " matches direct solve")
    true
    (Vector.max_abs_diff x x_ref /. (1.0 +. Vector.norm_inf x_ref) < tol)

let spd_system seed =
  let a = laplacian 12 12 in
  let n, _ = Csr.dims a in
  (a, Vector.random ~state:(Random.State.make [| seed |]) n)

let nonsym_system seed =
  let a =
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:12 ~ny:12 ~peclet:20.0 ()
  in
  let n, _ = Csr.dims a in
  (a, Vector.random ~state:(Random.State.make [| seed |]) n)

let tight = { Solver.default_config with Solver.rtol = 1e-10 }

(* ------------------------------------------------------------------ *)

let test_bicgstab_nonsymmetric () =
  let a, b = nonsym_system 2 in
  let x, stats = Bicgstab.solve ~config:tight a b in
  Alcotest.(check bool) "converged" true (Solver.converged stats);
  check_solution "bicgstab" a b x 1e-6

let test_gmres_nonsymmetric () =
  let a, b = nonsym_system 3 in
  let x, stats = Gmres.solve ~restart:20 ~config:tight a b in
  Alcotest.(check bool) "converged" true (Solver.converged stats);
  check_solution "gmres" a b x 1e-6

let test_idr_nonsymmetric () =
  let a, b = nonsym_system 4 in
  let x, stats = Idr.solve ~config:tight a b in
  Alcotest.(check bool) "converged" true (Solver.converged stats);
  check_solution "idr" a b x 1e-6

let test_idr_s_values () =
  let a, b = nonsym_system 5 in
  List.iter
    (fun s ->
      let x, stats = Idr.solve ~s a b in
      Alcotest.(check bool)
        (Printf.sprintf "IDR(%d) converges" s)
        true (Solver.converged stats);
      check_solution (Printf.sprintf "idr(%d)" s) a b x 1e-3)
    [ 1; 2; 4; 8 ]

let test_idr_preconditioned () =
  let a = Vblu_workloads.Generators.fem_blocks ~nodes:80 ~vars_per_node:4 () in
  let n, _ = Csr.dims a in
  let b = Array.make n 1.0 in
  let precond, _ = Block_jacobi.create ~max_block_size:16 a in
  let _, plain = Idr.solve ~s:4 a b in
  let _, pre = Idr.solve ~precond ~s:4 a b in
  Alcotest.(check bool) "converged" true (Solver.converged pre);
  Alcotest.(check bool) "preconditioning does not hurt" true
    (pre.Solver.iterations <= plain.Solver.iterations)

let test_idr_deterministic_seed () =
  let a, b = nonsym_system 6 in
  let _, s1 = Idr.solve ~seed:3 a b in
  let _, s2 = Idr.solve ~seed:3 a b in
  let _, s3 = Idr.solve ~seed:4 a b in
  Alcotest.(check int) "same seed, same iterations" s1.Solver.iterations
    s2.Solver.iterations;
  (* A different shadow space is allowed to converge differently; just
     check it still converges. *)
  Alcotest.(check bool) "other seed converges" true (Solver.converged s3)

let test_idr_smoothing () =
  let a, b = nonsym_system 13 in
  let config = { Solver.default_config with Solver.record_history = true } in
  let x, stats = Idr.solve ~smoothing:true ~config a b in
  Alcotest.(check bool) "converged" true (Solver.converged stats);
  check_solution "idr smoothed" a b x 1e-4;
  (* The smoothed residual history never increases. *)
  let h = stats.Solver.history in
  let monotone = ref true in
  for i = 1 to Array.length h - 1 do
    if h.(i) > h.(i - 1) *. (1.0 +. 1e-12) then monotone := false
  done;
  Alcotest.(check bool) "monotone history" true !monotone

(* An odd cap: BiCGSTAB counts both half-steps of an iteration, so it
   must also stop between them. *)
let test_max_iterations () =
  let a, b = spd_system 7 in
  let config = { Solver.default_config with Solver.max_iters = 3 } in
  List.iter
    (fun (name, solve) ->
      let _, stats = solve a b in
      Alcotest.(check bool) (name ^ " hits cap") true
        (stats.Solver.outcome = Solver.Max_iterations);
      Alcotest.(check int) (name ^ " counted") 3 stats.Solver.iterations)
    [
      ("gmres", fun a b -> Gmres.solve ~config a b);
      ("bicgstab", fun a b -> Bicgstab.solve ~config a b);
    ]

let test_history_recorded () =
  let a, b = spd_system 8 in
  let config = { Solver.default_config with Solver.record_history = true } in
  let _, stats = Gmres.solve ~config a b in
  Alcotest.(check bool) "history non-empty" true
    (Array.length stats.Solver.history > 2);
  (* The residual should shrink overall. *)
  let h = stats.Solver.history in
  Alcotest.(check bool) "decreases" true
    (h.(Array.length h - 1) < h.(0) /. 1e4)

let test_zero_rhs () =
  let a, _ = spd_system 9 in
  let n, _ = Csr.dims a in
  let b = Array.make n 0.0 in
  List.iter
    (fun (name, solve) ->
      let x, stats = solve a b in
      Alcotest.(check bool) (name ^ " converges immediately") true
        (Solver.converged stats && stats.Solver.iterations = 0);
      Alcotest.(check bool) (name ^ " returns zero") true
        (Vector.norm_inf x = 0.0))
    [
      ("bicgstab", fun a b -> Bicgstab.solve a b);
      ("idr", fun a b -> Idr.solve a b);
      ("gmres", fun a b -> Gmres.solve a b);
    ]

let test_dimension_mismatch () =
  let a, _ = spd_system 10 in
  Alcotest.check_raises "bad rhs"
    (Invalid_argument "Krylov: rhs dimension mismatch") (fun () ->
      ignore (Bicgstab.solve a [| 1.0 |]))

let test_final_residual_is_true_residual () =
  let a, b = nonsym_system 11 in
  let x, stats = Idr.solve a b in
  let r = Vector.sub b (Csr.spmv a x) in
  Alcotest.(check (float 1e-12)) "stats match recomputation"
    (Vector.nrm2 r) stats.Solver.residual_norm

let test_gmres_restart_cycles () =
  (* A tiny restart forces several cycles; convergence must survive. *)
  let a, b = nonsym_system 14 in
  let x, stats = Gmres.solve ~restart:3 ~config:tight a b in
  Alcotest.(check bool) "converged across restarts" true
    (Solver.converged stats);
  check_solution "gmres(3)" a b x 1e-6

let test_breakdown_reported () =
  (* A singular operator: solvers must terminate with a diagnosis, not
     loop or crash. *)
  let z =
    Csr.create ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 1; 2 |] ~col_idx:[| 0; 1 |]
      ~values:[| 1.0; 0.0 |]
  in
  let b = [| 1.0; 1.0 |] in
  let config = { Solver.default_config with Solver.max_iters = 50 } in
  List.iter
    (fun (name, solve) ->
      let _, stats = solve z b config in
      Alcotest.(check bool)
        (name ^ " terminates without convergence")
        true
        (match stats.Solver.outcome with
        | Solver.Converged -> false
        | Solver.Breakdown _ | Solver.Max_iterations -> true))
    [
      ("bicgstab", fun a b config -> Bicgstab.solve ~config a b);
      ("idr", fun a b config -> Idr.solve ~config a b);
      ("gmres", fun a b config -> Gmres.solve ~config a b);
    ]

let test_solvers_agree () =
  let a, b = nonsym_system 12 in
  let x1, _ = Bicgstab.solve ~config:tight a b in
  let x2, _ = Gmres.solve ~config:tight a b in
  let x3, _ = Idr.solve ~config:tight a b in
  let scale = 1.0 +. Vector.norm_inf x1 in
  Alcotest.(check bool) "bicgstab = gmres" true
    (Vector.max_abs_diff x1 x2 /. scale < 1e-6);
  Alcotest.(check bool) "idr = gmres" true
    (Vector.max_abs_diff x3 x2 /. scale < 1e-6)

(* Host timers read the wall clock: with two domains busy at once, the
   seconds a setup or a solve reports never exceed the wall time measured
   around it (processor time summed over the domains would be about twice
   it). *)
let test_wall_clock_under_domains () =
  let pool = Vblu_par.Pool.create ~num_domains:2 () in
  let busy () =
    Vblu_par.Pool.parallel_for pool ~lo:0 ~hi:2 (fun _ ->
        let acc = ref 0.0 in
        for i = 1 to 10_000_000 do
          acc := !acc +. float_of_int i
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let around f =
    let t0 = Wall_clock.now () in
    let r = f () in
    (r, Wall_clock.since t0)
  in
  let ((), setup), wall = around (fun () -> Preconditioner.timed busy) in
  Alcotest.(check bool)
    (Printf.sprintf "setup %.3fs <= wall %.3fs" setup wall)
    true (setup <= wall);
  let a, b = spd_system 15 in
  let n, _ = Csr.dims a in
  let precond =
    { Preconditioner.name = "busy"; dim = n; setup_seconds = 0.0;
      apply = (fun r -> busy (); Vector.copy r) }
  in
  let config = { Solver.default_config with Solver.max_iters = 3 } in
  let (_, stats), wall = around (fun () -> Idr.solve ~config ~precond a b) in
  Alcotest.(check bool)
    (Printf.sprintf "solve %.3fs <= wall %.3fs" stats.Solver.solve_seconds wall)
    true
    (stats.Solver.solve_seconds <= wall)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    QCheck.Test.make ~count:15 ~name:"idr(4) solves dominant fem systems"
      QCheck.(int_bound 1000)
      (fun seed ->
        let a =
          Vblu_workloads.Generators.fem_blocks
            ~state:(Random.State.make [| seed |])
            ~nodes:25 ~vars_per_node:3 ~margin:0.2 ()
        in
        let n, _ = Csr.dims a in
        let x_true = Vector.random ~state:(Random.State.make [| seed + 1 |]) n in
        let b = Csr.spmv a x_true in
        let precond, _ = Block_jacobi.create ~max_block_size:8 a in
        let x, stats = Idr.solve ~precond a b in
        Solver.converged stats
        && Vector.max_abs_diff x x_true /. (1.0 +. Vector.norm_inf x_true) < 1e-3);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "krylov"
    [
      ( "convergence",
        [
          Alcotest.test_case "bicgstab" `Quick test_bicgstab_nonsymmetric;
          Alcotest.test_case "gmres" `Quick test_gmres_nonsymmetric;
          Alcotest.test_case "idr" `Quick test_idr_nonsymmetric;
          Alcotest.test_case "idr(s) sweep" `Quick test_idr_s_values;
          Alcotest.test_case "idr preconditioned" `Quick test_idr_preconditioned;
          Alcotest.test_case "idr smoothing" `Quick test_idr_smoothing;
          Alcotest.test_case "solvers agree" `Quick test_solvers_agree;
          Alcotest.test_case "gmres restarts" `Quick test_gmres_restart_cycles;
          Alcotest.test_case "breakdown reported" `Quick test_breakdown_reported;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "idr deterministic" `Quick
            test_idr_deterministic_seed;
          Alcotest.test_case "max iterations" `Quick test_max_iterations;
          Alcotest.test_case "history" `Quick test_history_recorded;
          Alcotest.test_case "zero rhs" `Quick test_zero_rhs;
          Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
          Alcotest.test_case "true residual" `Quick
            test_final_residual_is_true_residual;
          Alcotest.test_case "wall clock under domains" `Quick
            test_wall_clock_under_domains;
        ] );
      ("properties", qcheck_tests);
    ]
