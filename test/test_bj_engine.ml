(* Setup-engine golden for both preconditioner families.  Every path
   that builds a block-Jacobi preconditioner — [create ~variant:Lu],
   [handle]/[update], [create]'s post-setup fault injection with ABFT
   recovery, and the serve batcher's coalesced wave (uncached, cached
   across a drifted wave, and under an in-kernel fault plan) — and every
   path that builds a block-ILU(0) one — [create] (plain and with a fault
   plan under ABFT), [handle] plus a drifted [update], the interleaved
   layout and [ras] — is run on fixed inputs, and its observable results
   are reduced to one line per case: outcome lists, launch counters,
   modelled seconds (as IEEE bits) and an MD5 digest of every output
   float's bits.  The block-Jacobi lines were recorded before that
   family's three setup paths were merged into one engine, the [ilu/]
   lines before block-ILU(0)'s three assemblies were merged into one
   refresh; any drift is a behaviour change, not noise.

   [dune exec test/test_bj_engine.exe -- --print] prints the live table in
   the [recorded] syntax. *)

open Vblu_smallblas
open Vblu_sparse
module Bj = Vblu_precond.Block_jacobi
module Ilu = Vblu_precond.Block_ilu0
module Preconditioner = Vblu_precond.Preconditioner
module Pool = Vblu_par.Pool
module Fault = Vblu_fault.Fault
module Generators = Vblu_workloads.Generators
module Suite = Vblu_workloads.Suite
module Batcher = Vblu_serve.Batcher
module Setup_cache = Vblu_serve.Setup_cache

(* ---------------------------------------------------------------- *)
(* Reductions                                                        *)

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_floats b a = Array.iter (add_float b) a
let add_ints b a = Array.iter (fun i -> Buffer.add_int64_le b (Int64.of_int i)) a
let hex x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let digest f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------------------------------------------------------------- *)
(* Inputs                                                            *)

let rhs n =
  Array.init n (fun i ->
      1.0 +. (0.25 *. float_of_int (i mod 7)) -. (0.5 *. float_of_int (i mod 3)))

let with_values (a : Csr.t) values =
  Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols
    ~row_ptr:(Array.copy a.Csr.row_ptr) ~col_idx:(Array.copy a.Csr.col_idx)
    ~values

(* Same pattern, every eleventh stored value scaled by 1.001. *)
let drift (a : Csr.t) =
  with_values a
    (Array.mapi
       (fun p v -> if p mod 11 = 0 then v *. 1.001 else v)
       a.Csr.values)

(* [fem_blocks ~nodes:40 ~vars_per_node:4] with every stored value in the
   rows of every third node set to 1.0: a node's rows share one column
   pattern, so they become identical and every diagonal block holding
   such a node is singular, whatever the bound. *)
let singular_fem () =
  let a =
    Generators.fem_blocks ~state:(Random.State.make [| 40 |]) ~nodes:40
      ~vars_per_node:4 ()
  in
  let values = Array.copy a.Csr.values in
  for r = 0 to a.Csr.n_rows - 1 do
    let node = r / 4 in
    if node mod 3 = 0 then
      for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
        values.(p) <- 1.0
      done
  done;
  with_values a values

let suite name =
  match Suite.find name with
  | Some e -> Suite.matrix e
  | None -> failwith ("unknown suite matrix " ^ name)

(* (label, matrix, bounds) *)
let matrices () =
  [
    ("dw1024", suite "dw1024", [ 32 ]);
    ("bcsstk38", suite "bcsstk38", [ 32 ]);
    ("cage10", suite "cage10", [ 32 ]);
    ("fem-singular", singular_fem (), [ 4; 8; 16 ]);
  ]

let policies =
  [
    ("identity", Bj.Identity_block);
    ("perturb", Bj.Perturb 1e-8);
    ("fail", (Bj.Fail : Bj.breakdown_policy));
  ]

let pools = [ (1, Pool.sequential); (2, Pool.create ~num_domains:2 ()) ]

(* ---------------------------------------------------------------- *)
(* Block_jacobi cases                                                *)

let apply_digest (p : Preconditioner.t) =
  digest (fun b -> add_floats b (p.Preconditioner.apply (rhs p.Preconditioner.dim)))

let info_line (i : Bj.info) =
  Printf.sprintf "sing=%s deg=%s pert=%s rec=%s corr=%s"
    (ints i.Bj.singular_blocks) (ints i.Bj.degraded_blocks)
    (ints i.Bj.perturbed_blocks) (ints i.Bj.recovered_blocks)
    (ints i.Bj.corrupt_blocks)

let guarded f =
  match f () with
  | s -> s
  | exception Bj.Singular_block { block; _ } -> Printf.sprintf "singular@%d" block
  | exception Bj.Fault_detected { block; _ } -> Printf.sprintf "fault@%d" block
  | exception Ilu.Singular_block { block } -> Printf.sprintf "singular@%d" block

let create_case ~pool ~policy ~bound a () =
  guarded (fun () ->
      let p, info = Bj.create ~pool ~variant:Bj.Lu ~policy ~max_block_size:bound a in
      Printf.sprintf "%s apply=%s" (info_line info) (apply_digest p))

let factors_digest h =
  digest (fun b ->
      Array.iter
        (function
          | None -> add_ints b [| -1 |]
          | Some (f : Lu.factors) ->
            let s, _ = Matrix.dims f.Lu.lu in
            for r = 0 to s - 1 do
              for c = 0 to s - 1 do
                add_float b (Matrix.get f.Lu.lu r c)
              done
            done;
            add_ints b f.Lu.perm)
        (Bj.handle_factors h))

let stats_line (u : Bj.update_stats) =
  Printf.sprintf "dirty=%d reused=%d launches=%d tx=%d modelled=%s"
    u.Bj.refactored u.Bj.reused u.Bj.launches u.Bj.setup_transactions
    (hex u.Bj.modelled_seconds)

let handle_case ~pool ~policy ~bound a () =
  guarded (fun () ->
      let h = Bj.handle ~pool ~policy ~max_block_size:bound a in
      let fresh =
        Printf.sprintf "%s %s factors=%s apply=%s"
          (stats_line (Bj.last_update h))
          (info_line (Bj.handle_info h))
          (factors_digest h)
          (apply_digest (Bj.precond h))
      in
      let u = Bj.update ~tol:0.0 h (drift a) in
      Printf.sprintf "%s | %s factors=%s apply=%s" fresh (stats_line u)
        (factors_digest h)
        (apply_digest (Bj.precond h)))

let fault_case ~pool ~policy ~recovery ~bound a () =
  guarded (fun () ->
      let plan = Fault.Plan.make ~seed:31 ~every:2 () in
      let p, info =
        Bj.create ~pool ~variant:Bj.Lu ~policy ~faults:plan ~abft:true
          ~recovery ~max_block_size:bound a
      in
      Printf.sprintf "injected=%d %s apply=%s" (Fault.Plan.injected plan)
        (info_line info) (apply_digest p))

(* ---------------------------------------------------------------- *)
(* Block_ilu0 cases                                                  *)

let ilu_info_line (i : Ilu.info) =
  let apply =
    match !(i.Ilu.last_apply) with
    | None -> "none"
    | Some s -> Printf.sprintf "%d/%s" (Array.length s.Ilu.waves) (hex s.Ilu.modelled_seconds)
  in
  Printf.sprintf "fi=%d deg=%s pert=%s rec=%s corr=%s launches=%d modelled=%s waves=%s"
    i.Ilu.factor_info (ints i.Ilu.degraded_blocks) (ints i.Ilu.perturbed_blocks)
    (ints i.Ilu.recovered_blocks) (ints i.Ilu.corrupt_blocks) i.Ilu.setup_launches
    (hex i.Ilu.setup_modelled_seconds) apply

(* The apply digest first: [last_apply] is filled by the application. *)
let ilu_line p info =
  let apply = apply_digest p in
  Printf.sprintf "%s apply=%s" (ilu_info_line info) apply

let ilu_create_case ~pool ~policy ~bound a () =
  guarded (fun () ->
      let p, info = Ilu.create ~pool ~policy ~max_block_size:bound a in
      ilu_line p info)

let ilu_factors_digest h =
  digest (fun b ->
      Array.iter
        (fun (m, piv) ->
          let s, _ = Matrix.dims m in
          for r = 0 to s - 1 do
            for c = 0 to s - 1 do
              add_float b (Matrix.get m r c)
            done
          done;
          add_ints b piv)
        (Ilu.handle_factors h))

let ilu_handle_case ~pool ~policy ~layout ~bound a () =
  guarded (fun () ->
      let h = Ilu.handle ~pool ~layout ~policy ~max_block_size:bound a in
      let line () =
        let apply = apply_digest (Ilu.precond h) in
        Printf.sprintf "%s %s factors=%s apply=%s"
          (stats_line (Ilu.last_update h))
          (ilu_info_line (Ilu.handle_info h))
          (ilu_factors_digest h) apply
      in
      let fresh = line () in
      let a' = drift a in
      ignore (Ilu.update ~tol:0.0 h a');
      let drifted = line () in
      (* Then a partial refresh: only the last stored value moves, so only
         the last block row and its lower-DAG closure re-eliminate. *)
      let values = Array.copy a'.Csr.values in
      let last = Array.length values - 1 in
      values.(last) <- values.(last) *. 1.001;
      ignore (Ilu.update ~tol:0.0 h (with_values a' values));
      String.concat " | " [ fresh; drifted; line () ])

let ilu_fault_case ~pool ~policy ~bound a () =
  guarded (fun () ->
      let plan = Fault.Plan.make ~seed:31 ~every:2 () in
      let p, info =
        Ilu.create ~pool ~policy ~faults:plan ~abft:true ~max_block_size:bound a
      in
      Printf.sprintf "injected=%d %s" (Fault.Plan.injected plan) (ilu_line p info))

let ilu_ras_case ~bound a () =
  guarded (fun () ->
      let p, r = Ilu.ras ~max_block_size:bound a in
      let apply = apply_digest p in
      Printf.sprintf "%s apply=%s"
        (String.concat ";" (Array.to_list (Array.map ilu_info_line r.Ilu.local_info)))
        apply)

(* (label, matrix, bound) *)
let ilu_matrices () =
  let fem = singular_fem () in
  [
    ("dw1024", suite "dw1024", 32);
    ("cage10", suite "cage10", 16);
    ("fem-singular", fem, 4);
    ("fem-singular", fem, 8);
  ]

let ilu_cases () =
  List.concat_map
    (fun (label, a, bound) ->
      let name kind pol d = Printf.sprintf "ilu/%s/%s/b%d/%s/d%d" kind label bound pol d in
      List.concat_map
        (fun (d, pool) ->
          List.concat_map
            (fun (pname, policy) ->
              [
                (name "create" pname d, ilu_create_case ~pool ~policy ~bound a);
                ( name "handle" pname d,
                  ilu_handle_case ~pool ~policy ~layout:Vblu_core.Batch.Blocked ~bound a );
              ])
            policies
          @ List.map
              (fun (pname, policy) ->
                (name "faults" pname d, ilu_fault_case ~pool ~policy ~bound a))
              policies)
        pools
      @ [
          ( name "handle-interleaved" "perturb" 1,
            ilu_handle_case ~pool:Pool.sequential ~policy:(Bj.Perturb 1e-8)
              ~layout:Vblu_core.Batch.Interleaved ~bound a );
          (name "ras" "identity" 1, ilu_ras_case ~bound a);
        ])
    (ilu_matrices ())

(* ---------------------------------------------------------------- *)
(* Batcher cases                                                     *)

(* One fixed mixed wave: Jacobi and ILU(0) problems at several bounds,
   including singular diagonal blocks. *)
let wave () =
  let st = Random.State.make [| 0xb47c; 5 |] in
  let tri blocks block_size =
    Generators.block_tridiagonal ~state:st ~blocks ~block_size ()
  in
  let problem a max_block_size precond =
    { Batcher.a; rhs = rhs a.Csr.n_rows; max_block_size; precond }
  in
  let rank1 = Csr.of_dense (Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]) in
  [|
    problem (tri 3 7) 32 Batcher.Jacobi;
    problem (singular_fem ()) 8 Batcher.Jacobi;
    problem (tri 4 5) 16 Batcher.Ilu0;
    problem (tri 5 12) 8 Batcher.Jacobi;
    problem rank1 32 Batcher.Jacobi;
    problem (tri 2 9) 32 Batcher.Ilu0;
  |]

(* The recurring wave: the last stored value of problems 0, 2 and 3
   scaled by 1.001, every other problem resubmitted unchanged. *)
let drift_wave w =
  Array.mapi
    (fun i (p : Batcher.problem) ->
      if i = 0 || i = 2 || i = 3 then begin
        let values = Array.copy p.Batcher.a.Csr.values in
        let last = Array.length values - 1 in
        values.(last) <- values.(last) *. 1.001;
        { p with Batcher.a = with_values p.Batcher.a values }
      end
      else p)
    w

let report_line (r : Batcher.launch_report) =
  let lists f =
    String.concat ";"
      (Array.to_list
         (Array.mapi (fun i o -> Printf.sprintf "%d:%s" i (ints (f o))) r.Batcher.outcomes))
  in
  Printf.sprintf
    "problems=%d coalesced=%d fresh=%d reused=%d modelled=%s blocks=%s deg=%s \
     faulted=%s y=%s"
    r.Batcher.problems r.Batcher.coalesced_blocks r.Batcher.setup_fresh_blocks
    r.Batcher.setup_reused_blocks
    (hex r.Batcher.modelled_seconds)
    (String.concat ","
       (Array.to_list
          (Array.map (fun o -> string_of_int o.Batcher.blocks) r.Batcher.outcomes)))
    (lists (fun o -> o.Batcher.degraded_blocks))
    (lists (fun o -> o.Batcher.faulted_blocks))
    (digest (fun b ->
         Array.iter (fun o -> add_floats b o.Batcher.y) r.Batcher.outcomes))

let batcher_cases ~d ~pool =
  let name s = Printf.sprintf "batcher/%s/d%d" s d in
  [
    (name "uncached", fun () -> report_line (Batcher.run ~pool (wave ())));
    ( name "uncached-abft",
      fun () -> report_line (Batcher.run ~pool ~abft:true (wave ())) );
    ( name "cached",
      fun () ->
        let cache = Setup_cache.create () in
        let w = wave () in
        let r1 = Batcher.run ~pool ~cache w in
        let r2 = Batcher.run ~pool ~cache (drift_wave w) in
        report_line r1 ^ " | " ^ report_line r2 );
    ( name "cached-abft",
      fun () ->
        let cache = Setup_cache.create () in
        let w = wave () in
        let r1 = Batcher.run ~pool ~abft:true ~cache w in
        let r2 = Batcher.run ~pool ~abft:true ~cache (drift_wave w) in
        let r3 = Batcher.run ~pool ~abft:true ~cache (drift_wave w) in
        String.concat " | " (List.map report_line [ r1; r2; r3 ]) );
    ( name "faults",
      fun () ->
        let faults = Fault.Plan.make ~seed:7 ~every:3 () in
        let cache = Setup_cache.create () in
        report_line (Batcher.run ~pool ~faults ~abft:true ~cache (wave ())) );
  ]

(* ---------------------------------------------------------------- *)
(* Case list                                                         *)

let cases () =
  let bj =
    List.concat_map
      (fun (label, a, bounds) ->
        List.concat_map
          (fun bound ->
            List.concat_map
              (fun (d, pool) ->
                let name kind pol =
                  Printf.sprintf "%s/%s/b%d/%s/d%d" kind label bound pol d
                in
                List.concat_map
                  (fun (pname, policy) ->
                    [
                      (name "create" pname, create_case ~pool ~policy ~bound a);
                      (name "handle" pname, handle_case ~pool ~policy ~bound a);
                    ])
                  policies
                @ List.concat_map
                    (fun (pname, policy) ->
                      List.map
                        (fun (rname, recovery) ->
                          ( name ("faults-" ^ rname) pname,
                            fault_case ~pool ~policy ~recovery ~bound a ))
                        [
                          ("recompute", Bj.Recompute 1);
                          ("degrade", Bj.Degrade_to_identity);
                        ])
                    [
                      ("identity", Bj.Identity_block); ("perturb", Bj.Perturb 1e-8);
                    ])
              pools)
          bounds)
      (matrices ())
  in
  bj @ List.concat_map (fun (d, pool) -> batcher_cases ~d ~pool) pools @ ilu_cases ()

let recorded : (string * string) list =
  [
    ( "create/dw1024/b32/identity/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/identity/d1",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "create/dw1024/b32/perturb/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/perturb/d1",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "create/dw1024/b32/fail/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/fail/d1",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "faults-recompute/dw1024/b32/identity/d1",
      "injected=16 sing=[] deg=[] pert=[] rec=[4] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "faults-degrade/dw1024/b32/identity/d1",
      "injected=16 sing=[] deg=[4] pert=[] rec=[] corr=[4] apply=5a5f6007ddcc515635353db666d150d8" );
    ( "faults-recompute/dw1024/b32/perturb/d1",
      "injected=16 sing=[] deg=[] pert=[] rec=[4] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "faults-degrade/dw1024/b32/perturb/d1",
      "injected=16 sing=[] deg=[4] pert=[] rec=[] corr=[4] apply=5a5f6007ddcc515635353db666d150d8" );
    ( "create/dw1024/b32/identity/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/identity/d2",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "create/dw1024/b32/perturb/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/perturb/d2",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "create/dw1024/b32/fail/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "handle/dw1024/b32/fail/d2",
      "dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=b71886673503e5600393a8ec646c201d apply=10e0e66ed75698606b6f5771e2722e92 | dirty=32 reused=0 launches=1 tx=16640 modelled=3f2fdd15f3290045 factors=64da25d50980340620181765e46b513c apply=ddf84011a6c3e7d263eeef5eed6e59e4" );
    ( "faults-recompute/dw1024/b32/identity/d2",
      "injected=16 sing=[] deg=[] pert=[] rec=[4] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "faults-degrade/dw1024/b32/identity/d2",
      "injected=16 sing=[] deg=[4] pert=[] rec=[] corr=[4] apply=5a5f6007ddcc515635353db666d150d8" );
    ( "faults-recompute/dw1024/b32/perturb/d2",
      "injected=16 sing=[] deg=[] pert=[] rec=[4] corr=[] apply=10e0e66ed75698606b6f5771e2722e92" );
    ( "faults-degrade/dw1024/b32/perturb/d2",
      "injected=16 sing=[] deg=[4] pert=[] rec=[] corr=[4] apply=5a5f6007ddcc515635353db666d150d8" );
    ( "create/bcsstk38/b32/identity/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/identity/d1",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "create/bcsstk38/b32/perturb/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/perturb/d1",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "create/bcsstk38/b32/fail/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/fail/d1",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "faults-recompute/bcsstk38/b32/identity/d1",
      "injected=38 sing=[] deg=[] pert=[] rec=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "faults-degrade/bcsstk38/b32/identity/d1",
      "injected=38 sing=[] deg=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] pert=[] rec=[] corr=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] apply=9ac082d7c172f396e88e89cd3fbbd275" );
    ( "faults-recompute/bcsstk38/b32/perturb/d1",
      "injected=38 sing=[] deg=[] pert=[] rec=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "faults-degrade/bcsstk38/b32/perturb/d1",
      "injected=38 sing=[] deg=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] pert=[] rec=[] corr=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] apply=9ac082d7c172f396e88e89cd3fbbd275" );
    ( "create/bcsstk38/b32/identity/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/identity/d2",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "create/bcsstk38/b32/perturb/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/perturb/d2",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "create/bcsstk38/b32/fail/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "handle/bcsstk38/b32/fail/d2",
      "dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 sing=[] deg=[] pert=[] rec=[] corr=[] factors=29b64d2f58cb368123f8efba55f04759 apply=5dd839b016852e1c9bc3c66ef6ed0d07 | dirty=75 reused=0 launches=1 tx=39000 modelled=3f25a7789735cc48 factors=12d0e2ee19e0bb5f26bf5704b68c6902 apply=10bd63ea7e32e93dacc7655c00a94c51" );
    ( "faults-recompute/bcsstk38/b32/identity/d2",
      "injected=38 sing=[] deg=[] pert=[] rec=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "faults-degrade/bcsstk38/b32/identity/d2",
      "injected=38 sing=[] deg=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] pert=[] rec=[] corr=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] apply=9ac082d7c172f396e88e89cd3fbbd275" );
    ( "faults-recompute/bcsstk38/b32/perturb/d2",
      "injected=38 sing=[] deg=[] pert=[] rec=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] corr=[] apply=5dd839b016852e1c9bc3c66ef6ed0d07" );
    ( "faults-degrade/bcsstk38/b32/perturb/d2",
      "injected=38 sing=[] deg=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] pert=[] rec=[] corr=[0,2,4,6,8,10,12,16,18,22,26,28,32,42,46,50,52,56,58,66,68,74] apply=9ac082d7c172f396e88e89cd3fbbd275" );
    ( "create/cage10/b32/identity/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/identity/d1",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "create/cage10/b32/perturb/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/perturb/d1",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "create/cage10/b32/fail/d1",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/fail/d1",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "faults-recompute/cage10/b32/identity/d1",
      "injected=25 sing=[] deg=[] pert=[] rec=[4,42] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "faults-degrade/cage10/b32/identity/d1",
      "injected=25 sing=[] deg=[4,42] pert=[] rec=[] corr=[4,42] apply=589d376f3b27fcc5ee5681dd0b815523" );
    ( "faults-recompute/cage10/b32/perturb/d1",
      "injected=25 sing=[] deg=[] pert=[] rec=[4,42] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "faults-degrade/cage10/b32/perturb/d1",
      "injected=25 sing=[] deg=[4,42] pert=[] rec=[] corr=[4,42] apply=589d376f3b27fcc5ee5681dd0b815523" );
    ( "create/cage10/b32/identity/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/identity/d2",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "create/cage10/b32/perturb/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/perturb/d2",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "create/cage10/b32/fail/d2",
      "sing=[] deg=[] pert=[] rec=[] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "handle/cage10/b32/fail/d2",
      "dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 sing=[] deg=[] pert=[] rec=[] corr=[] factors=2b1439ce2c885a60104be376dbf1135e apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d | dirty=50 reused=0 launches=1 tx=26000 modelled=3f2fdd15f3290045 factors=9f6be41cc7c4661b679d5c22048d7842 apply=be446cdbf81eaef2f15aace6179fe541" );
    ( "faults-recompute/cage10/b32/identity/d2",
      "injected=25 sing=[] deg=[] pert=[] rec=[4,42] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "faults-degrade/cage10/b32/identity/d2",
      "injected=25 sing=[] deg=[4,42] pert=[] rec=[] corr=[4,42] apply=589d376f3b27fcc5ee5681dd0b815523" );
    ( "faults-recompute/cage10/b32/perturb/d2",
      "injected=25 sing=[] deg=[] pert=[] rec=[4,42] corr=[] apply=faa4af05cd6f7ec47f9f91ff1dfb3c4d" );
    ( "faults-degrade/cage10/b32/perturb/d2",
      "injected=25 sing=[] deg=[4,42] pert=[] rec=[] corr=[4,42] apply=589d376f3b27fcc5ee5681dd0b815523" );
    ( "create/fem-singular/b4/identity/d1",
      "sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] apply=8dea9d3916ff62259a3c916157cfdde6" );
    ( "handle/fem-singular/b4/identity/d1",
      "dirty=40 reused=0 launches=1 tx=360 modelled=3f04984e4f72ce70 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] factors=ee3f35168858f0832e88daea95b36277 apply=8dea9d3916ff62259a3c916157cfdde6 | dirty=35 reused=5 launches=1 tx=315 modelled=3f0608e0b951f79e factors=5d29c141132e2c08ef6dde0e14320abe apply=c6dd9480b96e9dea85522f4c35f6f1f4" );
    ( "create/fem-singular/b4/perturb/d1",
      "sing=[] deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] apply=cd7c7d62ad4373b2ef440415b6b73ca2" );
    ( "handle/fem-singular/b4/perturb/d1",
      "dirty=40 reused=0 launches=2 tx=486 modelled=3f17164e881a35ae sing=[] deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] factors=0ca1ce6e31a3e52680da4159da844e25 apply=cd7c7d62ad4373b2ef440415b6b73ca2 | dirty=35 reused=5 launches=2 tx=432 modelled=3f17ce97bd09ca44 factors=9d64cc99d47ff05d90ad202545b55569 apply=8e06dfbb519488231bb137d2b93af9bd" );
    ( "create/fem-singular/b4/fail/d1",
      "singular@0" );
    ( "handle/fem-singular/b4/fail/d1",
      "singular@0" );
    ( "faults-recompute/fem-singular/b4/identity/d1",
      "injected=13 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[2,4,8,10,14,16,20,22,26,28,32,34,38] corr=[] apply=8dea9d3916ff62259a3c916157cfdde6" );
    ( "faults-degrade/fem-singular/b4/identity/d1",
      "injected=13 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,2,3,4,6,8,9,10,12,14,15,16,18,20,21,22,24,26,27,28,30,32,33,34,36,38,39] pert=[] rec=[] corr=[2,4,8,10,14,16,20,22,26,28,32,34,38] apply=ba6e63de47969668c332b73d28ee4796" );
    ( "faults-recompute/fem-singular/b4/perturb/d1",
      "injected=20 sing=[] deg=[] pert=[3,9,15,21,27,33,39] rec=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] corr=[] apply=cd7c7d62ad4373b2ef440415b6b73ca2" );
    ( "faults-degrade/fem-singular/b4/perturb/d1",
      "injected=20 sing=[] deg=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] pert=[3,9,15,21,27,33,39] rec=[] corr=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] apply=17110d02803b2caad0db70bc10a5a465" );
    ( "create/fem-singular/b4/identity/d2",
      "sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] apply=8dea9d3916ff62259a3c916157cfdde6" );
    ( "handle/fem-singular/b4/identity/d2",
      "dirty=40 reused=0 launches=1 tx=360 modelled=3f04984e4f72ce70 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] factors=ee3f35168858f0832e88daea95b36277 apply=8dea9d3916ff62259a3c916157cfdde6 | dirty=35 reused=5 launches=1 tx=315 modelled=3f0608e0b951f79e factors=5d29c141132e2c08ef6dde0e14320abe apply=c6dd9480b96e9dea85522f4c35f6f1f4" );
    ( "create/fem-singular/b4/perturb/d2",
      "sing=[] deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] apply=cd7c7d62ad4373b2ef440415b6b73ca2" );
    ( "handle/fem-singular/b4/perturb/d2",
      "dirty=40 reused=0 launches=2 tx=486 modelled=3f17164e881a35ae sing=[] deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] factors=0ca1ce6e31a3e52680da4159da844e25 apply=cd7c7d62ad4373b2ef440415b6b73ca2 | dirty=35 reused=5 launches=2 tx=432 modelled=3f17ce97bd09ca44 factors=9d64cc99d47ff05d90ad202545b55569 apply=8e06dfbb519488231bb137d2b93af9bd" );
    ( "create/fem-singular/b4/fail/d2",
      "singular@0" );
    ( "handle/fem-singular/b4/fail/d2",
      "singular@0" );
    ( "faults-recompute/fem-singular/b4/identity/d2",
      "injected=13 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[2,4,8,10,14,16,20,22,26,28,32,34,38] corr=[] apply=8dea9d3916ff62259a3c916157cfdde6" );
    ( "faults-degrade/fem-singular/b4/identity/d2",
      "injected=13 sing=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] deg=[0,2,3,4,6,8,9,10,12,14,15,16,18,20,21,22,24,26,27,28,30,32,33,34,36,38,39] pert=[] rec=[] corr=[2,4,8,10,14,16,20,22,26,28,32,34,38] apply=ba6e63de47969668c332b73d28ee4796" );
    ( "faults-recompute/fem-singular/b4/perturb/d2",
      "injected=20 sing=[] deg=[] pert=[3,9,15,21,27,33,39] rec=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] corr=[] apply=cd7c7d62ad4373b2ef440415b6b73ca2" );
    ( "faults-degrade/fem-singular/b4/perturb/d2",
      "injected=20 sing=[] deg=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] pert=[3,9,15,21,27,33,39] rec=[] corr=[0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38] apply=17110d02803b2caad0db70bc10a5a465" );
    ( "create/fem-singular/b8/identity/d1",
      "sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] apply=05a620f58d65ca29f90cce813d02321c" );
    ( "handle/fem-singular/b8/identity/d1",
      "dirty=20 reused=0 launches=1 tx=680 modelled=3f12dbdec5c67f3f sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] factors=e03fba8980ed67866bac2bc4bbc51ed6 apply=05a620f58d65ca29f90cce813d02321c | dirty=20 reused=0 launches=1 tx=680 modelled=3f17034cdb106def factors=e9e4e8ab46d8fa3a9c206831a20bff2d apply=cab12f31978aa48803d2b8d44b2d1971" );
    ( "create/fem-singular/b8/perturb/d1",
      "sing=[] deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] apply=dd78f8929404dc1c94aa658de5e4e1d9" );
    ( "handle/fem-singular/b8/perturb/d1",
      "dirty=20 reused=0 launches=2 tx=1156 modelled=3f2511def8092712 sing=[] deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] factors=9d71d3c10b69ad7c4c7a3c1ce5f99b65 apply=dd78f8929404dc1c94aa658de5e4e1d9 | dirty=20 reused=0 launches=2 tx=782 modelled=3f27259602ae1e6a factors=8d7503052bcc65aede344fa92c112f56 apply=f5cab5f0808a72d91c6170c9f235269f" );
    ( "create/fem-singular/b8/fail/d1",
      "singular@0" );
    ( "handle/fem-singular/b8/fail/d1",
      "singular@0" );
    ( "faults-recompute/fem-singular/b8/identity/d1",
      "injected=3 sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[2,8,14] corr=[] apply=05a620f58d65ca29f90cce813d02321c" );
    ( "faults-degrade/fem-singular/b8/identity/d1",
      "injected=3 sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,2,3,4,6,7,8,9,10,12,13,14,15,16,18,19] pert=[] rec=[] corr=[2,8,14] apply=a25071d3927d5b92cb39018e3e3174e6" );
    ( "faults-recompute/fem-singular/b8/perturb/d1",
      "injected=10 sing=[] deg=[] pert=[1,3,7,9,13,15,19] rec=[0,2,4,6,8,10,12,14,16,18] corr=[] apply=dd78f8929404dc1c94aa658de5e4e1d9" );
    ( "faults-degrade/fem-singular/b8/perturb/d1",
      "injected=10 sing=[] deg=[0,2,4,6,8,10,12,14,16,18] pert=[1,3,7,9,13,15,19] rec=[] corr=[0,2,4,6,8,10,12,14,16,18] apply=0ce0c0736729d0c14e35feed1b40897c" );
    ( "create/fem-singular/b8/identity/d2",
      "sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] apply=05a620f58d65ca29f90cce813d02321c" );
    ( "handle/fem-singular/b8/identity/d2",
      "dirty=20 reused=0 launches=1 tx=680 modelled=3f12dbdec5c67f3f sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] factors=e03fba8980ed67866bac2bc4bbc51ed6 apply=05a620f58d65ca29f90cce813d02321c | dirty=20 reused=0 launches=1 tx=680 modelled=3f17034cdb106def factors=e9e4e8ab46d8fa3a9c206831a20bff2d apply=cab12f31978aa48803d2b8d44b2d1971" );
    ( "create/fem-singular/b8/perturb/d2",
      "sing=[] deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] apply=dd78f8929404dc1c94aa658de5e4e1d9" );
    ( "handle/fem-singular/b8/perturb/d2",
      "dirty=20 reused=0 launches=2 tx=1156 modelled=3f2511def8092712 sing=[] deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] factors=9d71d3c10b69ad7c4c7a3c1ce5f99b65 apply=dd78f8929404dc1c94aa658de5e4e1d9 | dirty=20 reused=0 launches=2 tx=782 modelled=3f27259602ae1e6a factors=8d7503052bcc65aede344fa92c112f56 apply=f5cab5f0808a72d91c6170c9f235269f" );
    ( "create/fem-singular/b8/fail/d2",
      "singular@0" );
    ( "handle/fem-singular/b8/fail/d2",
      "singular@0" );
    ( "faults-recompute/fem-singular/b8/identity/d2",
      "injected=3 sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[2,8,14] corr=[] apply=05a620f58d65ca29f90cce813d02321c" );
    ( "faults-degrade/fem-singular/b8/identity/d2",
      "injected=3 sing=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] deg=[0,1,2,3,4,6,7,8,9,10,12,13,14,15,16,18,19] pert=[] rec=[] corr=[2,8,14] apply=a25071d3927d5b92cb39018e3e3174e6" );
    ( "faults-recompute/fem-singular/b8/perturb/d2",
      "injected=10 sing=[] deg=[] pert=[1,3,7,9,13,15,19] rec=[0,2,4,6,8,10,12,14,16,18] corr=[] apply=dd78f8929404dc1c94aa658de5e4e1d9" );
    ( "faults-degrade/fem-singular/b8/perturb/d2",
      "injected=10 sing=[] deg=[0,2,4,6,8,10,12,14,16,18] pert=[1,3,7,9,13,15,19] rec=[] corr=[0,2,4,6,8,10,12,14,16,18] apply=0ce0c0736729d0c14e35feed1b40897c" );
    ( "create/fem-singular/b16/identity/d1",
      "sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "handle/fem-singular/b16/identity/d1",
      "dirty=10 reused=0 launches=1 tx=1320 modelled=3f2107f00fb0e6dc sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] factors=329cdf5c44088d2f1d647662c4550f97 apply=bd5c1b8fa2e016d174eddfc8536ee893 | dirty=10 reused=0 launches=1 tx=1320 modelled=3f246082a4e5932c factors=5f10baf1c5045bf844fdca1976d5e9e9 apply=279347a2859ac0fd9fa49b2ad6368d36" );
    ( "create/fem-singular/b16/perturb/d1",
      "sing=[] deg=[] pert=[0,1,2,3,4,5,6,7,8,9] rec=[] corr=[] apply=3d3969b5c38c371f407572da0ac06b84" );
    ( "handle/fem-singular/b16/perturb/d1",
      "dirty=10 reused=0 launches=2 tx=2640 modelled=3f32c714c9aec47c sing=[] deg=[] pert=[0,1,2,3,4,5,6,7,8,9] rec=[] corr=[] factors=019cc1500902b3557aa515fb23ce4179 apply=3d3969b5c38c371f407572da0ac06b84 | dirty=10 reused=0 launches=2 tx=1452 modelled=3f34735e14491aa4 factors=fa0f17a8ce7272b2e7a740b980ec0b7b apply=d909e00eb20a9e3a02272d0f62dfcf09" );
    ( "create/fem-singular/b16/fail/d1",
      "singular@0" );
    ( "handle/fem-singular/b16/fail/d1",
      "singular@0" );
    ( "faults-recompute/fem-singular/b16/identity/d1",
      "injected=0 sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "faults-degrade/fem-singular/b16/identity/d1",
      "injected=0 sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "faults-recompute/fem-singular/b16/perturb/d1",
      "injected=5 sing=[] deg=[] pert=[1,2,3,5,6,7,8,9] rec=[0,4] corr=[] apply=3d3969b5c38c371f407572da0ac06b84" );
    ( "faults-degrade/fem-singular/b16/perturb/d1",
      "injected=5 sing=[] deg=[0,4] pert=[1,2,3,5,6,7,8,9] rec=[] corr=[0,4] apply=5cc6da2ef09c4d475963614488b9552d" );
    ( "create/fem-singular/b16/identity/d2",
      "sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "handle/fem-singular/b16/identity/d2",
      "dirty=10 reused=0 launches=1 tx=1320 modelled=3f2107f00fb0e6dc sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] factors=329cdf5c44088d2f1d647662c4550f97 apply=bd5c1b8fa2e016d174eddfc8536ee893 | dirty=10 reused=0 launches=1 tx=1320 modelled=3f246082a4e5932c factors=5f10baf1c5045bf844fdca1976d5e9e9 apply=279347a2859ac0fd9fa49b2ad6368d36" );
    ( "create/fem-singular/b16/perturb/d2",
      "sing=[] deg=[] pert=[0,1,2,3,4,5,6,7,8,9] rec=[] corr=[] apply=3d3969b5c38c371f407572da0ac06b84" );
    ( "handle/fem-singular/b16/perturb/d2",
      "dirty=10 reused=0 launches=2 tx=2640 modelled=3f32c714c9aec47c sing=[] deg=[] pert=[0,1,2,3,4,5,6,7,8,9] rec=[] corr=[] factors=019cc1500902b3557aa515fb23ce4179 apply=3d3969b5c38c371f407572da0ac06b84 | dirty=10 reused=0 launches=2 tx=1452 modelled=3f34735e14491aa4 factors=fa0f17a8ce7272b2e7a740b980ec0b7b apply=d909e00eb20a9e3a02272d0f62dfcf09" );
    ( "create/fem-singular/b16/fail/d2",
      "singular@0" );
    ( "handle/fem-singular/b16/fail/d2",
      "singular@0" );
    ( "faults-recompute/fem-singular/b16/identity/d2",
      "injected=0 sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "faults-degrade/fem-singular/b16/identity/d2",
      "injected=0 sing=[0,1,2,3,4,5,6,7,8,9] deg=[0,1,2,3,4,5,6,7,8,9] pert=[] rec=[] corr=[] apply=bd5c1b8fa2e016d174eddfc8536ee893" );
    ( "faults-recompute/fem-singular/b16/perturb/d2",
      "injected=5 sing=[] deg=[] pert=[1,2,3,5,6,7,8,9] rec=[0,4] corr=[] apply=3d3969b5c38c371f407572da0ac06b84" );
    ( "faults-degrade/fem-singular/b16/perturb/d2",
      "injected=5 sing=[] deg=[0,4] pert=[1,2,3,5,6,7,8,9] rec=[] corr=[0,4] apply=5cc6da2ef09c4d475963614488b9552d" );
    ( "batcher/uncached/d1",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f512488de9781ab blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185" );
    ( "batcher/uncached-abft/d1",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f51a0ad7be6bd7b blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185" );
    ( "batcher/cached/d1",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f512488de9781ab blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185 | problems=6 coalesced=33 fresh=18 reused=15 modelled=3f4743601e6a46c9 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00" );
    ( "batcher/cached-abft/d1",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f515276998702e1 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185 | problems=6 coalesced=33 fresh=18 reused=15 modelled=3f479787f2420148 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00 | problems=6 coalesced=33 fresh=15 reused=18 modelled=3f3ccd3f623862ca blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00" );
    ( "batcher/faults/d1",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f5526ce016da039 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[0];1:[2,5,8,11,14,17];2:[];3:[0,3,6];4:[];5:[] y=866708f3fbd09e4cb80c31e7d9bab5dc" );
    ( "batcher/uncached/d2",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f512488de9781ab blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185" );
    ( "batcher/uncached-abft/d2",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f51a0ad7be6bd7b blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185" );
    ( "batcher/cached/d2",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f512488de9781ab blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185 | problems=6 coalesced=33 fresh=18 reused=15 modelled=3f4743601e6a46c9 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00" );
    ( "batcher/cached-abft/d2",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f515276998702e1 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=9f45f53ead601ccd34c0eea4c656d185 | problems=6 coalesced=33 fresh=18 reused=15 modelled=3f479787f2420148 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00 | problems=6 coalesced=33 fresh=15 reused=18 modelled=3f3ccd3f623862ca blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[];1:[];2:[];3:[];4:[];5:[] y=a0083ee64a9e37c8aefac57f88613e00" );
    ( "batcher/faults/d2",
      "problems=6 coalesced=33 fresh=33 reused=0 modelled=3f5526ce016da039 blocks=1,20,2,8,1,1 deg=0:[];1:[0,1,3,4,6,7,9,10,12,13,15,16,18,19];2:[];3:[];4:[0];5:[] faulted=0:[0];1:[2,5,8,11,14,17];2:[];3:[0,3,6];4:[];5:[] y=866708f3fbd09e4cb80c31e7d9bab5dc" );
    ( "ilu/create/dw1024/b32/identity/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/identity/d1",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/create/dw1024/b32/perturb/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/perturb/d1",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/create/dw1024/b32/fail/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/fail/d1",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/faults/dw1024/b32/identity/d1",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/faults/dw1024/b32/perturb/d1",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/faults/dw1024/b32/fail/d1",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/create/dw1024/b32/identity/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/identity/d2",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/create/dw1024/b32/perturb/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/perturb/d2",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/create/dw1024/b32/fail/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle/dw1024/b32/fail/d2",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae6fe2025f0a96 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae6fe2025f0a96 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5f4a57a9b9af14 fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5f4a57a9b9af14 waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/faults/dw1024/b32/identity/d2",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/faults/dw1024/b32/perturb/d2",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/faults/dw1024/b32/fail/d2",
      "injected=1 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3faeb362085d7e0e waves=94/3f99beb7c198a687 apply=7e2300ec2eabbbf62bb1b1141d8dd646" );
    ( "ilu/handle-interleaved/dw1024/b32/perturb/d1",
      "dirty=32 reused=0 launches=94 tx=89576 modelled=3fae13068c694c98 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae13068c694c98 waves=94/3f99beb7c198a687 factors=7992fba875660be0a5676f786b328377 apply=7e2300ec2eabbbf62bb1b1141d8dd646 | dirty=32 reused=0 launches=94 tx=89576 modelled=3fae13068c694c98 fi=0 deg=[] pert=[] rec=[] corr=[] launches=94 modelled=3fae13068c694c98 waves=94/3f99beb7c198a687 factors=6d1bc934b830d64653623539df4f601d apply=17afa5f3523048a9bcd929f2e57ef44c | dirty=1 reused=31 launches=3 tx=2856 modelled=3f5eed7c33c3f11a fi=0 deg=[] pert=[] rec=[] corr=[] launches=3 modelled=3f5eed7c33c3f11a waves=94/3f99beb7c198a687 factors=92efbc053d43c73d2d24a876f2a439de apply=9aa15d9f570daa96ebc18ed9151a956c" );
    ( "ilu/ras/dw1024/b32/identity/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=25 modelled=3f8d8af985569040 waves=25/3f7a9607034d9494;fi=0 deg=[] pert=[] rec=[] corr=[] launches=25 modelled=3f8e53274df892a6 waves=25/3f7aace2730c0a3c;fi=0 deg=[] pert=[] rec=[] corr=[] launches=25 modelled=3f8e53274df892a6 waves=25/3f7aace2730c0a3c;fi=0 deg=[] pert=[] rec=[] corr=[] launches=25 modelled=3f8d8af985569040 waves=25/3f7a9607034d9494 apply=e824d2bea3ea514824aca698a2a2ac16" );
    ( "ilu/create/cage10/b16/identity/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/identity/d1",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/create/cage10/b16/perturb/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/perturb/d1",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/create/cage10/b16/fail/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/fail/d1",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/faults/cage10/b16/identity/d1",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/faults/cage10/b16/perturb/d1",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/faults/cage10/b16/fail/d1",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/create/cage10/b16/identity/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/identity/d2",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/create/cage10/b16/perturb/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/perturb/d2",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/create/cage10/b16/fail/d2",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle/cage10/b16/fail/d2",
      "dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=263492 modelled=3fbf8c14bde9926d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbf8c14bde9926d waves=555/3fae1314d6576abd factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f597e05479d14f7 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f597e05479d14f7 waves=555/3fae1314d6576abd factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/faults/cage10/b16/identity/d2",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/faults/cage10/b16/perturb/d2",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/faults/cage10/b16/fail/d2",
      "injected=2 fi=0 deg=[] pert=[] rec=[4] corr=[] launches=556 modelled=3fbfc0e627976294 waves=555/3fae1314d6576abd apply=562c2af5f2fa2ebc2219b3b18e85066a" );
    ( "ilu/handle-interleaved/cage10/b16/perturb/d1",
      "dirty=100 reused=0 launches=555 tx=262884 modelled=3fbd62ca12e0356d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbd62ca12e0356d waves=555/3fad1df2776e4ff0 factors=17c44d31b378364e5ae867bf035dfdaa apply=562c2af5f2fa2ebc2219b3b18e85066a | dirty=100 reused=0 launches=555 tx=262884 modelled=3fbd62ca12e0356d fi=0 deg=[] pert=[] rec=[] corr=[] launches=555 modelled=3fbd62ca12e0356d waves=555/3fad1df2776e4ff0 factors=7fbd37d1a1799bd634febed39a8bad9c apply=1a53987c925e107f1445e0ed5d5066db | dirty=1 reused=99 launches=7 tx=2412 modelled=3f58798b48dd4d87 fi=0 deg=[] pert=[] rec=[] corr=[] launches=7 modelled=3f58798b48dd4d87 waves=555/3fad1df2776e4ff0 factors=e2c4f634a2639daad9b04a114e8fab43 apply=1471fc9dc5bbb7c703a37ebbc9d48d5a" );
    ( "ilu/ras/cage10/b16/identity/d1",
      "fi=0 deg=[] pert=[] rec=[] corr=[] launches=135 modelled=3f9e8edce12ab4af waves=136/3f8d4be8f254bc99;fi=0 deg=[] pert=[] rec=[] corr=[] launches=135 modelled=3f9e97bf2b193b69 waves=135/3f8d14f4a0f835c8;fi=0 deg=[] pert=[] rec=[] corr=[] launches=135 modelled=3f9e97bf2b193b69 waves=135/3f8d14f4a0f835c8;fi=0 deg=[] pert=[] rec=[] corr=[] launches=133 modelled=3f9db70f5cf364eb waves=134/3f8cccdbbbccd6b9 apply=5be285a451df45dbde894665f668f7ef" );
    ( "ilu/create/fem-singular/b4/identity/d1",
      "fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] launches=196 modelled=3f773f329aefa80f waves=196/3f6e27e3c2782f2b apply=1b337a3d5a0cdb5783c1517fdae95099" );
    ( "ilu/handle/fem-singular/b4/identity/d1",
      "dirty=40 reused=0 launches=196 tx=3778 modelled=3f773f329aefa80f fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] launches=196 modelled=3f773f329aefa80f waves=196/3f6e27e3c2782f2b factors=15a1b0e0dada9bc8b36d4657c53c48dd apply=1b337a3d5a0cdb5783c1517fdae95099 | dirty=40 reused=0 launches=196 tx=3778 modelled=3f78b04e296d4801 fi=1 deg=[0,6,15] pert=[] rec=[] corr=[] launches=196 modelled=3f78b04e296d4801 waves=196/3f6e27e3c2782f2b factors=b541a8b1b76de43d303843120c226686 apply=526d975410eddb21e11ca3ed5a3fd456 | dirty=1 reused=39 launches=11 tx=221 modelled=3f34707d434862b5 fi=1 deg=[0,6,15] pert=[] rec=[] corr=[] launches=11 modelled=3f34707d434862b5 waves=196/3f6e27e3c2782f2b factors=d9dadd413734909d14525c9496c591f3 apply=c507c4f33e07b9aa2109a4e54d53913f" );
    ( "ilu/create/fem-singular/b4/perturb/d1",
      "fi=1 deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a0b6b3804d53b waves=196/3f6e27e3c2782f2b apply=cb5926ae159f17691f846affbfdb2568" );
    ( "ilu/handle/fem-singular/b4/perturb/d1",
      "dirty=40 reused=0 launches=210 tx=4030 modelled=3f7a0b6b3804d53b fi=1 deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a0b6b3804d53b waves=196/3f6e27e3c2782f2b factors=9862a57743f79251fe00fef471ffe096 apply=cb5926ae159f17691f846affbfdb2568 | dirty=40 reused=0 launches=199 tx=3832 modelled=3f7949c801f1d1ae fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=199 modelled=3f7949c801f1d1ae waves=196/3f6e27e3c2782f2b factors=403e6debb59584b853653bf1b9e0988d apply=51103cd5b9a0a91de975cbe59c14b89e | dirty=1 reused=39 launches=11 tx=221 modelled=3f34707d434862b5 fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=11 modelled=3f34707d434862b5 waves=196/3f6e27e3c2782f2b factors=64f2a690133354542804acff8c5627d1 apply=050b60c6c992994e21c3670b747ac7cf" );
    ( "ilu/create/fem-singular/b4/fail/d1",
      "singular@0" );
    ( "ilu/handle/fem-singular/b4/fail/d1",
      "singular@0" );
    ( "ilu/faults/fem-singular/b4/identity/d1",
      "injected=1 fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[1] corr=[] launches=197 modelled=3f77ac7b3d9a807b waves=196/3f6e27e3c2782f2b apply=1b337a3d5a0cdb5783c1517fdae95099" );
    ( "ilu/faults/fem-singular/b4/perturb/d1",
      "injected=1 fi=1 deg=[0] pert=[3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a5deb3f5845e6 waves=196/3f6e27e3c2782f2b apply=6646c279ff22e7d9f1629aff79b1c015" );
    ( "ilu/faults/fem-singular/b4/fail/d1",
      "singular@0" );
    ( "ilu/create/fem-singular/b4/identity/d2",
      "fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] launches=196 modelled=3f773f329aefa80f waves=196/3f6e27e3c2782f2b apply=1b337a3d5a0cdb5783c1517fdae95099" );
    ( "ilu/handle/fem-singular/b4/identity/d2",
      "dirty=40 reused=0 launches=196 tx=3778 modelled=3f773f329aefa80f fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[] corr=[] launches=196 modelled=3f773f329aefa80f waves=196/3f6e27e3c2782f2b factors=15a1b0e0dada9bc8b36d4657c53c48dd apply=1b337a3d5a0cdb5783c1517fdae95099 | dirty=40 reused=0 launches=196 tx=3778 modelled=3f78b04e296d4801 fi=1 deg=[0,6,15] pert=[] rec=[] corr=[] launches=196 modelled=3f78b04e296d4801 waves=196/3f6e27e3c2782f2b factors=b541a8b1b76de43d303843120c226686 apply=526d975410eddb21e11ca3ed5a3fd456 | dirty=1 reused=39 launches=11 tx=221 modelled=3f34707d434862b5 fi=1 deg=[0,6,15] pert=[] rec=[] corr=[] launches=11 modelled=3f34707d434862b5 waves=196/3f6e27e3c2782f2b factors=d9dadd413734909d14525c9496c591f3 apply=c507c4f33e07b9aa2109a4e54d53913f" );
    ( "ilu/create/fem-singular/b4/perturb/d2",
      "fi=1 deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a0b6b3804d53b waves=196/3f6e27e3c2782f2b apply=cb5926ae159f17691f846affbfdb2568" );
    ( "ilu/handle/fem-singular/b4/perturb/d2",
      "dirty=40 reused=0 launches=210 tx=4030 modelled=3f7a0b6b3804d53b fi=1 deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a0b6b3804d53b waves=196/3f6e27e3c2782f2b factors=9862a57743f79251fe00fef471ffe096 apply=cb5926ae159f17691f846affbfdb2568 | dirty=40 reused=0 launches=199 tx=3832 modelled=3f7949c801f1d1ae fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=199 modelled=3f7949c801f1d1ae waves=196/3f6e27e3c2782f2b factors=403e6debb59584b853653bf1b9e0988d apply=51103cd5b9a0a91de975cbe59c14b89e | dirty=1 reused=39 launches=11 tx=221 modelled=3f34707d434862b5 fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=11 modelled=3f34707d434862b5 waves=196/3f6e27e3c2782f2b factors=64f2a690133354542804acff8c5627d1 apply=050b60c6c992994e21c3670b747ac7cf" );
    ( "ilu/create/fem-singular/b4/fail/d2",
      "singular@0" );
    ( "ilu/handle/fem-singular/b4/fail/d2",
      "singular@0" );
    ( "ilu/faults/fem-singular/b4/identity/d2",
      "injected=1 fi=1 deg=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] pert=[] rec=[1] corr=[] launches=197 modelled=3f77ac7b3d9a807b waves=196/3f6e27e3c2782f2b apply=1b337a3d5a0cdb5783c1517fdae95099" );
    ( "ilu/faults/fem-singular/b4/perturb/d2",
      "injected=1 fi=1 deg=[0] pert=[3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7a5deb3f5845e6 waves=196/3f6e27e3c2782f2b apply=6646c279ff22e7d9f1629aff79b1c015" );
    ( "ilu/faults/fem-singular/b4/fail/d2",
      "singular@0" );
    ( "ilu/handle-interleaved/fem-singular/b4/perturb/d1",
      "dirty=40 reused=0 launches=210 tx=4030 modelled=3f7879468205ef34 fi=1 deg=[] pert=[0,3,6,9,12,15,18,21,24,27,30,33,36,39] rec=[] corr=[] launches=210 modelled=3f7879468205ef34 waves=196/3f6e27e3c2782f2b factors=9862a57743f79251fe00fef471ffe096 apply=cb5926ae159f17691f846affbfdb2568 | dirty=40 reused=0 launches=199 tx=3832 modelled=3f77dafebccd89aa fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=199 modelled=3f77dafebccd89aa waves=196/3f6e27e3c2782f2b factors=403e6debb59584b853653bf1b9e0988d apply=51103cd5b9a0a91de975cbe59c14b89e | dirty=1 reused=39 launches=11 tx=221 modelled=3f332ac64aee5621 fi=1 deg=[] pert=[0,6,15] rec=[] corr=[] launches=11 modelled=3f332ac64aee5621 waves=196/3f6e27e3c2782f2b factors=64f2a690133354542804acff8c5627d1 apply=050b60c6c992994e21c3670b747ac7cf" );
    ( "ilu/ras/fem-singular/b4/identity/d1",
      "fi=1 deg=[0,3,6,9] pert=[] rec=[] corr=[] launches=52 modelled=3f590dd9ef938031 waves=52/3f4fcdfb63a2c928;fi=2 deg=[1,4,7,10,13] pert=[] rec=[] corr=[] launches=62 modelled=3f5da7fb6349842e waves=62/3f52fb7a70a4aaee;fi=1 deg=[0,3,6,9,12] pert=[] rec=[] corr=[] launches=62 modelled=3f5da7fb6349842f waves=62/3f52fb7a70a4aaee;fi=3 deg=[2,5,8,11] pert=[] rec=[] corr=[] launches=54 modelled=3f59ea8c81bc4f5a waves=54/3f508bf96399f4f3 apply=7b779ab9fcb85144eafb29b2549f823b" );
    ( "ilu/create/fem-singular/b8/identity/d1",
      "fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b3bd1710c4b87 waves=94/3f6eac1c32e35d9b apply=9b75d26dac85118bb57f732ebfd356ac" );
    ( "ilu/handle/fem-singular/b8/identity/d1",
      "dirty=20 reused=0 launches=94 tx=7774 modelled=3f7b3bd1710c4b87 fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b3bd1710c4b87 waves=94/3f6eac1c32e35d9b factors=7ae455f13b8535bb5719dea36a03648e apply=9b75d26dac85118bb57f732ebfd356ac | dirty=20 reused=0 launches=94 tx=7774 modelled=3f7d1b6ac0351937 fi=8 deg=[7] pert=[] rec=[] corr=[] launches=94 modelled=3f7d1b6ac0351937 waves=94/3f6eac1c32e35d9b factors=83923b925ab5713ac3843b81a119796b apply=8008993286440ad20f88d757cce85b4a | dirty=1 reused=19 launches=9 tx=668 modelled=3f45d0daac20c3ad fi=8 deg=[7] pert=[] rec=[] corr=[] launches=9 modelled=3f45d0daac20c3ad waves=94/3f6eac1c32e35d9b factors=b5c2e0b7429bdb569ce145dc3a9c0675 apply=a6b657d5fa09e29aab19368fb634d83f" );
    ( "ilu/create/fem-singular/b8/perturb/d1",
      "fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f802733fc59ccae waves=94/3f6eac1c32e35d9b apply=8f2f8723d703a36d33132b698d645514" );
    ( "ilu/handle/fem-singular/b8/perturb/d1",
      "dirty=20 reused=0 launches=108 tx=8726 modelled=3f802733fc59ccae fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f802733fc59ccae waves=94/3f6eac1c32e35d9b factors=bd87a76dd5872894e85f965561aad9f1 apply=8f2f8723d703a36d33132b698d645514 | dirty=20 reused=0 launches=95 tx=7842 modelled=3f7d788a3cde4872 fi=8 deg=[] pert=[7] rec=[] corr=[] launches=95 modelled=3f7d788a3cde4872 waves=94/3f6eac1c32e35d9b factors=df83744134c90bbbcaa99cca320106e7 apply=83a6868d58b8db2413b74dd4c17b1715 | dirty=1 reused=19 launches=9 tx=668 modelled=3f45d0daac20c3ad fi=8 deg=[] pert=[7] rec=[] corr=[] launches=9 modelled=3f45d0daac20c3ad waves=94/3f6eac1c32e35d9b factors=efeb1c50c9afaf2072c2279a1ec7d6e3 apply=e3b905497d7cd1bae23cd06d8cb1b3e0" );
    ( "ilu/create/fem-singular/b8/fail/d1",
      "singular@0" );
    ( "ilu/handle/fem-singular/b8/fail/d1",
      "singular@0" );
    ( "ilu/faults/fem-singular/b8/identity/d1",
      "injected=1 fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b656ce274fdb0 waves=94/3f6eac1c32e35d9b apply=9b75d26dac85118bb57f732ebfd356ac" );
    ( "ilu/faults/fem-singular/b8/perturb/d1",
      "injected=1 fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f805821b78d8086 waves=94/3f6eac1c32e35d9b apply=8f2f8723d703a36d33132b698d645514" );
    ( "ilu/faults/fem-singular/b8/fail/d1",
      "singular@0" );
    ( "ilu/create/fem-singular/b8/identity/d2",
      "fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b3bd1710c4b87 waves=94/3f6eac1c32e35d9b apply=9b75d26dac85118bb57f732ebfd356ac" );
    ( "ilu/handle/fem-singular/b8/identity/d2",
      "dirty=20 reused=0 launches=94 tx=7774 modelled=3f7b3bd1710c4b87 fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b3bd1710c4b87 waves=94/3f6eac1c32e35d9b factors=7ae455f13b8535bb5719dea36a03648e apply=9b75d26dac85118bb57f732ebfd356ac | dirty=20 reused=0 launches=94 tx=7774 modelled=3f7d1b6ac0351937 fi=8 deg=[7] pert=[] rec=[] corr=[] launches=94 modelled=3f7d1b6ac0351937 waves=94/3f6eac1c32e35d9b factors=83923b925ab5713ac3843b81a119796b apply=8008993286440ad20f88d757cce85b4a | dirty=1 reused=19 launches=9 tx=668 modelled=3f45d0daac20c3ad fi=8 deg=[7] pert=[] rec=[] corr=[] launches=9 modelled=3f45d0daac20c3ad waves=94/3f6eac1c32e35d9b factors=b5c2e0b7429bdb569ce145dc3a9c0675 apply=a6b657d5fa09e29aab19368fb634d83f" );
    ( "ilu/create/fem-singular/b8/perturb/d2",
      "fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f802733fc59ccae waves=94/3f6eac1c32e35d9b apply=8f2f8723d703a36d33132b698d645514" );
    ( "ilu/handle/fem-singular/b8/perturb/d2",
      "dirty=20 reused=0 launches=108 tx=8726 modelled=3f802733fc59ccae fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f802733fc59ccae waves=94/3f6eac1c32e35d9b factors=bd87a76dd5872894e85f965561aad9f1 apply=8f2f8723d703a36d33132b698d645514 | dirty=20 reused=0 launches=95 tx=7842 modelled=3f7d788a3cde4872 fi=8 deg=[] pert=[7] rec=[] corr=[] launches=95 modelled=3f7d788a3cde4872 waves=94/3f6eac1c32e35d9b factors=df83744134c90bbbcaa99cca320106e7 apply=83a6868d58b8db2413b74dd4c17b1715 | dirty=1 reused=19 launches=9 tx=668 modelled=3f45d0daac20c3ad fi=8 deg=[] pert=[7] rec=[] corr=[] launches=9 modelled=3f45d0daac20c3ad waves=94/3f6eac1c32e35d9b factors=efeb1c50c9afaf2072c2279a1ec7d6e3 apply=e3b905497d7cd1bae23cd06d8cb1b3e0" );
    ( "ilu/create/fem-singular/b8/fail/d2",
      "singular@0" );
    ( "ilu/handle/fem-singular/b8/fail/d2",
      "singular@0" );
    ( "ilu/faults/fem-singular/b8/identity/d2",
      "injected=1 fi=1 deg=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] pert=[] rec=[] corr=[] launches=94 modelled=3f7b656ce274fdb0 waves=94/3f6eac1c32e35d9b apply=9b75d26dac85118bb57f732ebfd356ac" );
    ( "ilu/faults/fem-singular/b8/perturb/d2",
      "injected=1 fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f805821b78d8086 waves=94/3f6eac1c32e35d9b apply=8f2f8723d703a36d33132b698d645514" );
    ( "ilu/faults/fem-singular/b8/fail/d2",
      "singular@0" );
    ( "ilu/handle-interleaved/fem-singular/b8/perturb/d1",
      "dirty=20 reused=0 launches=108 tx=8726 modelled=3f7e19e1ae30fa31 fi=1 deg=[] pert=[0,1,3,4,6,7,9,10,12,13,15,16,18,19] rec=[] corr=[] launches=108 modelled=3f7e19e1ae30fa31 waves=94/3f6eac1c32e35d9b factors=bd87a76dd5872894e85f965561aad9f1 apply=8f2f8723d703a36d33132b698d645514 | dirty=20 reused=0 launches=95 tx=7842 modelled=3f7b92f1b039578e fi=8 deg=[] pert=[7] rec=[] corr=[] launches=95 modelled=3f7b92f1b039578e waves=94/3f6eac1c32e35d9b factors=df83744134c90bbbcaa99cca320106e7 apply=83a6868d58b8db2413b74dd4c17b1715 | dirty=1 reused=19 launches=9 tx=668 modelled=3f44e96ce0b85c6c fi=8 deg=[] pert=[7] rec=[] corr=[] launches=9 modelled=3f44e96ce0b85c6c waves=94/3f6eac1c32e35d9b factors=efeb1c50c9afaf2072c2279a1ec7d6e3 apply=e3b905497d7cd1bae23cd06d8cb1b3e0" );
    ( "ilu/ras/fem-singular/b8/identity/d1",
      "fi=1 deg=[0,1,3,4] pert=[] rec=[] corr=[] launches=24 modelled=3f5bcda98b5a830d waves=24/3f4ed19a07c8ae30;fi=1 deg=[0,2,3,5,6] pert=[] rec=[] corr=[] launches=31 modelled=3f61fa045b38e5b4 waves=31/3f541dbe29db0663;fi=1 deg=[0,1,3,4,6] pert=[] rec=[] corr=[] launches=27 modelled=3f5eeb2346de4aad waves=27/3f5143c6a2c4daaf;fi=2 deg=[1,2,4,5] pert=[] rec=[] corr=[] launches=22 modelled=3f5970adb27f99d3 waves=22/3f4bf7a280b2827c apply=6cf832a42dbc7f5ce9e6b935c1af997b" );
  ]

(* ---------------------------------------------------------------- *)
(* One contract in both precisions                                   *)

(* [create ~variant:Lu], [handle] and a one-problem [Batcher.run] are
   three entry points to one setup: their applications agree bit for bit
   in double and in single precision. *)
let precision_contract (name, prec) () =
  List.iter
    (fun m ->
      let a = suite m in
      let r = rhs a.Csr.n_rows in
      let created, _ = Bj.create ~prec ~variant:Bj.Lu ~max_block_size:32 a in
      let h = Bj.handle ~prec ~max_block_size:32 a in
      let report =
        Batcher.run ~prec
          [| { Batcher.a; rhs = r; max_block_size = 32; precond = Batcher.Jacobi } |]
      in
      let bits v = Array.map Int64.bits_of_float v in
      let y_create = bits (created.Preconditioner.apply r) in
      Alcotest.(check (array int64))
        (Printf.sprintf "%s %s: handle = create" m name)
        y_create
        (bits ((Bj.precond h).Preconditioner.apply r));
      Alcotest.(check (array int64))
        (Printf.sprintf "%s %s: batcher = create" m name)
        y_create
        (bits report.Batcher.outcomes.(0).Batcher.y))
    [ "dw1024"; "bcsstk38"; "cage10" ]

let () =
  if Array.exists (( = ) "--print") Sys.argv then begin
    print_string "let recorded : (string * string) list =\n  [\n";
    List.iter
      (fun (name, run) -> Printf.printf "    ( %S,\n      %S );\n" name (run ()))
      (cases ());
    print_string "  ]\n"
  end
  else
    Alcotest.run "bj-engine"
      [
        ( "golden",
          List.map
            (fun (name, run) ->
              Alcotest.test_case name `Quick (fun () ->
                  match List.assoc_opt name recorded with
                  | None -> Alcotest.failf "no recorded line for %s" name
                  | Some expected -> Alcotest.(check string) name expected (run ())))
            (cases ()) );
        ( "precision",
          List.map
            (fun (name, prec) ->
              Alcotest.test_case name `Quick (precision_contract (name, prec)))
            [ ("double", Precision.Double); ("single", Precision.Single) ] );
      ]
