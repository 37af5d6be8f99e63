(* Standalone layer probes, run on each workload's own inputs.  Every probe
   reports its work count next to its time, so ratios have a base. *)

open Vblu_sparse
open Vblu_core
module Launch = Vblu_simt.Launch
module Counter = Vblu_simt.Counter
module Pool = Vblu_par.Pool
module Supervariable = Vblu_precond.Supervariable

let m = Metric.v

(* Repeat [f] until [budget] seconds of wall time have gone by (at least
   once); returns the median seconds per call and the number of calls. *)
let timed_repeat ~budget f =
  let t0 = Clock.now () in
  let samples = ref [] in
  while !samples = [] || Clock.now () -. t0 < budget do
    let (), dt = Clock.time f in
    samples := dt :: !samples
  done;
  (Stats.median (Array.of_list !samples), List.length !samples)

(* One [Csr.spmv] over every matrix in turn.  Bytes are the minimum a
   CSR SpMV moves in OCaml's representation: 8-byte values and indices,
   the row pointers, one read of x and one write of y. *)
let spmv ~budget (mats : Csr.t array) =
  let xs = Array.map (fun a -> Array.make a.Csr.n_cols 1.0) mats in
  let dt, calls =
    timed_repeat ~budget (fun () ->
        Array.iteri (fun i a -> ignore (Csr.spmv a xs.(i))) mats)
  in
  let k = float_of_int (Array.length mats) in
  let nnz = Array.fold_left (fun acc a -> acc + Csr.nnz a) 0 mats in
  let bytes =
    Array.fold_left
      (fun acc a ->
        acc + (16 * Csr.nnz a) + (8 * (a.Csr.n_rows + 1)) + (8 * a.Csr.n_cols)
        + (8 * a.Csr.n_rows))
      0 mats
  in
  [
    m ~samples:calls "sparse.spmv_us" (1e6 *. dt /. k);
    m "sparse.spmv_nnz" (float_of_int nnz /. k);
    m "sparse.spmv_bytes" (float_of_int bytes /. k);
  ]

(* Supervariable blocking of every matrix at [bound]; returns the
   blockings for the batched probes. *)
let blocking ~budget ~bound (mats : Csr.t array) =
  let dt, calls =
    timed_repeat ~budget (fun () ->
        Array.iter
          (fun a -> ignore (Supervariable.blocking ~max_block_size:bound a))
          mats)
  in
  let bl = Array.map (Supervariable.blocking ~max_block_size:bound) mats in
  let blocks =
    Array.fold_left (fun acc b -> acc + Array.length b.Supervariable.sizes) 0 bl
  in
  ( bl,
    [
      m ~samples:calls "precond.blocking_us"
        (1e6 *. dt /. float_of_int (Array.length mats));
      m "precond.blocks" (float_of_int blocks);
    ] )

let diagonal_blocks (mats : Csr.t array) bl =
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i a ->
            let b = bl.(i) in
            Array.mapi
              (fun j row_start ->
                Csr.extract_block a ~row_start ~size:b.Supervariable.sizes.(j))
              b.Supervariable.starts)
          mats))

(* One variable-size batched LU launch and one batched TRSV launch over
   [blocks] (the workload's own diagonal blocks). *)
let batched ~budget ~pool ~seed blocks =
  let batch = Batch.of_matrices blocks in
  let problems = float_of_int (Batch.count batch) in
  let lu = ref None in
  let lu_dt, lu_calls =
    timed_repeat ~budget (fun () -> lu := Some (Batched_lu.factor ~pool batch))
  in
  let lu = Option.get !lu in
  let st = Random.State.make [| seed; 0x7259 |] in
  let rhs = Batch.vec_random ~state:st batch.Batch.sizes in
  let tr = ref None in
  let tr_dt, tr_calls =
    timed_repeat ~budget (fun () ->
        tr :=
          Some
            (Batched_trsv.solve ~pool ~factors:lu.Batched_lu.factors
               ~pivots:lu.Batched_lu.pivots rhs))
  in
  let tr = Option.get !tr in
  let lu_s = lu.Batched_lu.stats and tr_s = tr.Batched_trsv.stats in
  let tx s = float_of_int (Counter.transactions s.Launch.total) in
  [
    m ~samples:lu_calls "core.getrf_us" (1e6 *. lu_dt);
    m "core.getrf_problems" problems;
    m ~samples:lu_calls "core.getrf_problems_per_s"
      (problems /. lu_dt);
    m "core.getrf_tx" (tx lu_s);
    m "core.getrf_modelled_gflops"
      lu_s.Launch.gflops;
    m ~samples:tr_calls "core.trsv_us" (1e6 *. tr_dt);
    m "core.trsv_tx" (tx tr_s);
    m "core.trsv_modelled_gflops"
      tr_s.Launch.gflops;
  ]

(* Cost of one empty [Pool.parallel_for] at 2 domains: the per-launch
   fan-out every pooled batched kernel pays. *)
let fanout ~budget =
  let pool = Pool.create ~num_domains:2 () in
  let dt, calls =
    timed_repeat ~budget (fun () -> Pool.parallel_for pool ~lo:0 ~hi:2 ignore)
  in
  [ m ~samples:calls "par.fanout_us" (1e6 *. dt) ]

(* Launch-cache lookups between two snapshots. *)
type cache = { hits : int; misses : int; direct : int }

let cache_snapshot () =
  let hits, misses = Launch.Cache.stats () in
  { hits; misses; direct = Launch.Cache.direct_hits () }

let cache_metrics ~before ~after =
  let hits = after.hits - before.hits and misses = after.misses - before.misses in
  let lookups = float_of_int (max 1 (hits + misses)) in
  [
    m ~samples:(hits + misses) "simt.cache_hit_frac" (float_of_int hits /. lookups);
    m ~samples:(hits + misses) "simt.direct_frac"
      (float_of_int (after.direct - before.direct) /. lookups);
  ]
