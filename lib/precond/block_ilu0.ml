open Vblu_smallblas
open Vblu_sparse
open Vblu_core
open Vblu_fault
module Launch = Vblu_simt.Launch
module Counter = Vblu_simt.Counter
module Ctx = Vblu_obs.Ctx

exception Singular_block of { block : int }

type wave = {
  sweep : string;
  level : int;
  kernel : string;
  problems : int;
  transactions : int;
  modelled_us : float;
}

type apply_stats = { waves : wave array; modelled_seconds : float }

let wave_of sweep level kernel problems (ls : Launch.stats) =
  {
    sweep;
    level;
    kernel;
    problems;
    transactions = Counter.transactions ls.Launch.total;
    modelled_us = ls.Launch.time_us;
  }

type info = {
  blocking : Supervariable.blocking;
  lower : Levels.schedule;
  upper : Levels.schedule;
  factor_info : int;
  degraded_blocks : int list;
  perturbed_blocks : int list;
  recovered_blocks : int list;
  corrupt_blocks : int list;
  setup_launches : int;
  setup_modelled_seconds : float;
  last_apply : apply_stats option ref;
}

(* Position of [j] in a sorted dependency array, -1 if absent. *)
let find_dep deps j =
  let lo = ref 0 and hi = ref (Array.length deps - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if deps.(mid) = j then res := mid
    else if deps.(mid) < j then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* The entries of [a] satisfying [p], in order. *)
let filter p a = Array.of_list (List.filter p (Array.to_list a))

(* Identity fallback factors: TRSV through them is a bitwise copy of the
   right-hand side and the right division a bitwise copy of the coupling
   block, so a degraded block is simply not preconditioned — the block
   generalization of patching a zero scalar pivot with [1.0]. *)
let identity_factors s = (Matrix.identity s, Array.init s (fun r -> r))

(* One level-scheduled GEMM wave of the apply sweeps.  [g_a] holds the
   coupling blocks (constant after setup); [g_b]/[g_c] are carriers whose
   column 0 is refilled from the iterate on every application.  Problems
   are padded square to [max (s_i, s_src)]: the padding stays zero, and a
   multiply-then-add chain with a zero operand leaves the live entries
   bit-exact, so padded lanes never perturb the result. *)
type gstep = {
  g_rows : int array;
  g_srcs : int array;
  g_a : Batch.t;
  g_b : Batch.t;
  g_c : Batch.t;
}

type tstep = {
  t_rows : int array;
  t_factors : Batch.t;
  t_pivots : int array array;
  t_rhs : Batch.vec;
}

(* Apply staging, swapped wholesale by a refresh: the live apply closure
   reads these fields on every call, so the [Preconditioner.t] stays
   valid across updates. *)
type staging = {
  mutable forward : gstep array array;
  mutable backward : (gstep array * tstep) array;
}

(* Everything a factorization needs to be re-run incrementally: the
   kernel configuration, the pattern-derived schedules (invariant across
   refreshes), the dense working arenas, and the per-row factor
   storage. *)
type state = {
  c_pool : Vblu_par.Pool.t option;
  c_prec : Precision.t;
  c_layout : Batch.layout;
  c_policy : Block_jacobi.breakdown_policy;
  c_faults : Fault.Plan.t option;
  c_abft : bool;
  c_obs : Ctx.t option;
  s_n : int;
  s_blk : Supervariable.blocking;
  s_row_block : int array;
  s_lower : Levels.schedule;
  s_upper : Levels.schedule;
  s_row_ptr : int array;  (* pattern fingerprint, frozen at build *)
  s_col_idx : int array;
  s_values : float array;  (* CSR values as of the last refresh *)
  s_dmat : Matrix.t array;
  s_lmat : Matrix.t array array;
  s_umat : Matrix.t array array;
  (* Factor storage: normal factors feed the backward-sweep TRSV waves,
     transposed factors feed the right divisions [L_ik = A_ik·A_kk⁻¹]
     (solved as [L_ikᵀ = lu(A_kkᵀ) \ A_ikᵀ]). *)
  s_flu : Matrix.t array;
  s_fpiv : int array array;
  s_tlu : Matrix.t array;
  s_tpiv : int array array;
  s_outcome : Block_jacobi.outcome array;
      (* per block row, so a partial refresh rewrites just the
         re-eliminated rows and the info lists stay reconstructible *)
  s_breakdown : bool array;  (* rows whose LU launch flagged a breakdown *)
  s_staging : staging;
  s_last_apply : apply_stats option ref;
}

let init_state ~pool ~prec ~layout ~policy ~faults ~abft ~obs ~blk (a : Csr.t) =
  let n, _ = Csr.dims a in
  let starts = blk.Supervariable.starts and sizes = blk.Supervariable.sizes in
  let k = Array.length starts in
  let lower = Levels.schedule Levels.Lower ~starts ~sizes a in
  let upper = Levels.schedule Levels.Upper ~starts ~sizes a in
  let row_block = Array.make n 0 in
  for i = 0 to k - 1 do
    for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
      row_block.(r) <- i
    done
  done;
  {
    c_pool = pool;
    c_prec = prec;
    c_layout = layout;
    c_policy = policy;
    c_faults = faults;
    c_abft = abft;
    c_obs = obs;
    s_n = n;
    s_blk = blk;
    s_row_block = row_block;
    s_lower = lower;
    s_upper = upper;
    s_row_ptr = Array.copy a.Csr.row_ptr;
    s_col_idx = Array.copy a.Csr.col_idx;
    s_values = Array.copy a.Csr.values;
    s_dmat = Array.init k (fun i -> Matrix.identity sizes.(i));
    s_lmat = Array.make k [||];
    s_umat = Array.make k [||];
    s_flu = Array.make k (Matrix.identity 1);
    s_fpiv = Array.make k [||];
    s_tlu = Array.make k (Matrix.identity 1);
    s_tpiv = Array.make k [||];
    s_outcome = Array.make k Block_jacobi.Healthy;
    s_breakdown = Array.make k false;
    s_staging = { forward = [||]; backward = [||] };
    s_last_apply = ref None;
  }

(* Refill the dense working copies of the masked block rows from [a] —
   the "re-extract values into the existing arenas" step.  [lmat.(i)] /
   [umat.(i)] run parallel to [ldeps.(i)] / [udeps.(i)].  Unmasked rows
   keep their post-elimination state, which is exactly what a later
   partial elimination reads (the upper blocks and transposed factors of
   finalized dependency rows). *)
let fill_state st (a : Csr.t) (mask : bool array) =
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps and udeps = st.s_upper.Levels.deps in
  let k = Array.length starts in
  for i = 0 to k - 1 do
    if mask.(i) then begin
      st.s_dmat.(i) <-
        Csr.extract_block a ~row_start:starts.(i) ~size:sizes.(i);
      st.s_lmat.(i) <-
        Array.map (fun kb -> Matrix.create sizes.(i) sizes.(kb)) ldeps.(i);
      st.s_umat.(i) <-
        Array.map (fun j -> Matrix.create sizes.(i) sizes.(j)) udeps.(i);
      for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
        for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
          let c = a.Csr.col_idx.(p) in
          let j = st.s_row_block.(c) in
          if j < i then
            Matrix.set
              st.s_lmat.(i).(find_dep ldeps.(i) j)
              (r - starts.(i))
              (c - starts.(j))
              a.Csr.values.(p)
          else if j > i then
            Matrix.set
              st.s_umat.(i).(find_dep udeps.(i) j)
              (r - starts.(i))
              (c - starts.(j))
              a.Csr.values.(p)
        done
      done
    end
  done

(* Elimination restricted to the masked block rows: one pass over the
   lower-DAG level sets.  Rows of a wave only write their own block row
   and read block rows finalized by strictly earlier waves, so each
   dependency rank [t] is one batched TRSM wave (the right divisions)
   plus one batched GEMM wave (the pattern-restricted trailing updates),
   and the wave closes with one batched LU launch over its eliminated
   diagonals — no scalar factorization anywhere.  Waves with no masked
   rows are skipped outright, which is where a partial refresh saves its
   launches.  Every launch is noted in [tally]. *)
let eliminate st tally (mask : bool array) =
  let pool = st.c_pool
  and prec = st.c_prec
  and layout = st.c_layout
  and abft = st.c_abft
  and obs = st.c_obs in
  let sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps and udeps = st.s_upper.Levels.deps in
  let dmat = st.s_dmat and lmat = st.s_lmat and umat = st.s_umat in
  let note = Block_jacobi.note tally in
  let store i (fn, pn) (ft, pt) =
    st.s_flu.(i) <- fn;
    st.s_fpiv.(i) <- pn;
    st.s_tlu.(i) <- ft;
    st.s_tpiv.(i) <- pt
  in
  let degrade i = store i (identity_factors sizes.(i)) (identity_factors sizes.(i)) in
  (* One batched LU launch over [ms] and their transposes side by side:
     per problem [`Ok store] ([store i] installs both factor pairs in block
     row [i]), [`Broken] if either factorization broke down, [`Faulted] if
     ABFT flagged either. *)
  let dual_lu ms =
    let nw = Array.length ms in
    let lu =
      Batched_lu.factor ?pool ~prec ?faults:st.c_faults ~abft ?obs
        (Batch.of_matrices ~layout (Array.append ms (Array.map Matrix.transpose ms)))
    in
    note lu.Batched_lu.stats;
    let factors q = (Batch.get_matrix lu.Batched_lu.factors q, lu.Batched_lu.pivots.(q)) in
    let failed q = abft && lu.Batched_lu.verdicts.(q) = Fault.Failed in
    Array.init nw (fun p ->
        if lu.Batched_lu.info.(p) <> 0 || lu.Batched_lu.info.(nw + p) <> 0 then `Broken
        else if failed p || failed (nw + p) then `Faulted
        else `Ok (fun i -> store i (factors p) (factors (nw + p))))
  in
  Array.iter
    (fun all_rows ->
      let wave_rows = filter (fun i -> mask.(i)) all_rows in
      if Array.length wave_rows > 0 then begin
        Array.iter
          (fun i ->
            st.s_outcome.(i) <- Block_jacobi.Healthy;
            st.s_breakdown.(i) <- false)
          wave_rows;
        let max_t =
          Array.fold_left
            (fun m i -> max m (Array.length ldeps.(i)))
            0 wave_rows
        in
        for t = 0 to max_t - 1 do
          let sub = filter (fun i -> Array.length ldeps.(i) > t) wave_rows in
          let srcs = Array.map (fun i -> ldeps.(i).(t)) sub in
          let vsz = Array.map (fun kb -> sizes.(kb)) srcs in
          let fb =
            Batch.of_matrices ~layout
              (Array.map (fun kb -> st.s_tlu.(kb)) srcs)
          in
          let piv = Array.map (fun kb -> st.s_tpiv.(kb)) srcs in
          (* GETRS wants a uniform rhs count: pad short problems with
             zero vectors (their solves are exact no-ops). *)
          let nrhs = Array.fold_left (fun m i -> max m sizes.(i)) 1 sub in
          let rhs_sets =
            Array.init nrhs (fun r ->
                let v = Batch.vec_create ~layout vsz in
                Array.iteri
                  (fun p i ->
                    if r < sizes.(i) then begin
                      let m = lmat.(i).(t) in
                      for e = 0 to vsz.(p) - 1 do
                        v.Batch.vvalues.(Batch.vec_index v p e) <-
                          Matrix.get m r e
                      done
                    end)
                  sub;
                v)
          in
          let tr =
            Batched_trsm.solve ?pool ~prec ?obs ~factors:fb ~pivots:piv
              rhs_sets
          in
          note tr.Batched_trsm.stats;
          Array.iteri
            (fun p i ->
              let m = lmat.(i).(t) in
              for r = 0 to sizes.(i) - 1 do
                let sol = tr.Batched_trsm.solutions.(r) in
                for e = 0 to vsz.(p) - 1 do
                  Matrix.set m r e
                    sol.Batch.vvalues.(Batch.vec_index sol p e)
                done
              done)
            sub;
          (* Trailing updates A_ij -= L_ik·A_kj over the intersection
             of block row k's upper pattern with block row i's
             pattern; distinct (i, j) targets, so one GEMM wave with
             no write conflicts. *)
          let gp = ref [] in
          Array.iteri
            (fun p i ->
              let kb = srcs.(p) in
              let l = lmat.(i).(t) in
              Array.iteri
                (fun tj j ->
                  let target =
                    if j = i then Some dmat.(i)
                    else if j < i then begin
                      let ti = find_dep ldeps.(i) j in
                      if ti >= 0 then Some lmat.(i).(ti) else None
                    end
                    else begin
                      let ti = find_dep udeps.(i) j in
                      if ti >= 0 then Some umat.(i).(ti) else None
                    end
                  in
                  match target with
                  | Some tgt ->
                    gp :=
                      ( tgt,
                        l,
                        umat.(kb).(tj),
                        sizes.(i),
                        sizes.(kb),
                        sizes.(j) )
                      :: !gp
                  | None -> ())
                udeps.(kb))
            sub;
          let gp = Array.of_list (List.rev !gp) in
          if Array.length gp > 0 then begin
            let psz =
              Array.map (fun (_, _, _, si, sk, sj) -> max si (max sk sj)) gp
            in
            let ab = Batch.create ~layout psz in
            let bb = Batch.create ~layout psz in
            let cb = Batch.create ~layout psz in
            Array.iteri
              (fun p (tgt, l, u, si, sk, sj) ->
                for r = 0 to si - 1 do
                  for c = 0 to sk - 1 do
                    ab.Batch.values.(Batch.index ab p r c) <- Matrix.get l r c
                  done
                done;
                for r = 0 to sk - 1 do
                  for c = 0 to sj - 1 do
                    bb.Batch.values.(Batch.index bb p r c) <- Matrix.get u r c
                  done
                done;
                for r = 0 to si - 1 do
                  for c = 0 to sj - 1 do
                    cb.Batch.values.(Batch.index cb p r c) <-
                      Matrix.get tgt r c
                  done
                done)
              gp;
            let res =
              Batched_gemm.multiply ?pool ~prec ?obs ~alpha:(-1.0) ~beta:1.0
                ~a:ab ~b:bb ~c:cb ()
            in
            note res.Batched_gemm.stats;
            let pr = res.Batched_gemm.products in
            Array.iteri
              (fun p (tgt, _, _, si, _, sj) ->
                for r = 0 to si - 1 do
                  for c = 0 to sj - 1 do
                    Matrix.set tgt r c pr.Batch.values.(Batch.index pr p r c)
                  done
                done)
              gp
          end
        done;
        (* One batched LU launch factors the wave's eliminated diagonals;
           one rescue launch retries the Perturb diagonal shifts and the
           ABFT-flagged refactorizations (fault-plan claims are one-shot,
           so the retry runs clean).  A rescue entry carries the matrix it
           refactors and the outcome of its success and of its failure. *)
        let rescue = ref [] in
        let first = dual_lu (Array.map (fun i -> dmat.(i)) wave_rows) in
        Array.iteri
          (fun p i ->
            match first.(p) with
            | `Ok store -> store i
            | `Faulted ->
              rescue := (i, dmat.(i), Block_jacobi.Recovered, Block_jacobi.Corrupt) :: !rescue
            | `Broken -> (
              st.s_breakdown.(i) <- true;
              match st.c_policy with
              | Block_jacobi.Perturb eps ->
                let m = Block_jacobi.perturbed_copy ~eps dmat.(i) in
                rescue := (i, m, Block_jacobi.Perturbed, Block_jacobi.Degraded) :: !rescue
              | Block_jacobi.Identity_block | Block_jacobi.Fail ->
                (* Fail still finishes the elimination on identity
                   factors (determinism); [report] raises once setup
                   completes, like Block_jacobi. *)
                st.s_outcome.(i) <- Block_jacobi.Degraded;
                degrade i))
          wave_rows;
        let rescue = Array.of_list (List.rev !rescue) in
        if Array.length rescue > 0 then begin
          let again = dual_lu (Array.map (fun (_, m, _, _) -> m) rescue) in
          Array.iteri
            (fun q (i, _, healed, failed) ->
              match again.(q) with
              | `Ok store ->
                store i;
                st.s_outcome.(i) <- healed
              | `Broken | `Faulted ->
                degrade i;
                st.s_outcome.(i) <- failed)
            rescue
        end
      end)
    st.s_lower.Levels.level_sets

(* Rebuild the apply staging from the current post-elimination arenas —
   host-only work (no launches); the coupling batches are constant until
   the next refresh, only the vector carriers get refilled per apply. *)
let build_staging st =
  let layout = st.c_layout in
  let sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps and udeps = st.s_upper.Levels.deps in
  let build_gsteps deps mats rows =
    let max_t =
      Array.fold_left (fun m i -> max m (Array.length deps.(i))) 0 rows
    in
    Array.init max_t (fun t ->
        let sub = filter (fun i -> Array.length deps.(i) > t) rows in
        let srcs = Array.map (fun i -> deps.(i).(t)) sub in
        let psz = Array.mapi (fun p i -> max sizes.(i) sizes.(srcs.(p))) sub in
        let ga = Batch.create ~layout psz in
        Array.iteri
          (fun p i ->
            let m = mats.(i).(t) in
            for r = 0 to sizes.(i) - 1 do
              for c = 0 to sizes.(srcs.(p)) - 1 do
                ga.Batch.values.(Batch.index ga p r c) <- Matrix.get m r c
              done
            done)
          sub;
        {
          g_rows = sub;
          g_srcs = srcs;
          g_a = ga;
          g_b = Batch.create ~layout psz;
          g_c = Batch.create ~layout psz;
        })
  in
  st.s_staging.forward <-
    Array.map
      (fun rows -> build_gsteps ldeps st.s_lmat rows)
      st.s_lower.Levels.level_sets;
  st.s_staging.backward <-
    Array.map
      (fun rows ->
        let gs = build_gsteps udeps st.s_umat rows in
        let ts =
          {
            t_rows = rows;
            t_factors =
              Batch.of_matrices ~layout (Array.map (fun i -> st.s_flu.(i)) rows);
            t_pivots = Array.map (fun i -> st.s_fpiv.(i)) rows;
            t_rhs =
              Batch.vec_create ~layout (Array.map (fun i -> sizes.(i)) rows);
          }
        in
        (gs, ts))
      st.s_upper.Levels.level_sets

(* Level-scheduled sparse block-triangular solves: forward unit sweep is
   pure GEMM waves; backward sweep is GEMM waves plus one TRSV wave per
   level for the diagonal solves.  All staging is sequential host code,
   so the result is bit-identical across domain counts and layouts.  The
   closure reads the staging record on every call, so it survives
   refreshes. *)
let make_apply st =
  let pool = st.c_pool and prec = st.c_prec and obs = st.c_obs in
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let n = st.s_n in
  let run_gstep waves sweep level y gs =
    Array.iteri
      (fun p i ->
        let kb = gs.g_srcs.(p) in
        let b = gs.g_b and c = gs.g_c in
        for e = 0 to sizes.(kb) - 1 do
          b.Batch.values.(Batch.index b p e 0) <- y.(starts.(kb) + e)
        done;
        for e = 0 to sizes.(i) - 1 do
          c.Batch.values.(Batch.index c p e 0) <- y.(starts.(i) + e)
        done)
      gs.g_rows;
    let res =
      Batched_gemm.multiply ?pool ~prec ?obs ~alpha:(-1.0) ~beta:1.0 ~a:gs.g_a
        ~b:gs.g_b ~c:gs.g_c ()
    in
    let pr = res.Batched_gemm.products in
    Array.iteri
      (fun p i ->
        for e = 0 to sizes.(i) - 1 do
          y.(starts.(i) + e) <- pr.Batch.values.(Batch.index pr p e 0)
        done)
      gs.g_rows;
    waves :=
      wave_of sweep level "gemm" (Array.length gs.g_rows) res.Batched_gemm.stats :: !waves
  in
  fun r ->
    if Array.length r <> n then
      invalid_arg "Block_ilu0.apply: dimension mismatch";
    let y = Array.copy r in
    let waves = ref [] in
    Array.iteri
      (fun level steps ->
        Array.iter (run_gstep waves "forward" level y) steps)
      st.s_staging.forward;
    Array.iteri
      (fun level (gs, ts) ->
        Array.iter (run_gstep waves "backward" level y) gs;
        Array.iteri
          (fun p i ->
            let v = ts.t_rhs in
            for e = 0 to sizes.(i) - 1 do
              v.Batch.vvalues.(Batch.vec_index v p e) <- y.(starts.(i) + e)
            done)
          ts.t_rows;
        let res =
          Batched_trsv.solve ?pool ~prec ?obs ~factors:ts.t_factors
            ~pivots:ts.t_pivots ts.t_rhs
        in
        let sol = res.Batched_trsv.solutions in
        Array.iteri
          (fun p i ->
            for e = 0 to sizes.(i) - 1 do
              y.(starts.(i) + e) <- sol.Batch.vvalues.(Batch.vec_index sol p e)
            done)
          ts.t_rows;
        waves :=
          wave_of "backward" level "trsv" (Array.length ts.t_rows) res.Batched_trsv.stats
          :: !waves)
      st.s_staging.backward;
    let wv = Array.of_list (List.rev !waves) in
    let ms =
      Array.fold_left (fun acc w -> acc +. (w.modelled_us *. 1e-6)) 0.0 wv
    in
    st.s_last_apply := Some { waves = wv; modelled_seconds = ms };
    y

(* ─────────────────────────── The setup path ────────────────────────────

   One path builds every block-ILU(0) preconditioner.  A [handle] owns
   the elimination state; [refresh] runs the state over a mask of block
   rows (refill, eliminate, restage, value snapshot), and [report]
   follows every build and refresh.  [create] is a build over a
   throw-away handle that carries its fault plan and ABFT flag, [handle]
   keeps the handle, and [update] refreshes the drifted rows.

   The pattern — hence the blocking, both level schedules, and every
   dependency list — is invariant under value drift, so [update] re-runs
   only the dirty part: block rows whose own CSR entries moved past the
   tolerance, closed over the lower DAG (a row whose dependency
   re-eliminates has changed inputs and must re-eliminate too).  Waves
   with no dirty rows issue no launches at all.  Clean rows keep their
   post-elimination blocks and factors bitwise, and since elimination of
   a row writes only that row's blocks, a [~tol:0.] refresh reproduces a
   fresh factorization bit for bit.  Kept handles take no fault plan and
   no ABFT — amortization targets the fault-free steady state. *)

type handle = {
  h_state : state;
  h_precond : Preconditioner.t;
  mutable h_last : Block_jacobi.update_stats;
}

(* Refill, re-eliminate and restage the masked block rows from [a], then
   snapshot its values; returns the refresh's stats. *)
let refresh st (a : Csr.t) mask =
  let tally = Block_jacobi.new_tally () in
  let dirty = filter (fun i -> mask.(i)) (Array.init (Array.length mask) Fun.id) in
  if Array.length dirty > 0 then begin
    fill_state st a mask;
    eliminate st tally mask;
    build_staging st
  end;
  Array.blit a.Csr.values 0 st.s_values 0 (Array.length st.s_values);
  Block_jacobi.stats_of ~blocks:(Array.length mask) dirty tally

let factor_info_of st =
  match Array.find_index Fun.id st.s_breakdown with Some i -> i + 1 | None -> 0

let handle_info h =
  let st = h.h_state in
  let o = Block_jacobi.info_of st.s_blk st.s_outcome in
  {
    blocking = st.s_blk;
    lower = st.s_lower;
    upper = st.s_upper;
    factor_info = factor_info_of st;
    degraded_blocks = o.Block_jacobi.degraded_blocks;
    perturbed_blocks = o.Block_jacobi.perturbed_blocks;
    recovered_blocks = o.Block_jacobi.recovered_blocks;
    corrupt_blocks = o.Block_jacobi.corrupt_blocks;
    setup_launches = h.h_last.Block_jacobi.launches;
    setup_modelled_seconds = h.h_last.Block_jacobi.modelled_seconds;
    last_apply = st.s_last_apply;
  }

(* After every build and refresh: the [Fail] raise for the handle's first
   broken row, then a zero-duration ["ilu0.setup"] span (wall-clock never
   enters a trace) and the [precond.ilu0.*] metrics, [seconds] being the
   wall time of the build or refresh. *)
let report h ~seconds =
  let st = h.h_state in
  let obs = st.c_obs in
  let fi = factor_info_of st in
  if fi <> 0 && st.c_policy = Block_jacobi.Fail then
    raise (Singular_block { block = fi - 1 });
  if Ctx.enabled obs then begin
    let info = handle_info h in
    let counts =
      [
        ("degraded", info.degraded_blocks);
        ("perturbed", info.perturbed_blocks);
        ("recovered", info.recovered_blocks);
        ("corrupt", info.corrupt_blocks);
      ]
    in
    let levels sched = (Levels.stats sched).Levels.levels in
    Ctx.span_dur obs ~cat:"precond" ~dur:0.0 "ilu0.setup"
      ~args:
        (List.map
           (fun (k, v) -> (k, Vblu_obs.Trace.Int v))
           ([
              ("blocks", Array.length st.s_outcome);
              ("lower_levels", levels info.lower);
              ("upper_levels", levels info.upper);
              ("launches", info.setup_launches);
            ]
           @ List.map (fun (k, l) -> (k, List.length l)) counts));
    let l = [ ("precond", h.h_precond.Preconditioner.name) ] in
    Ctx.set_gauge_l obs "precond.ilu0.setup_seconds" l seconds;
    Ctx.set_gauge_l obs "precond.ilu0.setup_modelled_seconds" l
      info.setup_modelled_seconds;
    Ctx.set_gauge_l obs "precond.ilu0.setup_launches" l
      (float_of_int info.setup_launches);
    List.iter
      (fun (sweep, sched) ->
        let l = [ ("sweep", sweep) ] in
        Ctx.set_gauge_l obs "precond.ilu0.levels" l (float_of_int (levels sched));
        Array.iter
          (fun lset ->
            Ctx.observe_l obs "precond.ilu0.level_occupancy" l
              (float_of_int (Array.length lset)))
          sched.Levels.level_sets)
      [ ("lower", info.lower); ("upper", info.upper) ];
    List.iter
      (fun (k, blocks) ->
        Ctx.incr_l obs ("precond.ilu0." ^ k) l (float_of_int (List.length blocks)))
      counts
  end

(* Checked blocking, a fresh state, and a refresh over every row. *)
let build ~who ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?faults ?(abft = false) ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let blk = Supervariable.checked_blocking ~who ~max_block_size ?blocking a in
  let (st, stats), setup_seconds =
    Preconditioner.timed (fun () ->
        let st = init_state ~pool ~prec ~layout ~policy ~faults ~abft ~obs ~blk a in
        (st, refresh st a (Array.make (Array.length blk.Supervariable.starts) true)))
  in
  let apply =
    Preconditioner.instrument ~obs ~span:"ilu0.apply"
      ~counter:"precond.ilu0.apply.count" (make_apply st)
  in
  let name = Printf.sprintf "block-ilu0(%d)" max_block_size in
  let h =
    {
      h_state = st;
      h_precond = { Preconditioner.name; dim = a.Csr.n_rows; setup_seconds; apply };
      h_last = stats;
    }
  in
  report h ~seconds:setup_seconds;
  h

let create ?pool ?prec ?layout ?policy ?faults ?abft ?max_block_size ?blocking ?obs
    (a : Csr.t) =
  let h =
    build ~who:"Block_ilu0.create" ?pool ?prec ?layout ?policy ?faults ?abft
      ?max_block_size ?blocking ?obs a
  in
  (h.h_precond, handle_info h)

let handle ?pool ?prec ?layout ?policy ?max_block_size ?blocking ?obs (a : Csr.t) =
  let h =
    build ~who:"Block_ilu0.handle" ?pool ?prec ?layout ?policy ?max_block_size
      ?blocking ?obs a
  in
  Vblu_obs.Setup_metrics.record obs ~family:"ilu0"
    ~fresh:h.h_last.Block_jacobi.refactored ~reused:0 ~dirty:0;
  h

(* Dirty test over one contiguous CSR value range (a block row's entries
   are contiguous in CSR order), with Block_jacobi's per-entry test. *)
let range_dirty ~tol old_vals new_vals lo hi =
  let rec from p =
    p < hi && (Block_jacobi.entry_dirty ~tol old_vals new_vals p || from (p + 1))
  in
  from lo

let update ?(tol = 0.0) ?(force_all = false) h (a : Csr.t) =
  let st = h.h_state in
  Block_jacobi.check_pattern ~who:"Block_ilu0.update" ~row_ptr:st.s_row_ptr
    ~col_idx:st.s_col_idx a;
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let mask =
    Array.init (Array.length starts) (fun i ->
        force_all
        || range_dirty ~tol st.s_values a.Csr.values st.s_row_ptr.(starts.(i))
             st.s_row_ptr.(starts.(i) + sizes.(i)))
  in
  (* Close over the lower DAG in level order: dependencies live in
     strictly earlier levels, so one pass settles the closure. *)
  Array.iter
    (Array.iter (fun i ->
         if not mask.(i) then
           mask.(i) <- Array.exists (fun kb -> mask.(kb)) st.s_lower.Levels.deps.(i)))
    st.s_lower.Levels.level_sets;
  let stats, seconds = Preconditioner.timed (fun () -> refresh st a mask) in
  h.h_last <- stats;
  report h ~seconds;
  Vblu_obs.Setup_metrics.record st.c_obs ~family:"ilu0"
    ~fresh:stats.Block_jacobi.refactored ~reused:stats.Block_jacobi.reused
    ~dirty:stats.Block_jacobi.refactored;
  stats

let precond h = h.h_precond
let last_update h = h.h_last

let handle_factors h =
  let st = h.h_state in
  Array.init (Array.length st.s_flu) (fun i -> (st.s_flu.(i), st.s_fpiv.(i)))

type ras_info = {
  subdomains : int;
  overlap : int;
  owned : (int * int) array;
  extended : (int * int) array;
  local_info : info array;
}

(* The principal submatrix on rows/columns [lo, hi), indices shifted. *)
let principal_submatrix (a : Csr.t) lo hi =
  let m = hi - lo in
  let row_ptr = Array.make (m + 1) 0 in
  let nnz = ref 0 in
  for r = lo to hi - 1 do
    for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      let c = a.Csr.col_idx.(p) in
      if c >= lo && c < hi then incr nnz
    done;
    row_ptr.(r - lo + 1) <- !nnz
  done;
  let col_idx = Array.make !nnz 0 and values = Array.make !nnz 0.0 in
  let q = ref 0 in
  for r = lo to hi - 1 do
    for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      let c = a.Csr.col_idx.(p) in
      if c >= lo && c < hi then begin
        col_idx.(!q) <- c - lo;
        values.(!q) <- a.Csr.values.(p);
        incr q
      end
    done
  done;
  Csr.create ~n_rows:m ~n_cols:m ~row_ptr ~col_idx ~values

let ras ?pool ?prec ?layout ?policy ?faults ?abft ?max_block_size ?(subdomains = 4)
    ?(overlap = 8) ?obs (a : Csr.t) =
  (* Reject a bad matrix or bound here, naming this entry point, rather
     than inside the first subdomain's setup. *)
  ignore (Supervariable.checked_blocking ~who:"Block_ilu0.ras" ?max_block_size a);
  let n = a.Csr.n_rows in
  if subdomains < 1 then invalid_arg "Block_ilu0.ras: subdomains < 1";
  if overlap < 0 then invalid_arg "Block_ilu0.ras: negative overlap";
  let sd = max 1 (min subdomains n) in
  let owned = Array.init sd (fun d -> (d * n / sd, (d + 1) * n / sd)) in
  let extended =
    Array.map
      (fun (lo, hi) -> (max 0 (lo - overlap), min n (hi + overlap)))
      owned
  in
  let (locals, infos), setup_seconds =
    Preconditioner.timed (fun () ->
        let pairs =
          Array.map
            (fun (elo, ehi) ->
              let sub = principal_submatrix a elo ehi in
              create ?pool ?prec ?layout ?policy ?faults ?abft ?max_block_size ?obs sub)
            extended
        in
        (Array.map fst pairs, Array.map snd pairs))
  in
  let name = Printf.sprintf "ras-ilu0(%d,%d)" sd overlap in
  (* Restricted scatter: every subdomain solves on its extended range but
     writes only its owned rows — disjoint writes, so the result does not
     depend on the subdomain visit order. *)
  let apply r =
    if Array.length r <> n then
      invalid_arg "Block_ilu0.ras: dimension mismatch";
    let y = Array.make n 0.0 in
    Array.iteri
      (fun d (elo, ehi) ->
        let lr = Array.sub r elo (ehi - elo) in
        let ly = Preconditioner.apply locals.(d) lr in
        let lo, hi = owned.(d) in
        Array.blit ly (lo - elo) y lo (hi - lo))
      extended;
    y
  in
  let apply =
    Preconditioner.instrument ~obs ~span:"ras.apply"
      ~counter:"precond.ilu0.ras.apply.count" apply
  in
  ( { Preconditioner.name; dim = n; setup_seconds; apply },
    { subdomains = sd; overlap; owned; extended; local_info = infos } )
