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

(* Per-row elimination outcome, kept as an array so a partial refresh can
   rewrite just the re-eliminated rows and the info lists stay
   reconstructible (and deterministic) at any point. *)
type row_outcome = Row_ok | Row_degraded | Row_perturbed | Row_recovered | Row_corrupt

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
  s_outcome : row_outcome array;
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
    s_outcome = Array.make k Row_ok;
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
   launches.  Returns [(launches, transactions, modelled_seconds)]. *)
let eliminate st (mask : bool array) =
  let pool = st.c_pool
  and prec = st.c_prec
  and layout = st.c_layout
  and policy = st.c_policy
  and faults = st.c_faults
  and abft = st.c_abft
  and obs = st.c_obs in
  let sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps and udeps = st.s_upper.Levels.deps in
  let dmat = st.s_dmat and lmat = st.s_lmat and umat = st.s_umat in
  let launches = ref 0 and transactions = ref 0 and modelled = ref 0.0 in
  let note (ls : Launch.stats) =
    incr launches;
    transactions := !transactions + Counter.transactions ls.Launch.total;
    modelled := !modelled +. (ls.Launch.time_us *. 1e-6)
  in
  let failed = function Fault.Failed -> true | _ -> false in
  let store i fn ft pn pt =
    st.s_flu.(i) <- fn;
    st.s_tlu.(i) <- ft;
    st.s_fpiv.(i) <- pn;
    st.s_tpiv.(i) <- pt
  in
  let degrade i =
    let fn, pn = identity_factors sizes.(i) in
    let ft, pt = identity_factors sizes.(i) in
    store i fn ft pn pt
  in
  Array.iter
    (fun all_rows ->
      let wave_rows =
        Array.of_list (List.filter (fun i -> mask.(i)) (Array.to_list all_rows))
      in
      if Array.length wave_rows > 0 then begin
        Array.iter
          (fun i ->
            st.s_outcome.(i) <- Row_ok;
            st.s_breakdown.(i) <- false)
          wave_rows;
        let max_t =
          Array.fold_left
            (fun m i -> max m (Array.length ldeps.(i)))
            0 wave_rows
        in
        for t = 0 to max_t - 1 do
          let sub =
            Array.of_list
              (List.filter
                 (fun i -> Array.length ldeps.(i) > t)
                 (Array.to_list wave_rows))
          in
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
        (* One batched LU launch factors the wave's eliminated
           diagonals, normal and transposed problems side by side. *)
        let nw = Array.length wave_rows in
        let mats =
          Array.init (2 * nw) (fun p ->
              if p < nw then dmat.(wave_rows.(p))
              else Matrix.transpose dmat.(wave_rows.(p - nw)))
        in
        let db = Batch.of_matrices ~layout mats in
        let lu = Batched_lu.factor ?pool ~prec ?faults ~abft ?obs db in
        note lu.Batched_lu.stats;
        let broken p =
          lu.Batched_lu.info.(p) <> 0 || lu.Batched_lu.info.(nw + p) <> 0
        in
        let faulted p =
          (not (broken p))
          && abft
          && (failed lu.Batched_lu.verdicts.(p)
             || failed lu.Batched_lu.verdicts.(nw + p))
        in
        let rescue = ref [] in
        Array.iteri
          (fun p i ->
            if broken p then begin
              st.s_breakdown.(i) <- true;
              match policy with
              | Block_jacobi.Perturb eps ->
                rescue := (i, `Perturb eps) :: !rescue
              | Block_jacobi.Identity_block | Block_jacobi.Fail ->
                (* Fail still finishes the elimination on identity
                   factors (determinism); the raise happens after
                   setup completes, like Block_jacobi. *)
                st.s_outcome.(i) <- Row_degraded;
                degrade i
            end
            else if faulted p then rescue := (i, `Fault) :: !rescue
            else
              store i
                (Batch.get_matrix lu.Batched_lu.factors p)
                (Batch.get_matrix lu.Batched_lu.factors (nw + p))
                lu.Batched_lu.pivots.(p)
                lu.Batched_lu.pivots.(nw + p))
          wave_rows;
        (* One combined rescue launch per wave retries the Perturb
           diagonal shifts and the ABFT-flagged refactorizations
           (fault-plan claims are one-shot, so the retry runs
           clean). *)
        let rescue = Array.of_list (List.rev !rescue) in
        let nr = Array.length rescue in
        if nr > 0 then begin
          let rmats =
            Array.init (2 * nr) (fun q ->
                let i, kind = rescue.(q mod nr) in
                let m =
                  match kind with
                  | `Perturb eps -> Block_jacobi.perturbed_copy ~eps dmat.(i)
                  | `Fault -> dmat.(i)
                in
                if q < nr then m else Matrix.transpose m)
          in
          let rb = Batch.of_matrices ~layout rmats in
          let rlu = Batched_lu.factor ?pool ~prec ?faults ~abft ?obs rb in
          note rlu.Batched_lu.stats;
          Array.iteri
            (fun q (i, kind) ->
              let clean =
                rlu.Batched_lu.info.(q) = 0
                && rlu.Batched_lu.info.(nr + q) = 0
                && (not abft
                   || not
                        (failed rlu.Batched_lu.verdicts.(q)
                        || failed rlu.Batched_lu.verdicts.(nr + q)))
              in
              if clean then begin
                store i
                  (Batch.get_matrix rlu.Batched_lu.factors q)
                  (Batch.get_matrix rlu.Batched_lu.factors (nr + q))
                  rlu.Batched_lu.pivots.(q)
                  rlu.Batched_lu.pivots.(nr + q);
                st.s_outcome.(i) <-
                  (match kind with
                  | `Perturb _ -> Row_perturbed
                  | `Fault -> Row_recovered)
              end
              else begin
                degrade i;
                st.s_outcome.(i) <-
                  (match kind with
                  | `Perturb _ -> Row_degraded
                  | `Fault -> Row_corrupt)
              end)
            rescue
        end
      end)
    st.s_lower.Levels.level_sets;
  (!launches, !transactions, !modelled)

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
        let sub =
          Array.of_list
            (List.filter
               (fun i -> Array.length deps.(i) > t)
               (Array.to_list rows))
        in
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
    let ls = res.Batched_gemm.stats in
    waves :=
      {
        sweep;
        level;
        kernel = "gemm";
        problems = Array.length gs.g_rows;
        transactions = Counter.transactions ls.Launch.total;
        modelled_us = ls.Launch.time_us;
      }
      :: !waves
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
        let ls = res.Batched_trsv.stats in
        waves :=
          {
            sweep = "backward";
            level;
            kernel = "trsv";
            problems = Array.length ts.t_rows;
            transactions = Counter.transactions ls.Launch.total;
            modelled_us = ls.Launch.time_us;
          }
          :: !waves)
      st.s_staging.backward;
    let wv = Array.of_list (List.rev !waves) in
    let ms =
      Array.fold_left (fun acc w -> acc +. (w.modelled_us *. 1e-6)) 0.0 wv
    in
    st.s_last_apply := Some { waves = wv; modelled_seconds = ms };
    y

(* Outcome lists rebuilt from the per-row array — ascending and
   deterministic, matching the sequential fold of the original
   single-shot setup. *)
let outcome_lists st =
  let degraded = ref [] and perturbed = ref [] in
  let recovered = ref [] and corrupt = ref [] in
  for i = Array.length st.s_outcome - 1 downto 0 do
    match st.s_outcome.(i) with
    | Row_ok -> ()
    | Row_degraded -> degraded := i :: !degraded
    | Row_perturbed -> perturbed := i :: !perturbed
    | Row_recovered -> recovered := i :: !recovered
    | Row_corrupt ->
      corrupt := i :: !corrupt
  done;
  ( List.merge compare !degraded !corrupt,
    !perturbed,
    !recovered,
    !corrupt )

(* With a context every application records an ["ilu0.apply"] span;
   without one the bare closure is returned untouched. *)
let instrument ~obs apply =
  if Ctx.enabled obs then fun r ->
    Ctx.with_span obs ~cat:"precond" "ilu0.apply" (fun () ->
        Ctx.incr obs "precond.ilu0.apply.count" 1.0;
        apply r)
  else apply

let factor_info_of st =
  let fi = ref 0 in
  for i = Array.length st.s_breakdown - 1 downto 0 do
    if st.s_breakdown.(i) then fi := i + 1
  done;
  !fi

(* The [Fail] policy's raise once setup has completed: the first block
   row that broke down. *)
let raise_on_fail st =
  let fi = factor_info_of st in
  if fi <> 0 && st.c_policy = Block_jacobi.Fail then
    raise (Singular_block { block = fi - 1 })

let create ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?faults ?(abft = false) ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let blk =
    Supervariable.checked_blocking ~who:"Block_ilu0.create" ~max_block_size ?blocking a
  in
  let n = a.Csr.n_rows and k = Array.length blk.Supervariable.starts in
  let (st, setup_launches, setup_modelled_seconds), setup_seconds =
    Preconditioner.timed (fun () ->
        let st =
          init_state ~pool ~prec ~layout ~policy ~faults ~abft ~obs ~blk a
        in
        let mask = Array.make k true in
        fill_state st a mask;
        let launches, _tx, modelled = eliminate st mask in
        build_staging st;
        (st, launches, modelled))
  in
  let apply = make_apply st in
  let lower = st.s_lower and upper = st.s_upper in
  let factor_info = factor_info_of st in
  let degraded_blocks, perturbed_blocks, recovered_blocks, corrupt_blocks =
    outcome_lists st
  in
  let last_apply = st.s_last_apply in
  raise_on_fail st;
  let name = Printf.sprintf "block-ilu0(%d)" max_block_size in
  if Ctx.enabled obs then begin
    let ls = Levels.stats lower and us = Levels.stats upper in
    let count = List.length in
    Ctx.span_dur obs ~cat:"precond" ~dur:0.0 "ilu0.setup"
      ~args:
        [
          ("blocks", Vblu_obs.Trace.Int k);
          ("lower_levels", Vblu_obs.Trace.Int ls.Levels.levels);
          ("upper_levels", Vblu_obs.Trace.Int us.Levels.levels);
          ("launches", Vblu_obs.Trace.Int setup_launches);
          ("degraded", Vblu_obs.Trace.Int (count degraded_blocks));
          ("perturbed", Vblu_obs.Trace.Int (count perturbed_blocks));
          ("recovered", Vblu_obs.Trace.Int (count recovered_blocks));
          ("corrupt", Vblu_obs.Trace.Int (count corrupt_blocks));
        ];
    let l = [ ("precond", name) ] in
    Ctx.set_gauge_l obs "precond.ilu0.setup_seconds" l setup_seconds;
    Ctx.set_gauge_l obs "precond.ilu0.setup_modelled_seconds" l
      setup_modelled_seconds;
    Ctx.set_gauge_l obs "precond.ilu0.setup_launches" l
      (float_of_int setup_launches);
    Ctx.set_gauge_l obs "precond.ilu0.levels"
      [ ("sweep", "lower") ]
      (float_of_int ls.Levels.levels);
    Ctx.set_gauge_l obs "precond.ilu0.levels"
      [ ("sweep", "upper") ]
      (float_of_int us.Levels.levels);
    Array.iter
      (fun lset ->
        Ctx.observe_l obs "precond.ilu0.level_occupancy"
          [ ("sweep", "lower") ]
          (float_of_int (Array.length lset)))
      lower.Levels.level_sets;
    Array.iter
      (fun lset ->
        Ctx.observe_l obs "precond.ilu0.level_occupancy"
          [ ("sweep", "upper") ]
          (float_of_int (Array.length lset)))
      upper.Levels.level_sets;
    Ctx.incr_l obs "precond.ilu0.degraded" l
      (float_of_int (count degraded_blocks));
    Ctx.incr_l obs "precond.ilu0.perturbed" l
      (float_of_int (count perturbed_blocks));
    Ctx.incr_l obs "precond.ilu0.recovered" l
      (float_of_int (count recovered_blocks));
    Ctx.incr_l obs "precond.ilu0.corrupt" l
      (float_of_int (count corrupt_blocks))
  end;
  let apply = instrument ~obs apply in
  ( { Preconditioner.name; dim = n; setup_seconds; apply },
    {
      blocking = blk;
      lower;
      upper;
      factor_info;
      degraded_blocks;
      perturbed_blocks;
      recovered_blocks;
      corrupt_blocks;
      setup_launches;
      setup_modelled_seconds;
      last_apply;
    } )

(* ───────────────────── Amortized setup (handles) ─────────────────────

   The pattern — hence the blocking, both level schedules, and every
   dependency list — is invariant under value drift, so a handle keeps
   the elimination state alive and [update] re-runs only the dirty part:
   block rows whose own CSR entries moved past the tolerance, closed
   over the lower DAG (a row whose dependency re-eliminates has changed
   inputs and must re-eliminate too).  Waves with no dirty rows issue no
   launches at all.  Clean rows keep their post-elimination blocks and
   factors bitwise, and since elimination of a row writes only that
   row's blocks, a [~tol:0.] refresh reproduces a fresh factorization
   bit for bit.  Handles take no fault plan and no ABFT — amortization
   targets the fault-free steady state. *)

type handle = {
  h_state : state;
  h_precond : Preconditioner.t;
  mutable h_last : Block_jacobi.update_stats;
}

(* Dirty test over one contiguous CSR value range (a block row's entries
   are contiguous in CSR order), with Block_jacobi's per-entry test. *)
let range_dirty ~tol old_vals new_vals lo hi =
  let rec from p =
    p < hi && (Block_jacobi.entry_dirty ~tol old_vals new_vals p || from (p + 1))
  in
  from lo

let handle ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let blk =
    Supervariable.checked_blocking ~who:"Block_ilu0.handle" ~max_block_size ?blocking a
  in
  let n = a.Csr.n_rows and k = Array.length blk.Supervariable.starts in
  let (st, stats), setup_seconds =
    Preconditioner.timed (fun () ->
        let st =
          init_state ~pool ~prec ~layout ~policy ~faults:None ~abft:false ~obs
            ~blk a
        in
        let mask = Array.make k true in
        fill_state st a mask;
        let launches, setup_transactions, modelled_seconds =
          eliminate st mask
        in
        build_staging st;
        ( st,
          {
            Block_jacobi.dirty_blocks = List.init k Fun.id;
            refactored = k;
            reused = 0;
            launches;
            setup_transactions;
            modelled_seconds;
          } ))
  in
  raise_on_fail st;
  Vblu_obs.Setup_metrics.record obs ~family:"ilu0" ~fresh:k ~reused:0 ~dirty:0;
  let apply = instrument ~obs (make_apply st) in
  let name = Printf.sprintf "block-ilu0(%d)" max_block_size in
  {
    h_state = st;
    h_precond = { Preconditioner.name; dim = n; setup_seconds; apply };
    h_last = stats;
  }

let update ?(tol = 0.0) ?(force_all = false) h (a : Csr.t) =
  let st = h.h_state in
  let n, cols = Csr.dims a in
  if n <> cols || n <> st.s_n then
    invalid_arg "Block_ilu0.update: dimension mismatch";
  if not (a.Csr.row_ptr = st.s_row_ptr && a.Csr.col_idx = st.s_col_idx) then
    invalid_arg
      "Block_ilu0.update: sparsity pattern changed (build a new handle)";
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let k = Array.length starts in
  let mask = Array.make k force_all in
  if not force_all then begin
    for i = 0 to k - 1 do
      let lo = st.s_row_ptr.(starts.(i)) in
      let hi = st.s_row_ptr.(starts.(i) + sizes.(i)) in
      mask.(i) <- range_dirty ~tol st.s_values a.Csr.values lo hi
    done;
    (* Close over the lower DAG in level order: dependencies live in
       strictly earlier levels, so one pass settles the closure. *)
    Array.iter
      (fun rows ->
        Array.iter
          (fun i ->
            if not mask.(i) then
              mask.(i) <-
                Array.exists
                  (fun kb -> mask.(kb))
                  st.s_lower.Levels.deps.(i))
          rows)
      st.s_lower.Levels.level_sets
  end;
  let dirty = ref [] in
  for i = k - 1 downto 0 do
    if mask.(i) then dirty := i :: !dirty
  done;
  let nd = List.length !dirty in
  let launches, setup_transactions, modelled_seconds =
    if nd = 0 then (0, 0, 0.0)
    else begin
      fill_state st a mask;
      let r = eliminate st mask in
      build_staging st;
      r
    end
  in
  Array.blit a.Csr.values 0 st.s_values 0 (Array.length st.s_values);
  (match st.c_policy with
  | Block_jacobi.Fail ->
    for i = 0 to k - 1 do
      if mask.(i) && st.s_breakdown.(i) then
        raise (Singular_block { block = i })
    done
  | _ -> ());
  let stats =
    {
      Block_jacobi.dirty_blocks = !dirty;
      refactored = nd;
      reused = k - nd;
      launches;
      setup_transactions;
      modelled_seconds;
    }
  in
  h.h_last <- stats;
  Vblu_obs.Setup_metrics.record st.c_obs ~family:"ilu0" ~fresh:nd
    ~reused:(k - nd) ~dirty:nd;
  stats

let precond h = h.h_precond
let last_update h = h.h_last

let handle_info h =
  let st = h.h_state in
  let degraded_blocks, perturbed_blocks, recovered_blocks, corrupt_blocks =
    outcome_lists st
  in
  {
    blocking = st.s_blk;
    lower = st.s_lower;
    upper = st.s_upper;
    factor_info = factor_info_of st;
    degraded_blocks;
    perturbed_blocks;
    recovered_blocks;
    corrupt_blocks;
    setup_launches = h.h_last.Block_jacobi.launches;
    setup_modelled_seconds = h.h_last.Block_jacobi.modelled_seconds;
    last_apply = st.s_last_apply;
  }

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

let ras ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?faults ?(abft = false) ?(max_block_size = 32) ?(subdomains = 4)
    ?(overlap = 8) ?obs (a : Csr.t) =
  (* Reject a bad matrix or bound here, naming this entry point, rather
     than inside the first subdomain's setup. *)
  ignore (Supervariable.checked_blocking ~who:"Block_ilu0.ras" ~max_block_size a);
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
              create ?pool ~prec ~layout ~policy ?faults ~abft ~max_block_size
                ?obs sub)
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
    if Ctx.enabled obs then fun r ->
      Ctx.with_span obs ~cat:"precond" "ras.apply" (fun () ->
          Ctx.incr obs "precond.ilu0.ras.apply.count" 1.0;
          apply r)
    else apply
  in
  ( { Preconditioner.name; dim = n; setup_seconds; apply },
    { subdomains = sd; overlap; owned; extended; local_info = infos } )
