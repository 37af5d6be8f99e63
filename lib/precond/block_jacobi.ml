open Vblu_smallblas
open Vblu_sparse
open Vblu_par
open Vblu_fault
module Batch = Vblu_core.Batch
module Batched_lu = Vblu_core.Batched_lu
module Launch = Vblu_simt.Launch
module Counter = Vblu_simt.Counter

let log_src = Logs.Src.create "vblu.block_jacobi" ~doc:"block-Jacobi setup"

module Log = (val Logs.src_log log_src : Logs.LOG)

type variant = Lu | Gh | Ght | Gje_inverse | Cholesky | Scalar

let variant_name = function
  | Lu -> "lu"
  | Gh -> "gh"
  | Ght -> "gh-t"
  | Gje_inverse -> "gje-inverse"
  | Cholesky -> "cholesky"
  | Scalar -> "scalar"

(* Declared before [breakdown_policy] on purpose: both carry a [Fail]
   constructor, and declaring the breakdown one last keeps every
   unqualified [Fail] in pre-existing code meaning "breakdown". *)
type recovery_policy = Recompute of int | Degrade_to_identity | Fail

let recovery_name = function
  | Recompute n -> Printf.sprintf "recompute:%d" n
  | Degrade_to_identity -> "degrade"
  | (Fail : recovery_policy) -> "fail"

type breakdown_policy = Fail | Identity_block | Perturb of float

let policy_name = function
  | Fail -> "fail"
  | Identity_block -> "identity"
  | Perturb eps -> Printf.sprintf "perturb:%g" eps

exception Singular_block of { block : int; variant : variant }
exception Fault_detected of { block : int; variant : variant }

let () =
  Printexc.register_printer (function
    | Singular_block { block; variant } ->
      Some
        (Printf.sprintf
           "Block_jacobi.Singular_block: diagonal block %d is singular \
            (variant %s, policy fail)"
           block (variant_name variant))
    | Fault_detected { block; variant } ->
      Some
        (Printf.sprintf
           "Block_jacobi.Fault_detected: diagonal block %d failed its ABFT \
            check (variant %s, recovery fail)"
           block (variant_name variant))
    | _ -> None)

type info = {
  blocking : Supervariable.blocking;
  singular_blocks : int list;
  degraded_blocks : int list;
  perturbed_blocks : int list;
  recovered_blocks : int list;
  corrupt_blocks : int list;
}

(* Per-block setup outcome.  Every stage writes only the indices it owns,
   and the array is folded sequentially (in block order) at the end — so
   the resulting lists, and any [Fail]-policy exception, are deterministic
   across domain counts. *)
type outcome = Healthy | Degraded | Perturbed | Recovered | Corrupt

(* Per-block solver closures.  [solve] is the allocating form (the ABFT
   residual check feeds it standalone vectors); [solve_into r st y] reads
   the segment [r.(st .. st+s-1)] and writes the same segment of [y]
   without allocating — every scratch buffer is sized once at setup, per
   block, so pool workers applying distinct blocks never share state.
   (One preconditioner value applied concurrently from several threads
   would race on that scratch; Krylov applies are sequential per solve.) *)
type block_solver = {
  solve : Vector.t -> Vector.t;
  solve_into : Vector.t -> int -> Vector.t -> unit;
}

let identity_solver s =
  {
    solve = (fun (r : Vector.t) -> Array.copy r);
    solve_into = (fun r st y -> Array.blit r st y st s);
  }

(* Fallback [solve_into] for variants without a dedicated in-place path:
   one setup-time segment buffer replaces the per-apply [Array.sub]. *)
let into_of_solve ~s solve =
  let seg = Array.make s 0.0 in
  fun r st y ->
    Array.blit r st seg 0 s;
    Array.blit (solve seg) 0 y st s

(* The in-place LU apply: permuted gather, unit-lower sweep, upper sweep
   — [Lu.solve] step for step (a clean factorization has no zero pivot,
   so the upper sweep cannot raise). *)
let solver_of_factors ~prec s (f : Lu.factors) =
  let buf = Array.make s 0.0 in
  let solve_into r st y =
    for k = 0 to s - 1 do
      buf.(k) <- r.(st + f.Lu.perm.(k))
    done;
    Trsv.lower_unit_in_place ~prec f.Lu.lu buf;
    Trsv.upper_in_place ~prec f.Lu.lu buf;
    Array.blit buf 0 y st s
  in
  { solve = (fun rhs -> Lu.solve ~prec f rhs); solve_into }

(* [m] with [eps * scale] added to every diagonal entry, where [scale] is
   the largest absolute entry of the block (1.0 for an all-zero block) —
   the standard diagonal-shift rescue for a broken-down factorization. *)
let perturbed_copy ~eps m =
  let n, _ = Matrix.dims m in
  let scale = ref 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let v = Float.abs (Matrix.unsafe_get m r c) in
      if v > !scale then scale := v
    done
  done;
  let scale = if !scale = 0.0 then 1.0 else !scale in
  let m' = Matrix.copy m in
  for r = 0 to n - 1 do
    Matrix.unsafe_set m' r r (Matrix.unsafe_get m' r r +. (eps *. scale))
  done;
  m'

(* Corrupt one entry of a factor matrix in place — the hook a claimed
   fault site uses to model a setup-time soft error. *)
let matrix_corrupt mat (site : Fault.site) =
  let n, _ = Matrix.dims mat in
  let r = site.Fault.lane mod n and c = site.Fault.step mod n in
  Matrix.unsafe_set mat r c
    (Fault.corrupt site.Fault.kind (Matrix.unsafe_get mat r c))

(* The block as a batched kernel sees it: every entry rounded to the
   working precision on load.  Host factorizations and the ABFT check
   read this copy, so every variant factors exactly what the batched LU
   launch would. *)
let staged ~prec m =
  match (prec : Precision.t) with
  | Double -> m
  | Single ->
    let s, _ = Matrix.dims m in
    Matrix.init s s (fun r c -> Precision.round prec (Matrix.unsafe_get m r c))

(* ABFT residual check for a factored block: solve against the row-sum
   vector w = A·e and accept iff A·u - w stays within the backward-stable
   envelope rowwise, evaluated against the matrix that was actually
   factored (the perturbed copy under a [Perturb] rescue — a deliberate
   diagonal shift must not read as corruption). *)
let abft_ok ~prec mfact (solver : block_solver) =
  let mfact = staged ~prec mfact in
  let s, _ = Matrix.dims mfact in
  let e = Array.make s 1.0 in
  let w = Matrix.gemv ~prec mfact e in
  let u = solver.solve w in
  let au = Matrix.gemv ~prec mfact u in
  let eps = Precision.eps prec in
  let ok = ref true in
  for r = 0 to s - 1 do
    let scale = ref (Float.abs w.(r)) in
    for c = 0 to s - 1 do
      scale := !scale +. Float.abs (Matrix.unsafe_get mfact r c *. u.(c))
    done;
    let tol = 1024.0 *. float_of_int s *. eps *. !scale in
    if (not (Float.is_finite au.(r))) || Float.abs (au.(r) -. w.(r)) > tol then
      ok := false
  done;
  !ok

(* ───────────────────────── The setup engine ─────────────────────────

   One pipeline builds every block-Jacobi preconditioner — [create],
   [handle]/[update] and the serve batcher's coalesced [refresh]:

   1. checked blocking ([Supervariable.checked_blocking]) and extraction;
   2. the factor stage: the variant's host factorization where it has
      one, and ONE [Batched_lu.factor] launch over every block it hands
      on — all of them for [Lu], the nonsymmetric and non-SPD ones for
      [Cholesky];
   3. one [Perturb] rescue pass: the broken blocks' diagonal-shifted
      copies re-enter stage 2 together;
   4. [create]'s post-setup fault injection, ABFT residual check and
      recovery ([Recompute] re-enters stages 2–3 for the flagged blocks
      only);
   5. the block-order outcome fold into [info], with the [Fail] raises,
      the log lines and the obs counters;
   6. the apply closure: each block's host [solve_into] over the pool. *)

type engine = {
  pool : Pool.t;
  prec : Precision.t;
  variant : variant;
  policy : breakdown_policy;
  layout : Batch.layout;
  obs : Vblu_obs.Ctx.t option;
}

(* Modelled cost of the LU launches one setup or refresh issued. *)
type tally = { mutable launches : int; mutable tx : int; mutable modelled : float }

let new_tally () = { launches = 0; tx = 0; modelled = 0.0 }

let note t (st : Launch.stats) =
  t.launches <- t.launches + 1;
  t.tx <- t.tx + Counter.transactions st.Launch.total;
  t.modelled <- t.modelled +. (st.Launch.time_us *. 1e-6)

(* A factored block: its apply closure, the hook a fault site uses to
   corrupt its factor storage, and its LU factors when the batched LU
   launch produced it. *)
type factored = {
  solver : block_solver;
  corrupt : Fault.site -> unit;
  lu : Lu.factors option;
}

let lu_factored ~prec (f : Lu.factors) =
  let s, _ = Matrix.dims f.Lu.lu in
  { solver = solver_of_factors ~prec s f; corrupt = matrix_corrupt f.Lu.lu; lu = Some f }

let launch_factors (r : Batched_lu.result) q =
  { Lu.lu = Batch.get_matrix r.Batched_lu.factors q; perm = r.Batched_lu.pivots.(q) }

(* Indices [i] of [a] with [pred a.(i)], ascending. *)
let where pred a =
  Array.of_list (List.filter (fun i -> pred a.(i)) (List.init (Array.length a) Fun.id))

(* What a variant's host factorization made of one (staged) block. *)
type attempt = Factored of factored | Broken | To_lu

let symmetric m =
  let n, _ = Matrix.dims m in
  let ok = ref true in
  for r = 0 to n - 1 do
    for c = r + 1 to n - 1 do
      if Matrix.unsafe_get m r c <> Matrix.unsafe_get m c r then ok := false
    done
  done;
  !ok

let host_factor ~prec variant m =
  let s, _ = Matrix.dims m in
  match variant with
  | Lu | Scalar -> To_lu
  | Gh | Ght ->
    let storage =
      if variant = Ght then Gauss_huard.Transposed else Gauss_huard.Normal
    in
    let f, inf = Gauss_huard.factor_status ~prec ~storage m in
    if inf <> 0 then Broken
    else
      let solve rhs = Gauss_huard.solve ~prec f rhs in
      Factored
        {
          solver = { solve; solve_into = into_of_solve ~s solve };
          corrupt = matrix_corrupt f.Gauss_huard.gh;
          lu = None;
        }
  | Gje_inverse ->
    let inv, inf = Gauss_jordan.invert_status ~prec m in
    if inf <> 0 then Broken
    else
      let xb = Array.make s 0.0 and yb = Array.make s 0.0 in
      let solve_into r st y =
        Array.blit r st xb 0 s;
        Matrix.gemv_into ~prec inv xb yb;
        Array.blit yb 0 y st s
      in
      Factored
        {
          solver = { solve = (fun rhs -> Matrix.gemv ~prec inv rhs); solve_into };
          corrupt = matrix_corrupt inv;
          lu = None;
        }
  | Cholesky ->
    (* SPD fast path.  Cholesky reads only the lower triangle, so a
       nonsymmetric block would be silently mis-factored: it goes to the
       pivoted LU, as does a block failing the positivity test (a variant
       detail, not a breakdown; only an LU failure counts as one). *)
    if not (symmetric m) then To_lu
    else
      let f, inf = Cholesky.factor_status ~prec m in
      if inf <> 0 then To_lu
      else
        let buf = Array.make s 0.0 in
        let solve_into r st y =
          Array.blit r st buf 0 s;
          Cholesky.solve_in_place ~prec f buf;
          Array.blit buf 0 y st s
        in
        Factored
          {
            solver = { solve = (fun rhs -> Cholesky.solve ~prec f rhs); solve_into };
            corrupt = matrix_corrupt f.Cholesky.l;
            lu = None;
          }

(* Stage 2 over [mats]: per block the factored block, [None] where it
   broke down, plus the raw LU launch if one ran, indexed by launch
   position.  For [Lu] every block is at its own position.  [?faults] and
   [?abft] go to the launch: in-kernel injection and checksums, the serve
   batcher's fault model. *)
let factor_stage e tally ?faults ?(abft = false) mats =
  let n = Array.length mats in
  let attempts =
    match e.variant with
    | Lu -> Array.make n To_lu
    | _ ->
      Pool.parallel_init e.pool n (fun p ->
          host_factor ~prec:e.prec e.variant (staged ~prec:e.prec mats.(p)))
  in
  let out = Array.map (function Factored f -> Some f | Broken | To_lu -> None) attempts in
  let to_lu = where (function To_lu -> true | _ -> false) attempts in
  let launch =
    if Array.length to_lu = 0 then None
    else begin
      let r =
        Batched_lu.factor ~pool:e.pool ~prec:e.prec ?faults ~abft ?obs:e.obs
          (Batch.of_matrices ~layout:e.layout (Array.map (fun p -> mats.(p)) to_lu))
      in
      note tally r.Batched_lu.stats;
      Array.iteri
        (fun q p ->
          if r.Batched_lu.info.(q) = 0 then
            out.(p) <- Some (lu_factored ~prec:e.prec (launch_factors r q)))
        to_lu;
      Some r
    end
  in
  (out, launch)

(* Stages 2–3 over [mats]: per block the factored block with the matrix it
   factored (the shifted copy after a rescue) and its outcome — [Healthy],
   [Perturbed] or [Degraded] — plus stage 2's raw LU launch. *)
let setup_blocks e tally ?faults ?abft mats =
  let out, launch = factor_stage e tally ?faults ?abft mats in
  let res = Array.mapi (fun p f -> Option.map (fun f -> (f, mats.(p))) f) out in
  let outcomes = Array.map (function Some _ -> Healthy | None -> Degraded) out in
  (match e.policy with
  | Perturb eps ->
    let broken = where Option.is_none out in
    if Array.length broken > 0 then begin
      let shifted = Array.map (fun p -> perturbed_copy ~eps mats.(p)) broken in
      let rescued, _ = factor_stage e tally shifted in
      Array.iteri
        (fun q p ->
          Option.iter
            (fun f ->
              res.(p) <- Some (f, shifted.(q));
              outcomes.(p) <- Perturbed)
            rescued.(q))
        broken
    end
  | Fail | Identity_block -> ());
  (res, outcomes, launch)

(* Stage 4: let each claimed fault site corrupt its block's stored factors
   (claims are one-shot, keyed by block index, so a retry runs clean and
   injection is deterministic across domain counts), then check every
   factored block and apply the recovery policy to the failures. *)
let protect e tally ~faults ~abft ~recovery mats res outcomes =
  let inject i ((f : factored), _) =
    match faults with
    | None -> ()
    | Some plan ->
      let s, _ = Matrix.dims mats.(i) in
      List.iter
        (fun (site : Fault.site) ->
          if Fault.Plan.claim plan ~problem:i ~step:site.Fault.step then begin
            f.corrupt site;
            Fault.Plan.note_injected plan
          end)
        (Fault.Plan.sites_for plan ~problem:i ~size:s)
  in
  Array.iteri (fun i r -> Option.iter (inject i) r) res;
  if abft then begin
    let failing idx =
      idx
      |> where (fun i ->
             match res.(i) with
             | Some (f, m) -> not (abft_ok ~prec:e.prec m f.solver)
             | None -> false)
      |> Array.map (fun q -> idx.(q))
    in
    let flagged = ref (failing (Array.init (Array.length res) Fun.id)) in
    (match recovery with
    | Recompute retries ->
      let left = ref retries in
      while Array.length !flagged > 0 && !left > 0 do
        decr left;
        let idx = !flagged in
        let again, again_outcomes, _ =
          setup_blocks e tally (Array.map (fun i -> mats.(i)) idx)
        in
        Array.iteri
          (fun q i ->
            res.(i) <- again.(q);
            outcomes.(i) <- again_outcomes.(q);
            Option.iter (inject i) again.(q))
          idx;
        flagged := failing idx;
        Array.iter
          (fun i ->
            if Option.is_some res.(i) && not (Array.mem i !flagged) then
              outcomes.(i) <- Recovered)
          idx
      done
    | Degrade_to_identity | (Fail : recovery_policy) -> ());
    Array.iter
      (fun i ->
        res.(i) <- None;
        outcomes.(i) <- Corrupt)
      !flagged
  end

(* Stage 5, the fold: outcome lists in block order. *)
let info_of blocking outcomes =
  let degraded = ref [] and perturbed = ref [] in
  let recovered = ref [] and corrupt = ref [] in
  for i = Array.length outcomes - 1 downto 0 do
    match outcomes.(i) with
    | Healthy -> ()
    | Degraded -> degraded := i :: !degraded
    | Perturbed -> perturbed := i :: !perturbed
    | Recovered -> recovered := i :: !recovered
    | Corrupt -> corrupt := i :: !corrupt
  done;
  {
    blocking;
    singular_blocks = !degraded;
    (* Residual corruption counts as degradation too: the block ends up
       unpreconditioned exactly like a singular one. *)
    degraded_blocks = List.merge compare !degraded !corrupt;
    perturbed_blocks = !perturbed;
    recovered_blocks = !recovered;
    corrupt_blocks = !corrupt;
  }

(* Stage 5, the report: the [Fail] raises (smallest index first), the log
   lines, and the obs counters with a zero-duration setup span (the
   launches inside carry their own modelled time; wall-clock never enters
   a trace). *)
let report ~variant ~policy ~recovery ~obs info =
  (match (policy, info.singular_blocks) with
  | Fail, i :: _ -> raise (Singular_block { block = i; variant })
  | _ -> ());
  (match (recovery, info.corrupt_blocks) with
  | (Fail : recovery_policy), i :: _ -> raise (Fault_detected { block = i; variant })
  | _ -> ());
  let log level msg = List.iter (fun i -> Log.msg level (fun m -> m msg i)) in
  log Logs.Warning "singular diagonal block %d: identity fallback"
    info.singular_blocks;
  log Logs.Info "singular diagonal block %d: factored after diagonal shift"
    info.perturbed_blocks;
  log Logs.Info "fault detected in diagonal block %d: recomputed cleanly"
    info.recovered_blocks;
  log Logs.Warning "fault detected in diagonal block %d: identity fallback"
    info.corrupt_blocks;
  if Vblu_obs.Ctx.enabled obs then begin
    let sizes = info.blocking.Supervariable.sizes in
    let counts =
      [
        ("blocks", Array.length sizes);
        ("degraded", List.length info.singular_blocks);
        ("perturbed", List.length info.perturbed_blocks);
        ("recovered", List.length info.recovered_blocks);
        ("corrupt", List.length info.corrupt_blocks);
      ]
    in
    Vblu_obs.Ctx.span_dur obs ~cat:"precond" ~dur:0.0 "bj.setup"
      ~args:
        (("variant", Vblu_obs.Trace.Str (variant_name variant))
        :: List.map (fun (k, c) -> (k, Vblu_obs.Trace.Int c)) counts);
    Vblu_obs.Ctx.incr obs "bj.setup.count" 1.0;
    List.iter (fun (k, c) -> Vblu_obs.Ctx.incr obs ("bj." ^ k) (float_of_int c)) counts;
    Array.iter (fun s -> Vblu_obs.Ctx.observe obs "bj.block_size" (float_of_int s)) sizes
  end

(* Stage 6: the apply.  Each block solver reads and writes its own
   segment in place (no per-apply [Array.sub] or result copies). *)
let apply_closure ~pool ~n (blk : Supervariable.blocking) solvers =
  let starts = blk.Supervariable.starts in
  let k = Array.length starts in
  fun r ->
    let y = Array.make n 0.0 in
    Pool.parallel_for pool ~lo:0 ~hi:k (fun i -> solvers.(i).solve_into r starts.(i) y);
    y

let instrument ~obs = Preconditioner.instrument ~obs ~span:"bj.apply" ~counter:"bj.apply.count"

let extract (a : Csr.t) (blk : Supervariable.blocking) i =
  Csr.extract_block a ~row_start:blk.Supervariable.starts.(i)
    ~size:blk.Supervariable.sizes.(i)

(* The point-Jacobi special case: a 1x1 block is inverted by one
   reciprocal, multiplied in at apply. *)
let scalar_setup ~prec ~policy (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Block_jacobi.create: matrix not square";
  let outcomes = Array.make n Healthy in
  let inv =
    Array.mapi
      (fun i di ->
        if di = 0.0 then
          match policy with
          | Fail | Identity_block ->
            outcomes.(i) <- Degraded;
            1.0
          | Perturb eps ->
            (* A zero 1x1 block has no scale of its own: shift by [eps]
               outright (same rule as [perturbed_copy]). *)
            outcomes.(i) <- Perturbed;
            1.0 /. eps
        else 1.0 /. di)
      (Csr.diagonal a)
  in
  let apply r = Array.init n (fun i -> Precision.mul prec inv.(i) r.(i)) in
  (Supervariable.uniform ~n ~block_size:1, apply, outcomes)

(* ─────────────────────────── Block state ────────────────────────────

   The engine installs its results into a [handle]: per block the factors,
   the solver its apply closure reads, and the outcome, plus the value
   snapshot a later refresh tests for drift.  [create] builds one and keeps
   only its preconditioner; [handle]/[update] keep it, and a refresh runs
   the engine over the dirty blocks only — the dirty sets of one or
   several handles going into ONE batched LU launch — while clean blocks
   keep their factors, pivots and outcome bitwise. *)

type update_stats = {
  dirty_blocks : int list;
  refactored : int;
  reused : int;
  launches : int;
  setup_transactions : int;
  modelled_seconds : float;
}

type handle = {
  u_engine : engine;
  u_blocking : Supervariable.blocking;
  u_row_ptr : int array;  (* pattern fingerprint, frozen at build *)
  u_col_idx : int array;
  u_values : float array;  (* CSR values as of the last refresh (copy) *)
  u_entries : int array array;
      (* per block: CSR value indices inside the diagonal block *)
  u_factors : Lu.factors option array;
      (* LU factors; [None] = identity fallback, not factored yet, or a
         host variant's block *)
  u_outcomes : outcome array;
  u_solvers : block_solver array;  (* cells swapped in place by refreshes *)
  u_precond : Preconditioner.t;  (* applies through [u_solvers]; stays valid *)
  mutable u_last : update_stats;
}

(* CSR value indices falling inside each diagonal block — computed once
   per handle so every refresh's dirty test is a flat sweep over the
   block's own entries (off-diagonal drift cannot dirty a Jacobi block). *)
let diag_entries blk row_ptr col_idx =
  let starts = blk.Supervariable.starts and sizes = blk.Supervariable.sizes in
  Array.init (Array.length starts) (fun i ->
      let lo = starts.(i) in
      let hi = lo + sizes.(i) in
      let acc = ref [] in
      for r = hi - 1 downto lo do
        for p = row_ptr.(r + 1) - 1 downto row_ptr.(r) do
          let c = col_idx.(p) in
          if c >= lo && c < hi then acc := p :: !acc
        done
      done;
      Array.of_list !acc)

let entry_dirty ~tol old_vals new_vals p =
  if tol <= 0.0 then
    not
      (Int64.equal (Int64.bits_of_float old_vals.(p)) (Int64.bits_of_float new_vals.(p)))
  else
    let d = Float.abs (new_vals.(p) -. old_vals.(p)) in
    Float.is_nan d || d > tol

let block_count h = Array.length h.u_blocking.Supervariable.starts

let dirty_set ~tol h (a : Csr.t) ~also =
  let acc = ref [] in
  for i = block_count h - 1 downto 0 do
    if
      also i
      || Array.exists (entry_dirty ~tol h.u_values a.Csr.values) h.u_entries.(i)
    then acc := i :: !acc
  done;
  Array.of_list !acc

let stats_of ~blocks dirty (tally : tally) =
  let nd = Array.length dirty in
  {
    dirty_blocks = Array.to_list dirty;
    refactored = nd;
    reused = blocks - nd;
    launches = tally.launches;
    setup_transactions = tally.tx;
    modelled_seconds = tally.modelled;
  }

let no_stats = stats_of ~blocks:0 [||] (new_tally ())

(* Stage 1: the checked blocking and the value snapshot, every block still
   unfactored (identity solver, no factors). *)
let pending e ~who ~max_block_size ?blocking (a : Csr.t) =
  let blk = Supervariable.checked_blocking ~who ~max_block_size ?blocking a in
  let n = a.Csr.n_rows and k = Array.length blk.Supervariable.starts in
  let solvers = Array.map identity_solver blk.Supervariable.sizes in
  let row_ptr = Array.copy a.Csr.row_ptr and col_idx = Array.copy a.Csr.col_idx in
  let name =
    Printf.sprintf "block-jacobi(%s,%d)" (variant_name e.variant) max_block_size
  in
  {
    u_engine = e;
    u_blocking = blk;
    u_row_ptr = row_ptr;
    u_col_idx = col_idx;
    u_values = Array.copy a.Csr.values;
    u_entries = diag_entries blk row_ptr col_idx;
    u_factors = Array.make k None;
    u_outcomes = Array.make k Healthy;
    u_solvers = solvers;
    u_precond =
      {
        Preconditioner.name;
        dim = n;
        setup_seconds = 0.0;
        apply = instrument ~obs:e.obs (apply_closure ~pool:e.pool ~n blk solvers);
      };
    u_last = no_stats;
  }

let check_pattern ~who ~row_ptr ~col_idx (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols || n <> Array.length row_ptr - 1 then
    invalid_arg (who ^ ": dimension mismatch");
  if not (a.Csr.row_ptr = row_ptr && a.Csr.col_idx = col_idx) then
    invalid_arg (who ^ ": sparsity pattern changed (build a new handle)")

let check_matrix ~who h = check_pattern ~who ~row_ptr:h.u_row_ptr ~col_idx:h.u_col_idx

(* Stages 1–3 over the [dirty] blocks of several handles at once: one
   extraction sweep and one LU launch (plus one rescue launch under
   [Perturb]).  Results come in job-major order, the raw launch covering
   them at the same positions. *)
let refactor e tally ?faults ?abft jobs =
  let owner =
    Array.concat
      (Array.to_list (Array.mapi (fun j (_, _, dirty) -> Array.map (fun i -> (j, i)) dirty) jobs))
  in
  let mats =
    Pool.parallel_init e.pool (Array.length owner) (fun g ->
        let j, i = owner.(g) in
        let h, a, _ = jobs.(j) in
        extract a h.u_blocking i)
  in
  let res, outcomes, launch = setup_blocks e tally ?faults ?abft mats in
  (mats, res, outcomes, launch)

(* Install the results at [base ..] for [h]'s [dirty] blocks, and take the
   value snapshot of [a]. *)
let install h (a : Csr.t) dirty ~base res outcomes =
  Array.iteri
    (fun q i ->
      let f = Option.map fst res.(base + q) in
      h.u_factors.(i) <- Option.bind f (fun f -> f.lu);
      h.u_solvers.(i) <-
        (match f with
        | Some f -> f.solver
        | None -> identity_solver h.u_blocking.Supervariable.sizes.(i));
      h.u_outcomes.(i) <- outcomes.(base + q))
    dirty;
  Array.blit a.Csr.values 0 h.u_values 0 (Array.length h.u_values)

let create ?(pool = Pool.sequential) ?(prec = Precision.Double) ?(variant = Lu)
    ?(policy = Identity_block) ?faults ?(abft = false)
    ?(recovery = Recompute 1) ?(max_block_size = 32) ?blocking ?obs
    (a : Csr.t) =
  let (name, blk, apply, outcomes), setup_seconds =
    Preconditioner.timed (fun () ->
        match variant with
        | Scalar ->
          let blk, apply, outcomes = scalar_setup ~prec ~policy a in
          ("jacobi", blk, instrument ~obs apply, outcomes)
        | Lu | Gh | Ght | Gje_inverse | Cholesky ->
          let e = { pool; prec; variant; policy; layout = Batch.Blocked; obs } in
          let h = pending e ~who:"Block_jacobi.create" ~max_block_size ?blocking a in
          let all = Array.init (block_count h) Fun.id in
          let tally = new_tally () in
          let mats, res, outcomes, _ = refactor e tally [| (h, a, all) |] in
          protect e tally ~faults ~abft ~recovery mats res outcomes;
          install h a all ~base:0 res outcomes;
          let p = h.u_precond in
          (p.Preconditioner.name, h.u_blocking, p.Preconditioner.apply, h.u_outcomes))
  in
  let info = info_of blk outcomes in
  report ~variant ~policy ~recovery ~obs info;
  ({ Preconditioner.name; dim = a.Csr.n_rows; setup_seconds; apply }, info)

(* [update]'s refresh: the engine over one handle's [dirty] blocks. *)
let refresh_one h (a : Csr.t) dirty =
  let tally = new_tally () in
  let _, res, outcomes, _ = refactor h.u_engine tally [| (h, a, dirty) |] in
  install h a dirty ~base:0 res outcomes;
  h.u_last <- stats_of ~blocks:(block_count h) dirty tally;
  let e = h.u_engine in
  report ~variant:Lu ~policy:e.policy ~recovery:Degrade_to_identity ~obs:e.obs
    (info_of h.u_blocking h.u_outcomes);
  h.u_last

let handle ?(pool = Pool.sequential) ?(prec = Precision.Double)
    ?(policy = Identity_block) ?(layout = Batch.Blocked)
    ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let e = { pool; prec; variant = Lu; policy; layout; obs } in
  let h, setup_seconds =
    Preconditioner.timed (fun () ->
        let h = pending e ~who:"Block_jacobi.handle" ~max_block_size ?blocking a in
        let stats = refresh_one h a (Array.init (block_count h) Fun.id) in
        Vblu_obs.Setup_metrics.record obs ~family:"jacobi"
          ~fresh:stats.refactored ~reused:0 ~dirty:0;
        h)
  in
  { h with u_precond = { h.u_precond with Preconditioner.setup_seconds } }

let update ?(tol = 0.0) ?(force_all = false) h (a : Csr.t) =
  check_matrix ~who:"Block_jacobi.update" h a;
  let stats = refresh_one h a (dirty_set ~tol h a ~also:(fun _ -> force_all)) in
  Vblu_obs.Setup_metrics.record h.u_engine.obs ~family:"jacobi"
    ~fresh:stats.refactored ~reused:stats.reused ~dirty:stats.refactored;
  stats

type wave = {
  handles : handle array;
  blocks : (Lu.factors * int * Fault.verdict) array;
  fresh_blocks : int;
  modelled_us : float;
}

let refresh ?(pool = Pool.sequential) ?(prec = Precision.Double) ?faults
    ?(abft = false) ?obs requests =
  let e = { pool; prec; variant = Lu; policy = Identity_block; layout = Batch.Blocked; obs } in
  let jobs =
    Array.map
      (fun ((a : Csr.t), max_block_size, cached) ->
        let h =
          match cached with
          | Some h ->
            check_matrix ~who:"Block_jacobi.refresh" h a;
            h
          | None -> pending e ~who:"Block_jacobi.refresh" ~max_block_size a
        in
        (* Blocks without factors — never factored, broken down or
           invalidated — refactor whatever their values. *)
        (h, a, dirty_set ~tol:0.0 h a ~also:(fun i -> Option.is_none h.u_factors.(i))))
      requests
  in
  let tally = new_tally () in
  let _, res, outcomes, launch = refactor e tally ?faults ~abft jobs in
  let base = ref 0 in
  let blocks =
    Array.mapi
      (fun j (h, a, dirty) ->
        (* Per block: the kept factors when reused, else the raw launch
           output — frozen partial factors for a block that broke down. *)
        let pos = Array.make (block_count h) (-1) in
        Array.iteri (fun q i -> pos.(i) <- !base + q) dirty;
        let blocks =
          Array.mapi
            (fun i p ->
              match launch with
              | Some lu when p >= 0 ->
                let f =
                  match res.(p) with
                  | Some ({ lu = Some f; _ }, _) -> f
                  | _ -> launch_factors lu p
                in
                (f, lu.Batched_lu.info.(p), lu.Batched_lu.verdicts.(p))
              | _ -> (Option.get h.u_factors.(i), 0, Fault.Unchecked))
            pos
        in
        (* Requests sharing a handle (a problem resubmitted within one
           wave) all read its state from the start of the wave; the last
           of them installs. *)
        let later = Array.sub jobs (j + 1) (Array.length jobs - j - 1) in
        if not (Array.exists (fun (h', _, _) -> h' == h) later) then
          install h a dirty ~base:!base res outcomes;
        base := !base + Array.length dirty;
        blocks)
      jobs
  in
  {
    handles = Array.map (fun (h, _, _) -> h) jobs;
    blocks = Array.concat (Array.to_list blocks);
    fresh_blocks = !base;
    modelled_us =
      Option.fold ~none:0.0 ~some:(fun lu -> lu.Batched_lu.stats.Launch.time_us) launch;
  }

let invalidate h i =
  h.u_factors.(i) <- None;
  h.u_solvers.(i) <- identity_solver h.u_blocking.Supervariable.sizes.(i);
  h.u_outcomes.(i) <- Corrupt

let precond h = h.u_precond
let handle_blocking h = h.u_blocking
let last_update h = h.u_last
let handle_factors h = h.u_factors
let handle_info h = info_of h.u_blocking h.u_outcomes
