(** The factorization-based block-Jacobi preconditioner — the paper's
    target application (Sections II-A, III-C, IV-D).

    One setup engine serves every entry point ({!create},
    {!handle}/{!update} and the serve batcher's {!refresh}): checked
    blocking (every block fits one warp) and extraction; {e one}
    variable-size batched LU launch over every block that needs LU factors
    (the other variants keep their host factorizations and hand on only
    what they cannot factor); one [Perturb] rescue pass over the broken
    blocks; for {!create}, post-setup fault injection, the ABFT check and
    the {!recovery_policy}; then the block-order fold into {!info} with
    the [Fail] raises, log lines and counters.  Blocks are staged in the
    working precision first (rounded to binary32 under [Single], as the
    kernels load them), so every entry point yields the same bits.

    The application (once per Krylov iteration) stays on the host: each
    block solves in place on its segment of the vector, over the pool.

    The [variant] selects the factorization the paper compares:

    - {!Lu}: the small-size batched LU with implicit partial pivoting —
      the paper's contribution;
    - {!Gh} / {!Ght}: Gauss-Huard with column pivoting (normal and
      transpose-friendly storage);
    - {!Gje_inverse}: the inversion-based variant — Gauss-Jordan explicit
      inverses at setup, dense GEMV at application;
    - {!Cholesky}: the paper's future-work variant for SPD systems — LLᵀ
      factors at half the LU cost; blocks that are nonsymmetric or fail
      the positivity test join the batched LU launch;
    - {!Scalar}: plain (point) Jacobi — Table I's leftmost baseline.

    Factorizations report breakdown by status, never by exception, so a
    singular diagonal block never aborts the parallel setup — what happens
    to it is decided by the {!breakdown_policy}, and the affected indices
    are reported in {!info}. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_par
open Vblu_fault

type variant =
  | Lu
  | Gh
  | Ght
  | Gje_inverse
  | Cholesky
  | Scalar

val variant_name : variant -> string

(** What to do with a diagonal block whose ABFT check fails after setup
    (only reachable with [~abft:true]):

    - [Recompute n]: re-factorize the block, up to [n] times — fault-plan
      claims are one-shot per (problem, step), so the retry runs clean
      and restores bit-identical factors; a block whose retries are
      exhausted degrades to the identity and is reported corrupt;
    - {!Degrade_to_identity}: give up immediately — identity on that
      block, reported corrupt;
    - [Fail]: raise {!Fault_detected} (after the parallel setup joins, so
      the reported block index is the smallest and deterministic).

    Declared before {!breakdown_policy} so that the unqualified [Fail]
    constructor keeps meaning "breakdown" everywhere else. *)
type recovery_policy = Recompute of int | Degrade_to_identity | Fail

val recovery_name : recovery_policy -> string
(** ["recompute:N"], ["degrade"], or ["fail"] — the spelling the CLI
    accepts. *)

(** What to do with a diagonal block whose factorization breaks down:

    - {!Fail}: raise {!Singular_block} (after the parallel setup joins, so
      the reported block index is the smallest one and deterministic);
    - {!Identity_block} (the default): use the identity on that block —
      the preconditioner stays well-defined, the block is merely not
      preconditioned (mirrors MAGMA-sparse);
    - [Perturb eps]: retry after adding [eps * scale] to the block's
      diagonal ([scale] = largest absolute entry of the block, [1.0] if
      the block is all zero); if the shifted block still breaks down, fall
      back to the identity as in {!Identity_block}. *)
type breakdown_policy = Fail | Identity_block | Perturb of float

val policy_name : breakdown_policy -> string
(** ["fail"], ["identity"], or ["perturb:EPS"] — the spelling the CLI
    accepts. *)

val perturbed_copy : eps:float -> Matrix.t -> Matrix.t
(** [m] with [eps * scale] added to every diagonal entry, where [scale] is
    the largest absolute entry of the block ([1.0] for an all-zero block)
    — the diagonal-shift rescue behind the [Perturb] policy, shared with
    {!Block_ilu0} so both families patch broken blocks identically. *)

exception Singular_block of { block : int; variant : variant }
(** Raised by {!create} under the {!Fail} policy for the first (smallest
    index) block whose factorization broke down. *)

exception Fault_detected of { block : int; variant : variant }
(** Raised by {!create} under recovery policy [Fail] for the first
    (smallest index) block whose ABFT check failed. *)

type info = {
  blocking : Supervariable.blocking;
  singular_blocks : int list;
      (** back-compatible alias of the singular part of
          [degraded_blocks]. *)
  degraded_blocks : int list;
      (** indices that fell back to the identity, ascending — singular
          blocks plus blocks left corrupt after exhausted recovery. *)
  perturbed_blocks : int list;
      (** indices salvaged by a [Perturb] diagonal shift, ascending. *)
  recovered_blocks : int list;
      (** indices whose detected fault was repaired by a [Recompute]
          retry, ascending. *)
  corrupt_blocks : int list;
      (** indices whose ABFT check still failed after recovery (identity
          fallback), ascending; also counted in [degraded_blocks]. *)
}

(** A block's setup outcome — also a block row's in {!Block_ilu0}. *)
type outcome = Healthy | Degraded | Perturbed | Recovered | Corrupt

val info_of : Supervariable.blocking -> outcome array -> info
(** The block-order fold of per-block outcomes into {!info}: every list
    ascending, [Corrupt] blocks counted in [degraded_blocks] too. *)

val create :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?variant:variant ->
  ?policy:breakdown_policy ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?recovery:recovery_policy ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  Preconditioner.t * info
(** [create a] builds the preconditioner.  [blocking] overrides the
    supervariable partition (e.g. {!Supervariable.uniform} for the kernel
    studies); [max_block_size] (default 32, at most 32) is the
    supervariable agglomeration bound otherwise; [policy] (default
    {!Identity_block}) decides what happens to singular blocks.
    [Preconditioner.t.setup_seconds] covers blocking + extraction +
    factorization.

    [?obs] records setup into an observability context — the LU launches'
    own ["getrf.*"] spans, a zero-duration ["bj.setup"] span (wall-clock
    never enters a trace) with block/outcome counts as args, per-outcome
    registry counters and a block-size histogram — and wraps the returned
    [apply] so every application records a ["bj.apply"] span and bumps
    [bj.apply.count].  Absent means no recording and a closure identical
    to the uninstrumented one.

    [?faults] lets each claimed site corrupt one entry of the affected
    block's stored factors after setup (claims are one-shot, keyed by
    block index, so injection is deterministic across domain counts; the
    {!Scalar} variant carries no factor storage and ignores the plan).
    [~abft:true] verifies every factored block by a residual check
    against the matrix actually factored and applies [?recovery]
    (default [Recompute 1]) to the blocks that fail.  With both left at
    their defaults the setup is bit-identical to the unprotected path.
    @raise Invalid_argument naming [Block_jacobi.create] if [a] is not
    square, the blocking is invalid or a block would exceed 32 rows.
    @raise Singular_block under the {!Fail} breakdown policy.
    @raise Fault_detected under the [Fail] recovery policy. *)

(** {1 Amortized setup}

    Time-stepping drivers re-solve a drifting system whose sparsity
    pattern — hence the supervariable blocking — is fixed.  A {!handle}
    keeps the value snapshot and per-block factors alive across steps so
    {!update} only refactors the blocks whose entries moved: the dirty
    set (per-block max |Δa| against a tolerance) runs through the setup
    engine as one small variable-size batched-LU launch, and clean blocks
    keep their factors, pivots and outcome bitwise, so [update ~tol:0.] is
    bit-identical to a fresh setup.  Handles cover the {!Lu} variant and
    take no post-setup fault plan — amortization targets the fault-free
    steady state. *)

type handle

val entry_dirty : tol:float -> float array -> float array -> int -> bool
(** The per-entry drift test of every refresh: [tol <= 0.] compares the
    bits of [old_vals.(p)] and [new_vals.(p)] (the fresh-setup
    bit-identity contract), a positive [tol] compares |Δa|, a non-finite
    delta always being dirty. *)

type update_stats = {
  dirty_blocks : int list;
      (** indices refactored by this refresh, ascending. *)
  refactored : int;  (** [List.length dirty_blocks]. *)
  reused : int;  (** blocks whose factors were reused bitwise. *)
  launches : int;
      (** batched LU launches issued: 0 when nothing moved, 1 for a
          clean refresh, 2 when a [Perturb] rescue pass ran. *)
  setup_transactions : int;
      (** modelled 32-byte global-memory transactions of those
          launches. *)
  modelled_seconds : float;  (** modelled kernel time of those launches. *)
}

type tally
(** Running modelled cost of the launches one setup or refresh issues. *)

val new_tally : unit -> tally
val note : tally -> Vblu_simt.Launch.stats -> unit
(** [note t stats] adds one launch, its transactions and modelled time. *)

val stats_of : blocks:int -> int array -> tally -> update_stats
(** [stats_of ~blocks dirty t]: the stats of a refresh of the ascending
    [dirty] indices out of [blocks], at the cost [t] recorded. *)

val check_pattern :
  who:string -> row_ptr:int array -> col_idx:int array -> Csr.t -> unit
(** The refresh boundary check: [a] must be square with the frozen CSR
    pattern [row_ptr]/[col_idx].
    @raise Invalid_argument naming [who] on a dimension or pattern
    mismatch. *)

val handle :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?policy:breakdown_policy ->
  ?layout:Vblu_core.Batch.layout ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  handle
(** [handle a] builds a reusable block-Jacobi setup: the engine run over
    every diagonal block, so its factors and application are bitwise those
    of {!create}[ ~variant:Lu] in either precision.  The returned
    {!precond} stays valid across {!update} calls — refreshes swap the
    per-block solvers in place.
    @raise Invalid_argument naming [Block_jacobi.handle] if [a] is not
    square, the blocking is invalid or a block would exceed 32 rows.
    @raise Singular_block under the {!Fail} breakdown policy. *)

val update : ?tol:float -> ?force_all:bool -> handle -> Csr.t -> update_stats
(** [update h a] re-extracts values from [a] (same pattern as the matrix
    the handle was built from) and refactors only the dirty blocks — the
    blocks whose diagonal-block entries changed by more than [tol]
    (default [0.], meaning any bitwise change) — through one batched LU
    launch sized by the drift.  [~force_all:true] refactors every block
    regardless of the tolerance (the full-refresh baseline; also the
    guard-rebuild path).  With [tol = 0.] the handle's factors, pivots
    and outcomes afterwards are bit-identical to a fresh {!handle} on
    [a].  Records [precond.setup.*] metrics, and the [bj.*] counters and
    span {!create} records, when the handle carries an observability
    context.
    @raise Invalid_argument on a dimension or sparsity-pattern mismatch.
    @raise Singular_block under the {!Fail} breakdown policy when a block
    is broken down after the refresh (the refreshed blocks are already
    installed). *)

(** {1 Coalesced refresh} — the serve batcher's setup. *)

type wave = {
  handles : handle array;  (** one per request, cached or new. *)
  blocks : (Lu.factors * int * Fault.verdict) array;
      (** every block of every request, request-major: factors, LU status
          and ABFT verdict — the launch's raw output for a refactored
          block (frozen partial factors if it broke down), the kept
          factors with [0] and [Unchecked] for a reused one. *)
  fresh_blocks : int;  (** blocks the launch factored. *)
  modelled_us : float;  (** modelled launch time, [0.] without one. *)
}

val refresh :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?obs:Vblu_obs.Ctx.t ->
  (Csr.t * int * handle option) array ->
  wave
(** {!update}'s engine over many handles: the [(a, max_block_size,
    cached)] requests share {e one} batched LU launch, which gets
    [?faults]/[?abft] (in-kernel injection by launch position).  A request
    without a handle gets a new, fully factored {!Identity_block} one; a
    cached handle refactors its bitwise-changed blocks and every block
    without factors.  Requests sharing a handle all see its state from
    the start of the wave; the last of them keeps its result.  The
    outcome fold is left to the caller.
    @raise Invalid_argument naming [Block_jacobi.refresh] on a bad matrix,
    bound or pattern. *)

val invalidate : handle -> int -> unit
(** Drop block [i]'s factors (identity, reported corrupt) so the next
    {!refresh} refactors it — for factors a downstream check distrusts. *)

val precond : handle -> Preconditioner.t
(** The live preconditioner; [setup_seconds] covers the initial build. *)

val handle_blocking : handle -> Supervariable.blocking
val last_update : handle -> update_stats
(** Stats of the most recent {!handle} build or {!update} ({!refresh}
    reports its own totals). *)

val handle_info : handle -> info
(** Outcome lists folded from the current per-block state, as {!create}
    folds them ([recovered_blocks] is always empty: handles take no
    post-setup fault plan). *)

val handle_factors : handle -> Lu.factors option array
(** Per-block factors ([None] = identity fallback) — read-only; exposed
    so tests can assert bitwise reuse and fresh/update identity. *)
