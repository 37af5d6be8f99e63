(** Shared types and plumbing for the iterative solvers.

    The stopping rule matches the paper's experiments: start from a zero
    initial guess, stop once the 2-norm of the residual has dropped by
    [rtol] relative to the right-hand side (10⁻⁶ in Table I), give up after
    [max_iters] (10,000 in Table I). *)

open Vblu_smallblas
open Vblu_precond

type config = {
  max_iters : int;
  rtol : float;  (** relative residual reduction target. *)
  record_history : bool;  (** keep per-iteration residual norms. *)
}

val default_config : config
(** 10,000 iterations, [rtol = 1e-6], no history. *)

type outcome =
  | Converged
  | Max_iterations
  | Breakdown of string
      (** the solver hit a zero denominator or stagnated irrecoverably. *)

type stats = {
  outcome : outcome;
  iterations : int;  (** matrix-vector products with [A] consumed. *)
  residual_norm : float;  (** final true-residual 2-norm. *)
  rhs_norm : float;
  solve_seconds : float;  (** wall time of the solve ({!Vblu_precond.Wall_clock}). *)
  history : float array;  (** residual norms, if recorded. *)
}

val converged : stats -> bool

val pp_stats : Format.formatter -> stats -> unit

(** {1 Internal helpers for the solver implementations} *)

type ctx = {
  prec : Precision.t;
  spmv : Vector.t -> Vector.t -> unit;
      (** the operator: [spmv x y] overwrites [y] with [A·x] ([y] must
          not alias [x]). *)
  mutable precond : Preconditioner.t;
      (** mutable so the soft-error {!guard} can swap in a freshly built
          preconditioner mid-solve. *)
  b_norm : float;
  target : float;  (** absolute residual target [rtol * ‖b‖]. *)
  cfg : config;
  mutable recorded : float list;
  obs : Vblu_obs.Ctx.t option;
      (** observability context shared by {!record}, {!guard_check} and
          {!finish}; [None] (the default) keeps the solve bit-identical
          to the uninstrumented path. *)
  name : string;  (** trace/metric prefix, e.g. ["idr"]. *)
}

val make_ctx :
  ?prec:Precision.t ->
  ?precond:Preconditioner.t ->
  ?obs:Vblu_obs.Ctx.t ->
  ?name:string ->
  Vblu_sparse.Csr.t ->
  Vector.t ->
  config ->
  ctx
(** Validates shapes and builds the solve context.
    @raise Invalid_argument on a non-square matrix or mismatched sizes. *)

val record : ctx -> float -> unit
(** Append to the residual history (when [record_history]) and, with an
    observability context, emit a ["<name>.residual"] counter sample and
    advance the simulated clock by a nominal deterministic 1 µs — the
    solver itself is host code with no modelled kernel time. *)

exception Guard_restart
(** Raised internally by a solver iteration when {!guard_check} asks for a
    restart; each solver catches it and re-arms its recurrences from the
    current iterate. *)

type guard

val guard : ?window:int -> (unit -> Preconditioner.t) -> guard
(** Soft-error guard state for one solve: trips on a non-finite residual
    norm, or on stagnation — no meaningful residual improvement across
    [window] (default 200) consecutive checks.  Solvers build one only
    when the caller passes [?refresh_precond], so default solves are
    bit-identical to the unguarded path. *)

val guard_check :
  ctx -> guard -> float -> [ `Ok | `Restart of string | `Break of string ]
(** Feed one residual norm to the guard.  [`Restart why] is returned at
    most once per solve: the context's preconditioner has already been
    replaced via the refresh function, and the solver should restart its
    recurrences (conventionally by raising {!Guard_restart}).  A second
    trip yields [`Break "guard: ..."], to be reported as a
    {!Breakdown}. *)

val finish :
  ctx -> outcome:outcome -> iterations:int -> x:Vector.t -> b:Vector.t ->
  started:float -> a:Vblu_sparse.Csr.t -> stats
(** Computes the true final residual (not the recurrence residual) and
    assembles the stats record. *)
