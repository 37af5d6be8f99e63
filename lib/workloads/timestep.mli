(** Time-stepping driver with amortized preconditioner setup.

    The workload the handle/update API (ISSUE 10) exists for: a sequence
    of systems [A(t_k) x_k = b_k] whose sparsity pattern is fixed while
    the values drift — here a 2-D convection–diffusion operator whose
    y-velocity carries a compact perturbation window sweeping through
    the grid rows.  Each step is solved by IDR(s) through one live
    {!Vblu_precond.Block_jacobi} or {!Vblu_precond.Block_ilu0} handle;
    the {!refresh} policy decides {e when} the factors are refreshed and
    the {!mode} decides {e how much} is refactored — [Partial tol]
    refactors only the dirty blocks, [Partial 0.] being bit-identical to
    a full refresh at a fraction of the modelled setup transactions.

    Everything is deterministic: the drift schedule, the right-hand
    sides, the [On_stall] trigger (driven by recorded iteration counts)
    and all modelled setup costs reproduce bitwise across runs, domain
    counts and storage layouts. *)

open Vblu_sparse

type family = Jacobi | Ilu0

val family_name : family -> string
val family_of_string : string -> (family, string) result

(** When to refresh the preconditioner (step 0 always builds fresh):

    - {!Every_step}: refresh before every solve — the baseline;
    - [Every_k k]: refresh when [step mod k = 0];
    - [On_stall g]: refresh when the previous step's iteration count
      exceeded the count recorded at the last refresh by more than
      [iters_growth] — deterministic, since it reads only recorded
      solver statistics. *)
type refresh = Every_step | Every_k of int | On_stall of { iters_growth : int }

val refresh_name : refresh -> string

val refresh_of_string : string -> (refresh, string) result
(** Accepts ["every-step"], ["every:K"], ["on-stall"] (growth 8) and
    ["on-stall:G"]. *)

(** How much to refactor on a refresh: [Full] forces every block,
    [Partial tol] lets dirty-block tracking refactor only blocks whose
    entries moved by more than [tol]. *)
type mode = Full | Partial of float

val mode_name : mode -> string

val matrix :
  ?nx:int -> ?ny:int -> ?peclet:float -> ?drift:float -> step:int -> unit ->
  Csr.t
(** The drifting operator at a given step.  Same stencil and insertion
    order as {!Generators.convection_diffusion_2d}, so every step shares
    one sparsity pattern; [drift] (default [0.05]) scales the velocity
    perturbation inside a moving window of [max 1 (ny/8)] grid rows
    ([drift = 0.] makes every step bitwise identical). *)

val rhs : n:int -> step:int -> float array
(** Deterministic step-dependent right-hand side. *)

type step_stat = {
  step : int;
  refreshed : bool;  (** a build or policy-driven refresh ran. *)
  dirty : int;  (** blocks refactored by this step's refresh. *)
  reused : int;  (** blocks whose factors were reused bitwise. *)
  launches : int;  (** batched kernel launches issued by the refresh. *)
  setup_transactions : int;
      (** modelled 32-byte transactions of those launches. *)
  setup_modelled_seconds : float;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

type result = {
  steps : step_stat array;
  refreshes : int;  (** setups run, counting the step-0 build. *)
  guard_refreshes : int;
      (** full rebuilds forced by the solver's soft-error guard. *)
  total_launches : int;
  total_setup_transactions : int;
  total_setup_modelled_seconds : float;
  total_iterations : int;
  final_residual : float;
  solution_checksum : float;
      (** sum of |x_k|₁ over all steps — the cross-configuration
          equality witness. *)
  elapsed_seconds : float;  (** host wall time of the whole run. *)
}

val run :
  ?pool:Vblu_par.Pool.t ->
  ?nx:int ->
  ?ny:int ->
  ?peclet:float ->
  ?drift:float ->
  ?steps:int ->
  ?family:family ->
  ?refresh:refresh ->
  ?mode:mode ->
  ?max_block_size:int ->
  ?layout:Vblu_core.Batch.layout ->
  ?config:Vblu_krylov.Solver.config ->
  ?obs:Vblu_obs.Ctx.t ->
  unit ->
  result
(** [run ()] steps the workload.  Defaults: a 24×24 grid at Péclet 10
    with [drift = 0.05], 20 steps, the [Jacobi] family, [Every_step]
    refresh, [Partial 0.] mode, [max_block_size = 16].  [?obs] threads
    the context through the handle and the solves and records
    [timestep.steps] / [timestep.iterations].
    @raise Invalid_argument on [steps < 1] or a degenerate grid. *)
