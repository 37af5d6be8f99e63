(** The preconditioner interface consumed by the Krylov solvers.

    A preconditioner is an operator [apply : r ↦ M⁻¹r] plus bookkeeping
    about what it cost to build — the split the paper's evaluation keeps
    separate (setup in Figure 9's "setup", application inside every solver
    iteration). *)

open Vblu_smallblas

type t = {
  name : string;  (** e.g. ["block-jacobi(lu,32)"]. *)
  dim : int;  (** operand length. *)
  setup_seconds : float;  (** wall time spent building the operator. *)
  apply : Vector.t -> Vector.t;
      (** [apply r] returns [M⁻¹ r]; must not modify [r]. *)
}

val identity : int -> t
(** The unpreconditioned baseline: [apply] is a copy. *)

val apply : t -> Vector.t -> Vector.t
(** [apply t r] checks the dimension and delegates.
    @raise Invalid_argument on a length mismatch. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and reports its elapsed wall time in seconds, read
    from {!Wall_clock} — the clock used for every setup/solve time in the
    reproduction. *)

val instrument :
  obs:Vblu_obs.Ctx.t option ->
  span:string ->
  counter:string ->
  (Vector.t -> Vector.t) ->
  Vector.t ->
  Vector.t
(** [instrument ~obs ~span ~counter apply]: with an enabled context every
    application records a [span] (category ["precond"]) and bumps
    [counter]; without one the bare [apply] is returned untouched.  The
    apply wrapper of every preconditioner family. *)
