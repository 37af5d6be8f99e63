(** Injectable service clock.

    Everything time-dependent in the service layer — coalesce waits,
    deadlines, retry backoff, breaker windows — reads time through this
    handle, so tests and the CI soak drive a {!manual} clock and replay
    the exact same schedule on every run and every domain count.  The
    {!manual} clock is advanced explicitly (the service advances it by
    each dispatch window plus the modelled execution time of the launch
    it just made, turning the performance model into the service's
    notion of load); the {!system} clock is for interactive serving and
    follows the host wall clock. *)

type t

val manual : ?start:float -> unit -> t
(** A virtual clock starting at [start] (default 0) that only moves via
    {!advance}. *)

val system : unit -> t
(** Follows the host wall clock ({!Vblu_precond.Wall_clock}, the clock
    the rest of the reproduction uses for wall measurements).  {!advance}
    is a no-op on it: real time cannot be steered. *)

val now : t -> float
(** Current time in seconds. *)

val advance : t -> float -> unit
(** [advance t dt] moves a {!manual} clock forward by [dt] seconds; a
    no-op on a {!system} clock.
    @raise Invalid_argument when [dt < 0] or not finite. *)

val is_manual : t -> bool
