(** The host wall clock: [CLOCK_MONOTONIC] through
    [bechamel.monotonic_clock].  Every host timer of the library reads it —
    solver and preconditioner-setup seconds, time-stepping elapsed time and
    the service's system clock — so a run on several domains reports real
    elapsed time, not processor time summed over domains. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin; never decreases. *)

val since : float -> float
(** [since t0] is [now () -. t0]. *)
