(** Cross-wave preconditioner-setup cache for recurring requests.

    Time-stepping tenants resubmit the same problem with drifted values
    wave after wave.  The cache keys each problem by its {e structural
    fingerprint} — dimension, sparsity pattern, blocking bound, family —
    and keeps the previous setup alive so the next wave refactors only
    what moved (see {!Vblu_precond.Block_jacobi.update}):

    - block-Jacobi entries hold a live {!Vblu_precond.Block_jacobi.handle}
      whose next coalesced [refresh] refactors only the drifted blocks;
      clean blocks skip the LU launch entirely;
    - block-ILU(0) entries hold a live {!Vblu_precond.Block_ilu0.handle}
      whose [update ~tol:0.] re-eliminates only the dirty DAG closure.

    Reused factors are bitwise the ones a fresh setup would compute, so
    cached waves keep the service's bit-identity contract.  Eviction is
    FIFO at [capacity] fingerprints.  Not thread-safe — callers hold the
    service lock. *)

open Vblu_sparse

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 fingerprints. *)

val find_jacobi :
  t -> a:Csr.t -> max_block_size:int -> Vblu_precond.Block_jacobi.handle option

val store_jacobi :
  t -> a:Csr.t -> max_block_size:int -> Vblu_precond.Block_jacobi.handle -> unit

val find_ilu0 :
  t -> a:Csr.t -> max_block_size:int -> Vblu_precond.Block_ilu0.handle option

val store_ilu0 :
  t -> a:Csr.t -> max_block_size:int -> Vblu_precond.Block_ilu0.handle -> unit

val stats : t -> int * int
(** [(hits, misses)] over the cache's lifetime. *)
