(** Supervariable blocking (Chow & Scott; Section II-A of the paper).

    Identifies consecutive variables that share the same column-nonzero
    pattern (the variables of one finite element node form such a
    {e supervariable}), then agglomerates adjacent supervariables into
    diagonal blocks up to a size bound.  The result is the block partition
    block-Jacobi factorizes — this is exactly the MAGMA-sparse routine the
    paper's solver experiments use, with the block-size upper bound as the
    only tuning knob (Table I varies it over 8–32). *)

open Vblu_sparse

type blocking = {
  starts : int array;  (** first row of each diagonal block, ascending. *)
  sizes : int array;  (** block orders; [starts/sizes] tile [0..n-1]. *)
}

val supervariables : ?similarity:float -> Csr.t -> blocking
(** The raw supervariable partition before agglomeration: maximal runs of
    consecutive rows whose column patterns match.  With the default
    [similarity = 1.0] two adjacent rows match only when their patterns are
    identical; a threshold [t < 1] accepts rows whose patterns' Jaccard
    index (|∩| / |∪|) is at least [t] — Chow & Scott's relaxed criterion
    for discretizations where boundary elements perturb otherwise-regular
    node patterns.  @raise Invalid_argument if not square or
    [similarity ∉ (0, 1]]. *)

val blocking : ?max_block_size:int -> ?similarity:float -> Csr.t -> blocking
(** [blocking ~max_block_size a] agglomerates adjacent supervariables
    greedily: a supervariable joins the current block while the block stays
    within [max_block_size] (default 32; supervariables larger than the
    bound are split).  [similarity] is passed to {!supervariables}.
    @raise Invalid_argument on a bound < 1. *)

val uniform : n:int -> block_size:int -> blocking
(** A fixed-size partition (last block possibly smaller) — the structure
    used by the fixed-size kernel benchmarks. *)

val validate : n:int -> blocking -> bool
(** Whether the blocking exactly tiles [0..n-1]. *)

val warp_width : int
(** 32: the largest block a batched kernel factors, one warp lane per
    row. *)

val checked_blocking :
  who:string ->
  ?max_block_size:int ->
  ?blocking:blocking ->
  Csr.t ->
  blocking
(** The boundary check every block-preconditioner entry point shares:
    [blocking] when given, else {!blocking} at [max_block_size] (default
    32).  Every block must fit one warp, so the bound must lie in 1..32.
    @raise Invalid_argument naming [who] if [a] is not square, the given
    blocking does not tile its rows or holds a block larger than 32, or if
    [max_block_size] lies outside 1..32. *)
