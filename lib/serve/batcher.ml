open Vblu_smallblas
open Vblu_sparse
open Vblu_core
open Vblu_precond
open Vblu_fault

type precond = Jacobi | Ilu0

type problem = {
  a : Csr.t;
  rhs : Vector.t;
  max_block_size : int;
  precond : precond;
}

(* Index of the first non-finite entry of [v]. *)
let first_non_finite v =
  let rec from i =
    if i >= Array.length v then None
    else if Float.is_finite v.(i) then from (i + 1)
    else Some i
  in
  from 0

let validate p =
  let n, cols = Csr.dims p.a in
  if n <> cols then
    Error (Printf.sprintf "matrix not square (%dx%d)" n cols)
  else if Array.length p.rhs <> n then
    Error
      (Printf.sprintf "rhs length %d does not match dimension %d"
         (Array.length p.rhs) n)
  else if p.max_block_size < 1 || p.max_block_size > 32 then
    Error
      (Printf.sprintf "max_block_size %d outside the warp range 1..32"
         p.max_block_size)
  else
    match (first_non_finite p.a.Csr.values, first_non_finite p.rhs) with
    | Some q, _ ->
      let row = ref 0 in
      while p.a.Csr.row_ptr.(!row + 1) <= q do
        incr row
      done;
      Error
        (Printf.sprintf "non-finite matrix entry %g at (%d, %d)" p.a.Csr.values.(q)
           !row p.a.Csr.col_idx.(q))
    | None, Some i -> Error (Printf.sprintf "non-finite rhs entry %g at index %d" p.rhs.(i) i)
    | None, None -> Ok ()

type outcome = {
  y : Vector.t;
  blocks : int;
  degraded_blocks : int list;
  faulted_blocks : int list;
}

type launch_report = {
  outcomes : outcome array;
  problems : int;
  coalesced_blocks : int;
  setup_fresh_blocks : int;
  setup_reused_blocks : int;
  modelled_seconds : float;
}

let empty_report =
  { outcomes = [||]; problems = 0; coalesced_blocks = 0;
    setup_fresh_blocks = 0; setup_reused_blocks = 0; modelled_seconds = 0.0 }

(* One block-ILU(0) request: its own batched setup (elimination waves)
   plus one level-scheduled apply — the bits of a direct
   Block_ilu0.create + apply, priced at its modelled wave times.  With a
   cache (fault-free waves only) the setup lives in a Block_ilu0.handle
   keyed by the problem's fingerprint, and a recurring request pays only
   the dirty-closure re-elimination of [Block_ilu0.update ~tol:0.] —
   whose factors are bitwise the fresh ones. *)
let run_ilu0 ~pool ~prec ?faults ~abft ?cache ?obs (p : problem) =
  let precond, info, reused =
    match cache with
    | Some c when faults = None ->
      let h, reused =
        match Setup_cache.find_ilu0 c ~a:p.a ~max_block_size:p.max_block_size with
        | Some h -> (h, (Block_ilu0.update ~tol:0.0 h p.a).Block_jacobi.reused)
        | None ->
          let h =
            Block_ilu0.handle ~pool ~prec ?obs ~max_block_size:p.max_block_size
              p.a
          in
          Setup_cache.store_ilu0 c ~a:p.a ~max_block_size:p.max_block_size h;
          (h, 0)
      in
      (Block_ilu0.precond h, Block_ilu0.handle_info h, reused)
    | _ ->
      let precond, info =
        Block_ilu0.create ~pool ~prec ?faults ~abft ?obs
          ~max_block_size:p.max_block_size p.a
      in
      (precond, info, 0)
  in
  let y = precond.Preconditioner.apply p.rhs in
  let apply_modelled =
    match !(info.Block_ilu0.last_apply) with
    | Some s -> s.Block_ilu0.modelled_seconds
    | None -> 0.0
  in
  let blocks = Array.length info.Block_ilu0.blocking.Supervariable.starts in
  ( {
      y;
      blocks;
      degraded_blocks = info.Block_ilu0.degraded_blocks;
      faulted_blocks = info.Block_ilu0.corrupt_blocks;
    },
    blocks - reused,
    reused,
    info.Block_ilu0.setup_modelled_seconds +. apply_modelled )

(* The coalesced block-Jacobi path over a subset of the wave's problems;
   returns one outcome per subset member, in subset order.  Setup is one
   [Block_jacobi.refresh] over every problem's handle — with a cache
   (fault-free waves only) a recurring problem refactors just its drifted
   or distrusted blocks — and one TRSV wave over every block solves: the
   launch pair the virtual clock prices.  The TRSV wave sees the raw LU
   output even for a block that broke down, so its modelled cost does not
   depend on the cache. *)
let run_jacobi ~pool ~prec ?faults ~abft ?cache ?obs (problems : problem array)
    =
  let np = Array.length problems in
  if np = 0 then empty_report
  else begin
    (* Fault-injection waves bypass the cache entirely — plans address
       blocks by launch position, which reuse would shift. *)
    let cache = match cache with Some c when faults = None -> Some c | _ -> None in
    let wave =
      Block_jacobi.refresh ~pool ~prec ?faults ~abft ?obs
        (Array.map
           (fun p ->
             ( p.a,
               p.max_block_size,
               Option.bind cache (fun c ->
                   Setup_cache.find_jacobi c ~a:p.a ~max_block_size:p.max_block_size) ))
           problems)
    in
    let blockings = Array.map Block_jacobi.handle_blocking wave.Block_jacobi.handles in
    (* [first.(p)] is problem [p]'s first block in the wave's block order. *)
    let first = Array.make (np + 1) 0 in
    for p = 0 to np - 1 do
      first.(p + 1) <- first.(p) + Array.length blockings.(p).Supervariable.starts
    done;
    let segments =
      Array.concat
        (List.init np (fun p ->
             let blk = blockings.(p) in
             Array.map2
               (fun st s -> Array.sub problems.(p).rhs st s)
               blk.Supervariable.starts blk.Supervariable.sizes))
    in
    let blocks = wave.Block_jacobi.blocks in
    let tr =
      Batched_trsv.solve ~pool ~prec ~abft ?obs
        ~factors:(Batch.of_matrices (Array.map (fun (f, _, _) -> f.Lu.lu) blocks))
        ~pivots:(Array.map (fun (f, _, _) -> f.Lu.perm) blocks)
        (Batch.vec_of_vectors segments)
    in
    let failed = function Fault.Failed -> true | _ -> false in
    let broken g =
      let _, info, _ = blocks.(g) in
      info <> 0 || tr.Batched_trsv.info.(g) <> 0
    in
    let faulted g =
      let _, _, verdict = blocks.(g) in
      failed verdict || failed tr.Batched_trsv.verdicts.(g)
    in
    (* Scatter: clean blocks take the batched solution, broken-down ones
       copy the rhs segment through — the same identity fallback (and the
       same bits) as Block_jacobi's degraded path. *)
    let outcomes =
      Array.init np (fun p ->
          let blk = blockings.(p) in
          let k = Array.length blk.Supervariable.starts in
          let y = Array.make (Array.length problems.(p).rhs) 0.0 in
          let degraded = ref [] and faulted_blocks = ref [] in
          for j = k - 1 downto 0 do
            let g = first.(p) + j in
            let st = blk.Supervariable.starts.(j)
            and s = blk.Supervariable.sizes.(j) in
            if broken g then begin
              degraded := j :: !degraded;
              Array.blit problems.(p).rhs st y st s
            end
            else begin
              Array.blit (Batch.vec_get tr.Batched_trsv.solutions g) 0 y st s;
              if faulted g then faulted_blocks := j :: !faulted_blocks
            end
          done;
          { y; blocks = k; degraded_blocks = !degraded; faulted_blocks = !faulted_blocks })
    in
    (* Refresh the cache.  A broken or fault-flagged block refactors at
       the next wave, judged by the last problem holding its handle: that
       problem's refresh is the state the handle kept. *)
    Option.iter
      (fun c ->
        let handles = wave.Block_jacobi.handles in
        Array.iteri
          (fun p h ->
            if not (Array.exists (( == ) h) (Array.sub handles (p + 1) (np - p - 1)))
            then
              for g = first.(p) to first.(p + 1) - 1 do
                if broken g || faulted g then Block_jacobi.invalidate h (g - first.(p))
              done;
            Setup_cache.store_jacobi c ~a:problems.(p).a
              ~max_block_size:problems.(p).max_block_size h)
          handles)
      cache;
    {
      outcomes;
      problems = np;
      coalesced_blocks = first.(np);
      setup_fresh_blocks = wave.Block_jacobi.fresh_blocks;
      setup_reused_blocks = first.(np) - wave.Block_jacobi.fresh_blocks;
      modelled_seconds =
        (wave.Block_jacobi.modelled_us +. tr.Batched_trsv.stats.Vblu_simt.Launch.time_us)
        *. 1e-6;
    }
  end

let run ?(pool = Vblu_par.Pool.sequential) ?(prec = Precision.Double) ?faults
    ?(abft = false) ?cache ?obs (problems : problem array) =
  let np = Array.length problems in
  if np = 0 then empty_report
  else begin
    Array.iter
      (fun p ->
        match validate p with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Serve.Batcher.run: " ^ msg))
      problems;
    let indices family =
      Array.of_list
        (List.filter (fun i -> problems.(i).precond = family) (List.init np Fun.id))
    in
    let jac_idx = indices Jacobi and ilu_idx = indices Ilu0 in
    let jac_report =
      run_jacobi ~pool ~prec ?faults ~abft ?cache ?obs
        (Array.map (fun i -> problems.(i)) jac_idx)
    in
    let outcomes =
      Array.make np
        { y = [||]; blocks = 0; degraded_blocks = []; faulted_blocks = [] }
    in
    Array.iteri
      (fun j i -> outcomes.(i) <- jac_report.outcomes.(j))
      jac_idx;
    let coalesced = ref jac_report.coalesced_blocks
    and modelled = ref jac_report.modelled_seconds in
    let ilu_fresh = ref 0 and ilu_reused = ref 0 in
    Array.iter
      (fun i ->
        let outcome, fresh, reused, seconds =
          run_ilu0 ~pool ~prec ?faults ~abft ?cache ?obs problems.(i)
        in
        outcomes.(i) <- outcome;
        coalesced := !coalesced + outcome.blocks;
        ilu_fresh := !ilu_fresh + fresh;
        ilu_reused := !ilu_reused + reused;
        modelled := !modelled +. seconds)
      ilu_idx;
    if Array.length jac_idx > 0 then
      Vblu_obs.Setup_metrics.record obs ~family:"jacobi"
        ~fresh:jac_report.setup_fresh_blocks
        ~reused:jac_report.setup_reused_blocks
        ~dirty:jac_report.setup_fresh_blocks;
    if Array.length ilu_idx > 0 then
      Vblu_obs.Setup_metrics.record obs ~family:"ilu0" ~fresh:!ilu_fresh
        ~reused:!ilu_reused ~dirty:!ilu_fresh;
    {
      outcomes;
      problems = np;
      coalesced_blocks = !coalesced;
      setup_fresh_blocks = jac_report.setup_fresh_blocks + !ilu_fresh;
      setup_reused_blocks = jac_report.setup_reused_blocks + !ilu_reused;
      modelled_seconds = !modelled;
    }
  end
