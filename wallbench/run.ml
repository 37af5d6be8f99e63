(* What every workload shares: the run context, the output checks and the
   pass loop. *)

type ctx = {
  seed : int;
  seconds : float;  (** wall time the pass loop runs for. *)
  smoke : bool;  (** tiny inputs, for the benchmark's own tests. *)
  tracing : bool;
}

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type outcome = {
  e2e : Metric.t list;
  layers : Metric.t list;  (** from the traced passes; [[]] untraced. *)
  attempted : int;
  failed : int;  (** operations that ended in error. *)
  trace : Trace.t option;
}

let same_bits (x : float array) (y : float array) =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

type 'a passes = {
  plain : 'a list;  (** untraced passes, in order. *)
  traced : 'a list;
  trace : Trace.t option;  (** the recorder all traced passes share. *)
  cache : Metric.t list;  (** launch-cache lookups of the last traced pass. *)
}

(* Runs [pass] at least [min_passes] times (once in smoke mode, twice when
   tracing) and until [ctx.seconds] of wall time have passed, calling
   [check] on each result outside the timed region.  A heap compaction before each pass keeps one
   pass's garbage out of the next one's timings.  With tracing on, passes
   alternate untraced and traced, so the tracing overhead is measured
   under the same conditions. *)
let passes ctx ~min_passes ~check pass =
  let min_passes =
    if ctx.tracing then 2 else if ctx.smoke then 1 else min_passes
  in
  let tr = if ctx.tracing then Some (Trace.create ()) else None in
  let t0 = Clock.now () in
  let plain = ref [] and traced = ref [] and cache = ref [] in
  let k = ref 0 in
  while !k < min_passes || Clock.now () -. t0 < ctx.seconds do
    Gc.compact ();
    if ctx.tracing && !k mod 2 = 1 then begin
      let before = Probes.cache_snapshot () in
      let r = pass tr in
      cache := Probes.cache_metrics ~before ~after:(Probes.cache_snapshot ());
      check r;
      traced := r :: !traced
    end
    else begin
      let r = pass None in
      check r;
      plain := r :: !plain
    end;
    incr k
  done;
  { plain = List.rev !plain; traced = List.rev !traced; trace = tr; cache = !cache }

(* Per-unit medians over passes: element [i] is the median of unit [i]'s
   times (rescaled by {!Speed}) across the passes. *)
let unit_medians = function
  | [] -> invalid_arg "Run.unit_medians: no passes"
  | x :: _ as rows ->
    if List.exists (fun r -> Array.length r <> Array.length x) rows then
      invalid_arg "Run.unit_medians: passes differ in length";
    Array.init (Array.length x) (fun i ->
        Stats.median (Array.of_list (List.map (fun r -> r.(i)) rows)))

let sum = Array.fold_left ( +. ) 0.0
let sum_by f xs = Array.fold_left (fun acc x -> acc +. f x) 0.0 xs
let count_by f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

(* [p] with every application recorded as a ["precond.apply"] span. *)
let traced_precond tr ~item (p : Vblu_precond.Preconditioner.t) =
  match tr with
  | None -> p
  | Some _ ->
    { p with apply = (fun r -> Trace.span tr ~item "precond.apply" (fun () -> p.apply r)) }

(* The true residual of [x] meets [rtol]: |b - A x| <= rtol |b|. *)
let residual_ok ~rtol a b x =
  let ax = Vblu_sparse.Csr.spmv a x in
  let r = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i bi ->
      let d = bi -. ax.(i) in
      r := !r +. (d *. d);
      nb := !nb +. (bi *. bi))
    b;
  Float.sqrt !r <= rtol *. Float.sqrt !nb

(* The end-to-end metrics every workload reports, from the untraced
   passes, all in seconds at reference speed ({!Speed}): [setup] holds one
   sample per set-up; [solve] and [tts] are per-unit medians
   ({!unit_medians}) and [busy] the seconds in which a pass completes its
   [per_pass] units. *)
let e2e ~smoke ~setup ~solve ~tts ~busy ~per_pass ~passes =
  let n = Array.length tts in
  if not smoke then
    check (Stats.supported ~n 75.0) "tts p75 needs 10 samples beyond it (have %d)" n;
  [
    Metric.v ~samples:(Array.length setup) "setup_s" (Stats.median setup);
    Metric.v ~samples:passes "solve_s" (sum solve);
    Metric.v ~samples:n "tts_p50_ms" (1e3 *. Stats.percentile tts 50.0);
    Metric.v ~samples:n "tts_p75_ms" (1e3 *. Stats.percentile tts 75.0);
    Metric.v ~samples:passes "host_rps" (float_of_int per_pass /. busy);
  ]

(* Overhead of tracing: seconds of a traced pass over those of an untraced
   one. *)
let overhead ~plain ~traced =
  Metric.v "trace.overhead_frac" ((traced /. plain) -. 1.0)
