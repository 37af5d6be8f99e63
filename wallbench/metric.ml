(* Named, typed measurements, the registry that fixes their names, and the
   two ways the benchmark prints them: a table for people and a JSON line
   for tools. *)

type kind = Wall | Modelled | Count
type better = Lower | Higher

type spec = { name : string; unit_ : string; kind : kind; better : better }

type t = {
  spec : spec;
  samples : int;  (** how many observations the value summarises. *)
  value : float;
}

let kind_name = function Wall -> "wall" | Modelled -> "modelled" | Count -> "count"
let better_name = function Lower -> "lower" | Higher -> "higher"
let s name unit_ kind better = { name; unit_; kind; better }

(* Every workload reports every end-to-end metric; see README.md for what
   each one means on each workload. *)
let end_to_end =
  [
    s "setup_s" "s" Wall Lower;
    s "solve_s" "s" Wall Lower;
    s "tts_p50_ms" "ms" Wall Lower;
    s "tts_p75_ms" "ms" Wall Lower;
    s "host_rps" "1/s" Wall Higher;
  ]

(* Per-layer metrics of the traced run.  A layer a workload leaves idle
   reports 0. *)
let per_layer =
  [
    s "krylov.iterations" "count" Count Lower;
    s "krylov.self_ms" "ms" Wall Lower;
    s "krylov.alloc_words_per_iter" "words" Count Lower;
    s "sparse.spmv_us" "us" Wall Lower;
    s "sparse.spmv_nnz" "count" Count Lower;
    s "sparse.spmv_bytes" "bytes" Count Lower;
    s "precond.apply_us" "us" Wall Lower;
    s "precond.apply_calls" "count" Count Lower;
    s "precond.setup_ms" "ms" Wall Lower;
    s "precond.update_ms" "ms" Wall Lower;
    s "precond.blocking_us" "us" Wall Lower;
    s "precond.blocks" "count" Count Lower;
    s "precond.setup_launches" "count" Count Lower;
    s "precond.setup_tx" "count" Modelled Lower;
    s "precond.setup_modelled_us" "model_us" Modelled Lower;
    s "precond.reuse_frac" "fraction" Count Higher;
    s "precond.ilu0.apply_waves" "count" Modelled Lower;
    s "precond.ilu0.apply_tx" "count" Modelled Lower;
    s "precond.ilu0.apply_modelled_us" "model_us" Modelled Lower;
    s "core.getrf_us" "us" Wall Lower;
    s "core.getrf_problems" "count" Count Lower;
    s "core.getrf_problems_per_s" "1/s" Wall Higher;
    s "core.getrf_tx" "count" Modelled Lower;
    s "core.getrf_modelled_gflops" "GFLOP/s" Modelled Higher;
    s "core.trsv_us" "us" Wall Lower;
    s "core.trsv_tx" "count" Modelled Lower;
    s "core.trsv_modelled_gflops" "GFLOP/s" Modelled Higher;
    s "simt.cache_hit_frac" "fraction" Count Higher;
    s "simt.direct_frac" "fraction" Count Higher;
    s "serve.submit_us" "us" Wall Lower;
    s "serve.step_ms" "ms" Wall Lower;
    s "serve.launches" "count" Count Lower;
    s "serve.occupancy" "fraction" Count Higher;
    s "serve.blocks_per_launch" "count" Count Higher;
    s "serve.setup_reused_frac" "fraction" Count Higher;
    s "serve.submit_lag_ms" "virtual_ms" Modelled Lower;
    s "serve.shed" "count" Count Lower;
    s "serve.rejected" "count" Count Lower;
    s "serve.retried" "count" Count Lower;
    s "lat_p50_ms.load-0.50" "virtual_ms" Modelled Lower;
    s "lat_p99_ms.load-0.50" "virtual_ms" Modelled Lower;
    s "lat_p50_ms.load-1.00" "virtual_ms" Modelled Lower;
    s "lat_p99_ms.load-1.00" "virtual_ms" Modelled Lower;
    s "max_load" "x_nominal" Modelled Higher;
    s "goodput_rpms" "req/virtual_ms" Modelled Higher;
    s "failed_frac" "fraction" Count Lower;
    s "par.fanout_us" "us" Wall Lower;
    s "host.speed_factor" "x_reference" Wall Higher;
    s "trace.overhead_frac" "fraction" Wall Lower;
  ]

let registry = end_to_end @ per_layer

let v ?(samples = 1) name value =
  match List.find_opt (fun sp -> sp.name = name) registry with
  | Some spec -> { spec; samples; value }
  | None -> invalid_arg ("Metric.v: unregistered metric " ^ name)

(* [ms] laid out in [specs] order; a metric the workload did not report
   is an idle layer and reads 0 over 0 samples. *)
let complete specs ms =
  List.iter
    (fun m ->
      if not (List.exists (fun sp -> sp.name = m.spec.name) specs) then
        invalid_arg ("Metric.complete: unexpected metric " ^ m.spec.name))
    ms;
  List.map
    (fun spec ->
      match List.find_opt (fun m -> m.spec.name = spec.name) ms with
      | Some m -> m
      | None -> { spec; samples = 0; value = 0.0 })
    specs

let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let n = String.length s in
  n >= 1 && n <= 64 && String.for_all ok s
  && match s.[0] with '_' | '.' | '-' -> false | _ -> true

let print_table ~title ms =
  Printf.printf "== %s ==\n" title;
  Printf.printf "  %-30s %16s  %-14s %-8s %-6s %s\n" "metric" "value" "unit"
    "kind" "better" "samples";
  List.iter
    (fun m ->
      Printf.printf "  %-30s %16.6g  %-14s %-8s %-6s %d\n" m.spec.name m.value
        m.spec.unit_ (kind_name m.spec.kind) (better_name m.spec.better)
        m.samples)
    ms

let json_line ~attempted ~failed ms =
  let open Vblu_obs.Jsonx in
  to_string
    (Obj
       [
         ("correct", Bool true);
         ("attempted", Num (float_of_int attempted));
         ("failed", Num (float_of_int failed));
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  ( m.spec.name,
                    Obj [ ("value", Num m.value); ("unit", Str m.spec.unit_) ] ))
                ms) );
       ])
