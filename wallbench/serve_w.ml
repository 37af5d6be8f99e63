(* Workload [serve]: open-loop Poisson arrivals of block-tridiagonal
   block-Jacobi requests, driven through [Service] on its manual (virtual)
   clock with [Service.default_config] plus the setup cache, on 2 domains.
   A quarter of the requests are recurring tenants (same pattern, drifted
   values).  A fixed ladder of offered loads, as multiples of the nominal
   max_batch/window = 64 requests per virtual ms, is run point by point.
   The seed draws the request stream, which the benchmark generates
   itself: the service receives only the requests. *)

open Vblu_sparse
open Vblu_precond
module Service = Vblu_serve.Service
module Batcher = Vblu_serve.Batcher
module Policy = Vblu_serve.Policy
module Tenant = Vblu_serve.Tenant
module Generators = Vblu_workloads.Generators
module Pool = Vblu_par.Pool

let config = { Service.default_config with Service.setup_cache = true }
let loads = [| 0.5; 0.75; 0.875; 1.0; 1.25; 1.5; 2.0 |]
let repeat_share = 4 (* every 4th request recurs *)
let deadline_windows = 50.0
let p99_limit = 5e-3
let min_completions = 1000

type request = {
  problem : Batcher.problem;
  tenant : string;
  priority : Policy.priority;
  due : float;  (** virtual arrival time. *)
}

let tenants = [| "alpha"; "beta"; "gamma" |]

(* Same pattern, a sprinkling of entries scaled slightly, rhs nudged: what
   a recurring tenant resubmits, and what the setup cache amortizes. *)
let drifted ~i (p : Batcher.problem) =
  let a = p.Batcher.a in
  let values =
    Array.mapi
      (fun q v -> if ((q * 31) + i) mod 17 = 0 then v *. 1.000123 else v)
      a.Csr.values
  in
  let a =
    Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols
      ~row_ptr:(Array.copy a.Csr.row_ptr) ~col_idx:(Array.copy a.Csr.col_idx)
      ~values
  in
  let rhs = Array.mapi (fun q v -> v +. (1e-3 *. float_of_int ((q + i) mod 5))) p.rhs in
  { p with Batcher.a; rhs }

(* [n] requests arriving as a Poisson process at [load] times the nominal
   rate; every [repeat_share]-th request (after the first) resubmits a
   drifted copy of an earlier one. *)
let stream ~seed ~salt ~load n =
  let st = Random.State.make [| seed; salt |] in
  let rate = load *. float_of_int config.Service.max_batch /. config.Service.window in
  let t = ref 0.0 in
  let reqs =
    Array.init n (fun i ->
        let blocks = 2 + Random.State.int st 5 in
        let block_size = 4 + Random.State.int st 13 in
        let a = Generators.block_tridiagonal ~state:st ~blocks ~block_size () in
        let rhs = Array.init a.Csr.n_rows (fun _ -> Random.State.float st 2.0 -. 1.0) in
        let u = Random.State.float st 1.0 in
        let priority =
          if u < 0.2 then Policy.Interactive
          else if u < 0.8 then Policy.Standard
          else Policy.Best_effort
        in
        t := !t -. (Float.log (1.0 -. Random.State.float st 1.0) /. rate);
        {
          problem = { Batcher.a; rhs; max_block_size = 32; precond = Batcher.Jacobi };
          tenant = tenants.(i mod Array.length tenants);
          priority;
          due = !t;
        })
  in
  Array.iteri
    (fun i r ->
      if i > 0 && i mod repeat_share = 0 then
        reqs.(i) <- { r with problem = drifted ~i reqs.(i * 7919 mod i).problem })
    reqs;
  reqs

type point = {
  load : float;
  statuses : Service.status array;
  submitted_at : float array;  (** virtual submit time per request. *)
  health : Service.health;
  launch_walls : float array;  (** seconds of each step that launched. *)
  wall : float;  (** seconds at reference speed. *)
  vend : float;  (** virtual time at drain. *)
}

(* Submit each request once virtual time reaches its due time, step the
   dispatch loop in between, then drain.  Every stretch of service calls is
   timed at reference speed ({!Speed}); [wall] is their sum, and each step
   that launched also lands in [launch_walls]. *)
let run_point ~pool ~sp ~tr ~load reqs =
  let svc, created = Speed.time sp (fun () -> Service.create ~pool config) in
  let wall = ref created in
  let n = Array.length reqs in
  let ids = Array.make n (-1) and submitted_at = Array.make n 0.0 in
  let launch_walls = ref [] in
  let step force =
    let v0 = Service.now svc in
    let (), dt =
      Speed.time sp (fun () -> Trace.span tr "serve.step" (fun () -> Service.step ~force svc))
    in
    wall := !wall +. dt;
    if Service.now svc -. v0 > config.Service.window *. (1.0 +. 1e-9) then
      launch_walls := dt :: !launch_walls
  in
  let idx = ref 0 in
  while !idx < n do
    let now = Service.now svc in
    let (), dt =
      Speed.time sp (fun () ->
          while !idx < n && reqs.(!idx).due <= now do
            let i = !idx in
            let r = reqs.(i) in
            submitted_at.(i) <- now;
            ids.(i) <-
              Trace.span tr ~item:i "serve.submit" (fun () ->
                  Service.submit svc ~tenant:r.tenant ~priority:r.priority
                    ~deadline:(r.due +. (deadline_windows *. config.Service.window))
                    r.problem);
            incr idx
          done)
    in
    wall := !wall +. dt;
    step false
  done;
  while Service.pending svc > 0 do
    step true
  done;
  {
    load;
    statuses = Array.map (Service.status svc) ids;
    submitted_at;
    health = Service.health svc;
    launch_walls = Array.of_list (List.rev !launch_walls);
    wall = !wall;
    vend = Service.now svc;
  }

(* The one-time work before the first request: create the service and run
   one full wave of [max_batch] requests through it. *)
let setup_once ~pool warmup =
  let svc = Service.create ~pool config in
  Array.iter
    (fun r -> ignore (Service.submit svc ~tenant:r.tenant ~priority:r.priority r.problem))
    warmup;
  Service.drain svc

type summary = {
  completed : int;
  rejected : int;
  shed : int;
  failed : int;
  latencies : float array;  (** due to completion, virtual seconds. *)
  lags : float array;  (** submit minus due, virtual seconds. *)
}

let summarize reqs p =
  let lat = ref [] and completed = ref 0 and rejected = ref 0 in
  let shed = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i st ->
      match st with
      | Service.Completed { latency; _ } ->
        incr completed;
        lat := (p.submitted_at.(i) +. latency -. reqs.(i).due) :: !lat
      | Service.Rejected _ -> incr rejected
      | Service.Shed _ -> incr shed
      | Service.Failed _ -> incr failed
      | Service.Pending -> ())
    p.statuses;
  {
    completed = !completed;
    rejected = !rejected;
    shed = !shed;
    failed = !failed;
    latencies = Array.of_list !lat;
    lags = Array.mapi (fun i r -> p.submitted_at.(i) -. r.due) reqs;
  }

(* Outside the timed region: every request is accounted for, and every
   completed, non-demoted result equals a direct block-Jacobi LU apply bit
   for bit (demoted ones return the rhs).  Later passes replay the same
   virtual schedule, so they are compared against the first pass's
   verified results. *)
let check ~reference reqs p =
  let s = summarize reqs p in
  Option.iter
    (fun r ->
      Run.check
        (Array.length r.launch_walls = Array.length p.launch_walls)
        "serve: load %.3f: the virtual schedule changed between passes" p.load)
    reference;
  Run.check
    (s.completed + s.rejected + s.shed + s.failed = Array.length reqs)
    "serve: load %.3f: %d submitted but %d completed + %d rejected + %d shed + %d failed"
    p.load (Array.length reqs) s.completed s.rejected s.shed s.failed;
  Array.iteri
    (fun i st ->
      match st with
      | Service.Completed { y; demoted; _ } ->
        let pr = reqs.(i).problem in
        let want =
          match reference with
          | Some (ref_p : point) -> (
            match ref_p.statuses.(i) with
            | Service.Completed { y; _ } -> y
            | _ -> [||])
          | None when demoted -> pr.Batcher.rhs
          | None ->
            let bj, _ =
              Block_jacobi.create ~prec:config.Service.prec ~variant:Block_jacobi.Lu
                ~max_block_size:pr.Batcher.max_block_size pr.Batcher.a
            in
            bj.Preconditioner.apply pr.Batcher.rhs
        in
        Run.check (Run.same_bits y want)
          "serve: load %.3f: request %d differs from a direct block-Jacobi apply"
          p.load i
      | _ -> ())
    p.statuses

let ms x = 1e3 *. x

let print_ladder reqs points =
  Printf.printf
    "  %-6s %6s %9s %8s %5s %6s %9s %9s %12s %9s\n" "load" "sent" "completed"
    "rejected" "shed" "failed" "p50_vms" "p99_vms" "goodput_rpms" "lag_vms";
  Array.iteri
    (fun j p ->
      let s = summarize reqs.(j) p in
      Printf.printf "  %-6.3f %6d %9d %8d %5d %6d %9.3f %9.3f %12.2f %9.3f\n" p.load
        (Array.length reqs.(j)) s.completed s.rejected s.shed s.failed
        (ms (Stats.percentile s.latencies 50.0))
        (ms (Stats.percentile s.latencies 99.0))
        (float_of_int s.completed /. ms p.vend)
        (ms (Stats.median s.lags)))
    points

(* The ladder's modelled metrics.  A point passes when its p99 meets the
   limit and nothing was shed, rejected or failed; [max_load] is the
   highest load up to which every point passes. *)
let ladder_metrics ~smoke reqs points =
  let sums = Array.mapi (fun j p -> summarize reqs.(j) p) points in
  let at load =
    let j = ref 0 in
    Array.iteri (fun i p -> if p.load = load then j := i) points;
    !j
  in
  let lat load q =
    let s = sums.(at load) in
    if not smoke then
      Run.check
        (s.completed >= min_completions && Stats.supported ~n:s.completed q)
        "serve: load %.2f completed only %d requests" load s.completed;
    Metric.v ~samples:s.completed
      (Printf.sprintf "lat_p%02.0f_ms.load-%.2f" q load)
      (ms (Stats.percentile s.latencies q))
  in
  let passes s =
    s.shed = 0 && s.rejected = 0 && s.failed = 0
    && Stats.percentile s.latencies 99.0 <= p99_limit
  in
  let max_load = ref 0.0 and ok = ref true in
  Array.iteri
    (fun j p ->
      ok := !ok && passes sums.(j);
      if !ok then max_load := p.load)
    points;
  let top = at 2.0 in
  let tot f = Array.fold_left (fun acc s -> acc + f s) 0 sums in
  let submitted = Array.fold_left (fun acc r -> acc + Array.length r) 0 reqs in
  [
    lat 0.5 50.0;
    lat 0.5 99.0;
    lat 1.0 50.0;
    lat 1.0 99.0;
    Metric.v ~samples:(Array.length points) "max_load" !max_load;
    Metric.v ~samples:sums.(top).completed "goodput_rpms"
      (float_of_int sums.(top).completed /. ms points.(top).vend);
    Metric.v ~samples:submitted "failed_frac"
      (float_of_int (tot (fun s -> s.shed + s.rejected + s.failed))
      /. float_of_int submitted);
    Metric.v ~samples:submitted "serve.submit_lag_ms"
      (ms (Stats.median (Array.concat (Array.to_list (Array.map (fun s -> s.lags) sums)))));
    Metric.v "serve.shed" (float_of_int (tot (fun s -> s.shed)));
    Metric.v "serve.rejected" (float_of_int (tot (fun s -> s.rejected)));
  ]

let run (ctx : Run.ctx) =
  let n = if ctx.smoke then 60 else 2000 in
  let reqs =
    Array.mapi (fun j load -> stream ~seed:ctx.seed ~salt:(j + 1) ~load n) loads
  in
  let warmup = stream ~seed:ctx.seed ~salt:0 ~load:1.0 config.Service.max_batch in
  let pool = Pool.create ~num_domains:2 () in
  let sp = Speed.create () in
  (* Set-up is cheap next to a pass, so it is repeated, before the first
     pass and before every later one, and its median taken. *)
  let setups = ref [] in
  let set_up k =
    for _ = 1 to k do
      let (), dt = Speed.time sp (fun () -> setup_once ~pool warmup) in
      setups := dt :: !setups
    done
  in
  set_up 5;
  let reference = ref None in
  let pass tr =
    if tr = None then set_up 3;
    Array.mapi (fun j load -> run_point ~pool ~sp ~tr ~load reqs.(j)) loads
  in
  let check points =
    Array.iteri
      (fun j p -> check ~reference:(Option.map (fun r -> r.(j)) !reference) reqs.(j) p)
      points;
    if !reference = None then reference := Some points
  in
  let { Run.plain; traced; trace = tr; cache } = Run.passes ctx ~min_passes:3 ~check pass in
  let first = Option.get !reference in
  print_ladder reqs first;
  let all = plain @ traced in
  let per_pass = Array.fold_left (fun acc r -> acc + Array.length r) 0 reqs in
  let attempted = List.length all * per_pass in
  let failed =
    List.fold_left
      (fun acc pts ->
        acc
        + Run.count_by
            (fun p ->
              Run.count_by (function Service.Failed _ -> 1 | _ -> 0) p.statuses)
            pts)
      0 all
  in
  let med f ps = Run.unit_medians (List.map f ps) in
  let walls = med (Array.map (fun p -> p.wall)) in
  let launches pts = Array.concat (Array.to_list (Array.map (fun p -> p.launch_walls) pts)) in
  let e2e =
    Run.e2e ~smoke:ctx.smoke ~setup:(Array.of_list !setups) ~solve:(walls plain)
      ~tts:(med launches plain) ~busy:(Run.sum (walls plain)) ~per_pass
      ~passes:(List.length plain)
  in
  let layers =
    match tr with
    | None -> []
    | Some t ->
      let points = List.hd traced in
      let hsum f = Array.fold_left (fun acc p -> acc + f p.health) 0 points in
      let launches = hsum (fun h -> h.Service.h_launches) in
      let fresh = hsum (fun h -> h.Service.h_setup_fresh_blocks)
      and reused = hsum (fun h -> h.Service.h_setup_reused_blocks) in
      let occ =
        Array.fold_left
          (fun acc p ->
            acc +. (p.health.Service.h_mean_occupancy *. float_of_int p.health.Service.h_launches))
          0.0 points
      in
      let submits = Trace.count t "serve.submit" and steps = Trace.count t "serve.step" in
      let budget = if ctx.smoke then 0.01 else 0.5 in
      let mats = Array.map (fun r -> r.problem.Batcher.a) reqs.(0) in
      let bl, blocking = Probes.blocking ~budget ~bound:32 mats in
      let m = Metric.v in
      [
        m ~samples:submits "serve.submit_us"
          (1e6 *. Trace.total t "serve.submit" /. float_of_int (max 1 submits));
        m ~samples:steps "serve.step_ms"
          (1e3 *. Trace.total t "serve.step" /. float_of_int (max 1 steps));
        m "serve.launches" (float_of_int launches);
        m "serve.occupancy" (occ /. float_of_int (max 1 launches));
        m "serve.blocks_per_launch"
          (float_of_int (hsum (fun h -> h.Service.h_coalesced_blocks))
          /. float_of_int (max 1 launches));
        m "serve.setup_reused_frac" (float_of_int reused /. float_of_int (max 1 (fresh + reused)));
        m "serve.retried" (float_of_int (hsum (fun h -> h.Service.h_totals.Tenant.retried)));
        Run.overhead ~plain:(Run.sum (walls plain)) ~traced:(Run.sum (walls traced));
      ]
      @ ladder_metrics ~smoke:ctx.smoke reqs points
      @ blocking
      @ Probes.spmv ~budget mats
      @ Probes.batched ~budget ~pool ~seed:ctx.seed (Probes.diagonal_blocks mats bl)
      @ Probes.fanout ~budget @ cache @ [ Speed.metric sp ]
  in
  { Run.e2e; layers; attempted; failed; trace = tr }
