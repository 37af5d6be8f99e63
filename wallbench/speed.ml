(* Host speed, measured by a fixed calibration kernel.

   The benchmark shares its cores with other tenants of the host, and the
   host's speed drifts by up to 2x over tens of seconds (a fixed loop of
   arithmetic takes 0.11 to 0.21 s on the same core, minutes apart).  A
   median over a 30-second run follows that drift.  So every unit of work
   (a system, a step, a ladder point) is timed between samples of a fixed
   kernel, and its wall time is rescaled to the reference speed:
   [t * reference / kernel time around the unit].  The kernel is written
   here, against no library code, so that a change to the program never
   moves it. *)

(* A CSR sweep over the 5-point Laplacian of a 64x64 grid, repeated: the
   indexed loads and multiply-adds of a sparse solve, on a working set
   (about 400 KB) of the size the workloads' matrices have. *)
let nx = 64

let row_ptr, col_idx, values =
  let n = nx * nx in
  let rows =
    Array.init n (fun i ->
        let x = i mod nx and y = i / nx in
        List.filter_map
          (fun (dx, dy, v) ->
            let x' = x + dx and y' = y + dy in
            if x' < 0 || x' >= nx || y' < 0 || y' >= nx then None
            else Some ((y' * nx) + x', v))
          [ (0, -1, -1.0); (-1, 0, -1.0); (0, 0, 4.0); (1, 0, -1.0); (0, 1, -1.0) ])
  in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + List.length r) rows;
  let flat = List.concat (Array.to_list rows) in
  (row_ptr, Array.of_list (List.map fst flat), Array.of_list (List.map snd flat))

let x = Array.init (nx * nx) (fun i -> 1.0 +. (float_of_int (i mod 7) *. 0.125))
let y = Array.make (nx * nx) 0.0

let kernel () =
  let (), dt =
    Clock.time (fun () ->
        for _ = 1 to 50 do
          for i = 0 to (nx * nx) - 1 do
            let acc = ref 0.0 in
            for q = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              acc := !acc +. (values.(q) *. x.(col_idx.(q)))
            done;
            y.(i) <- !acc
          done
        done)
  in
  dt

(* Kernel seconds at the reference speed, a round figure near its time on
   one core of a 2.1 GHz Intel Xeon.  Rescaled times are wall seconds on a
   host of that speed. *)
let reference = 2.5e-3

(* A new sample is taken once [interval] seconds have passed since the
   last one: at most a few percent of the run goes to calibration. *)
let interval = 0.1

type t = { mutable at : float; mutable last : float; mutable samples : float list }

let sample t =
  let c = kernel () in
  t.at <- Clock.now ();
  t.last <- c;
  t.samples <- c :: t.samples

let create () =
  let t = { at = 0.0; last = 0.0; samples = [] } in
  sample t;
  t

let current t =
  if Clock.now () -. t.at >= interval then sample t;
  t.last

(* Time [f]; returns its result and its wall time at reference speed. *)
let time t f =
  let before = current t in
  let r, dt = Clock.time f in
  (r, dt *. reference /. (0.5 *. (before +. current t)))

(* Host speed over the run, relative to the reference (2.0 = twice as
   fast): the median kernel sample against [reference]. *)
let factor t = reference /. Stats.median (Array.of_list t.samples)

let metric t =
  Metric.v ~samples:(List.length t.samples) "host.speed_factor" (factor t)
