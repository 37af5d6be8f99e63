(* The host hot loops of the solve path: the arithmetic of every rewritten
   kernel is bit-identical to a reference fold over [Precision.fma]/[div]/
   [mul] (differential), whole solves reproduce pinned iteration counts and
   solution bits (golden), and an IDR(s) iteration allocates O(1) words
   outside the preconditioner (allocation). *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond
open Vblu_krylov
module Suite = Vblu_workloads.Suite

let bits_digest (x : float array) =
  let b = Buffer.create (8 * Array.length x) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) x;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Differential: each kernel against a fold over [Precision] ops       *)

(* The reference kernels below are the same loops written with
   [Precision.fma]/[div]/[mul]/[add]/[sub]; the kernels under test must
   agree with them bit for bit, NaN payloads and signed zeros included. *)

let ref_dot prec x y =
  let acc = ref 0.0 in
  Array.iteri (fun i xi -> acc := Precision.fma prec xi y.(i) !acc) x;
  !acc

let ref_lower prec variant (m : Matrix.t) b =
  let n = Array.length b in
  let a i j = Matrix.get m i j in
  match variant with
  | Trsv.Lazy ->
    for k = 1 to n - 1 do
      let acc = ref b.(k) in
      for j = 0 to k - 1 do
        acc := Precision.fma prec (-.a k j) b.(j) !acc
      done;
      b.(k) <- !acc
    done
  | Trsv.Eager ->
    for k = 0 to n - 2 do
      for i = k + 1 to n - 1 do
        b.(i) <- Precision.fma prec (-.a i k) b.(k) b.(i)
      done
    done

let ref_upper prec variant (m : Matrix.t) b =
  let n = Array.length b in
  let a i j = Matrix.get m i j in
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       if a k k = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       match variant with
       | Trsv.Lazy ->
         let acc = ref b.(k) in
         for j = k + 1 to n - 1 do
           acc := Precision.fma prec (-.a k j) b.(j) !acc
         done;
         b.(k) <- Precision.div prec !acc (a k k)
       | Trsv.Eager ->
         b.(k) <- Precision.div prec b.(k) (a k k);
         for i = 0 to k - 1 do
           b.(i) <- Precision.fma prec (-.a i k) b.(k) b.(i)
         done
     done
   with Exit -> ());
  !info

(* The view solves as pairs over strided storage. *)
let ref_pair prec variant ~mstride ~bstride ~m ~moff ~n ~b ~boff =
  let ma i j = m.(moff + (mstride * (i + (j * n)))) in
  let bat i = boff + (bstride * i) in
  let dotp lo hi k =
    let acc = ref 0.0 in
    for j = lo to hi do
      acc := Precision.add prec (Precision.mul prec (ma k j) b.(bat j)) !acc
    done;
    !acc
  in
  (match variant with
  | Trsv.Eager ->
    for k = 0 to n - 2 do
      for i = k + 1 to n - 1 do
        b.(bat i) <- Precision.fma prec (-.ma i k) b.(bat k) b.(bat i)
      done
    done
  | Trsv.Lazy ->
    for k = 1 to n - 1 do
      b.(bat k) <- Precision.sub prec b.(bat k) (dotp 0 (k - 1) k)
    done);
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       match variant with
       | Trsv.Eager ->
         if ma k k = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         b.(bat k) <- Precision.div prec b.(bat k) (ma k k);
         for i = 0 to k - 1 do
           b.(bat i) <- Precision.fma prec (-.ma i k) b.(bat k) b.(bat i)
         done
       | Trsv.Lazy ->
         let acc = dotp (k + 1) (n - 1) k in
         if ma k k = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         b.(bat k) <- Precision.div prec (Precision.sub prec b.(bat k) acc) (ma k k)
     done
   with Exit -> ());
  !info

let ref_implicit_view prec ~stride ~src ~dst ~off ~n ~perm =
  let tile = Array.init (n * n) (fun e -> src.(off + (stride * e))) in
  let step = Array.make n (-1) in
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let piv = ref (-1) in
       for r = 0 to n - 1 do
         if
           step.(r) < 0
           && (!piv < 0
              || Float.abs tile.(r + (k * n)) > Float.abs tile.(!piv + (k * n)))
         then piv := r
       done;
       let d = tile.(!piv + (k * n)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       step.(!piv) <- k;
       for r = 0 to n - 1 do
         if step.(r) < 0 then begin
           let l = Precision.div prec tile.(r + (k * n)) d in
           tile.(r + (k * n)) <- l;
           for j = k + 1 to n - 1 do
             tile.(r + (j * n)) <-
               Precision.fma prec (-.l) tile.(!piv + (j * n)) tile.(r + (j * n))
           done
         end
       done
     done
   with Exit -> ());
  if !info <> 0 then begin
    let next = ref (!info - 1) in
    Array.iteri
      (fun r k ->
        if k < 0 then begin
          step.(r) <- !next;
          incr next
        end)
      step
  end;
  Array.iteri (fun r k -> perm.(k) <- r) step;
  for j = 0 to n - 1 do
    for r = 0 to n - 1 do
      dst.(off + (stride * (step.(r) + (j * n)))) <- tile.(r + (j * n))
    done
  done;
  !info

let ref_nopivot_view prec ~stride ~src ~dst ~off ~n =
  let at i j = off + (stride * (i + (j * n))) in
  for e = 0 to (n * n) - 1 do
    dst.(off + (stride * e)) <- src.(off + (stride * e))
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let d = dst.(at k k) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       for i = k + 1 to n - 1 do
         dst.(at i k) <- Precision.div prec dst.(at i k) d
       done;
       for j = k + 1 to n - 1 do
         for i = k + 1 to n - 1 do
           dst.(at i j) <- Precision.fma prec (-.dst.(at i k)) dst.(at k j) dst.(at i j)
         done
       done
     done
   with Exit -> ());
  !info

(* Inputs: a precision, a length n in 0..40 and a seed that draws the
   values — one in ten from the specials (NaN, ±Inf, ±0, extremes), the
   rest uniform in [-2, 2). *)
type input = { prec : Precision.t; n : int; seed : int }

let input =
  QCheck.make
    ~print:(fun i -> Printf.sprintf "%s n=%d seed=%d" (Precision.to_string i.prec) i.n i.seed)
    QCheck.Gen.(
      map3
        (fun single n seed ->
          { prec = (if single then Precision.Single else Precision.Double); n; seed })
        bool (int_range 0 40) (int_bound 1_000_000))

let specials = [| nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 1e-310; 3e38; 1e300 |]

let draw st =
  if Random.State.int st 10 = 0 then specials.(Random.State.int st (Array.length specials))
  else Random.State.float st 4.0 -. 2.0

let floats st n = Array.init n (fun _ -> draw st)

(* A square factor block; one draw in four also plants a zero pivot. *)
let square st n =
  let a = floats st (n * n) in
  if n > 0 && Random.State.int st 4 = 0 then begin
    let k = Random.State.int st n in
    a.(k + (k * n)) <- 0.0
  end;
  a

let same (x : float array) (y : float array) =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

let same_f a b = same [| a |] [| b |]

let prop name f = QCheck.Test.make ~count:300 ~name input f

let differential_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x4d07 |]))
    [
      prop "vector dot/nrm2" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let x = floats st n and y = floats st n in
          same_f (Vector.dot ~prec x y) (ref_dot prec x y)
          && same_f (Vector.nrm2 ~prec x) (Precision.round prec (sqrt (ref_dot prec x x))));
      prop "vector scal/axpy/add/sub" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let x = floats st n and y = floats st n and alpha = draw st in
          let z = Array.copy y in
          Vector.scal ~prec alpha z;
          let scal_ok = same z (Array.map (Precision.mul prec alpha) y) in
          let z = Array.copy y in
          Vector.axpy ~prec alpha x z;
          let axpy_ok = same z (Array.mapi (fun i xi -> Precision.fma prec alpha xi y.(i)) x) in
          let d = Array.make n 0.0 in
          Vector.sub_into ~prec x y d;
          let diff = Array.mapi (fun i xi -> Precision.sub prec xi y.(i)) x in
          scal_ok && axpy_ok
          && same (Vector.add ~prec x y) (Array.mapi (fun i xi -> Precision.add prec xi y.(i)) x)
          && same (Vector.sub ~prec x y) diff
          && same d diff);
      prop "csr spmv_into" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let cols = 1 + Random.State.int st 40 in
          let coo = Coo.create ~n_rows:n ~n_cols:cols in
          for _ = 1 to n * 3 do
            Coo.add coo (Random.State.int st n) (Random.State.int st cols) (draw st)
          done;
          let a = Coo.to_csr ~drop_zeros:false coo in
          let x = floats st cols in
          let y = Array.make n 0.0 in
          Csr.spmv_into ~prec a x y;
          let expect =
            Array.init n (fun i ->
                let acc = ref 0.0 in
                for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
                  acc := Precision.fma prec a.Csr.values.(k) x.(a.Csr.col_idx.(k)) !acc
                done;
                !acc)
          in
          same y expect);
      prop "trsv lower/upper, both variants" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let a = square st n in
          let m = Matrix.init n n (fun i j -> a.(i + (j * n))) in
          let b = floats st n in
          List.for_all
            (fun variant ->
              let got = Array.copy b and expect = Array.copy b in
              Trsv.lower_unit_in_place ~prec ~variant m got;
              ref_lower prec variant m expect;
              let lower_ok = same got expect in
              let info = Trsv.upper_in_place_status ~prec ~variant m got in
              let info_ref = ref_upper prec variant m expect in
              lower_ok && info = info_ref && same got expect)
            [ Trsv.Lazy; Trsv.Eager ]);
      prop "trsv pair views, strided" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let mstride = 1 + Random.State.int st 3 and bstride = 1 + Random.State.int st 3 in
          let moff = Random.State.int st 5 and boff = Random.State.int st 5 in
          let m = floats st (moff + (mstride * n * n)) in
          if n > 0 && Random.State.int st 4 = 0 then begin
            let k = Random.State.int st n in
            m.(moff + (mstride * (k + (k * n)))) <- 0.0
          end;
          let b = floats st (boff + (n * bstride)) in
          List.for_all
            (fun variant ->
              let got = Array.copy b and expect = Array.copy b in
              let view =
                match variant with
                | Trsv.Eager -> Trsv.pair_eager_view
                | Trsv.Lazy -> Trsv.pair_lazy_view
              in
              let info = view ~prec ~mstride ~bstride ~m ~moff ~n ~b:got ~boff () in
              let info_ref = ref_pair prec variant ~mstride ~bstride ~m ~moff ~n ~b:expect ~boff in
              info = info_ref && same got expect)
            [ Trsv.Lazy; Trsv.Eager ]);
      prop "lu implicit/nopivot views, strided" (fun { prec; n; seed } ->
          let st = Random.State.make [| seed |] in
          let n = n / 2 and stride = 1 + Random.State.int st 3 in
          let off = Random.State.int st 5 in
          let len = off + (stride * n * n) in
          let src = floats st len in
          if n > 0 && Random.State.bool st then src.(off) <- 0.0;
          let dst () = Array.make len 0.0 in
          let got = dst () and expect = dst () in
          let tile = Array.make (n * n) 0.0 and step = Array.make n 0 in
          let perm = Array.make n 0 and perm_ref = Array.make n 0 in
          let info =
            Lu.factor_implicit_view ~prec ~stride ~src ~dst:got ~off ~n ~tile ~step ~perm ()
          in
          let info_ref =
            ref_implicit_view prec ~stride ~src ~dst:expect ~off ~n ~perm:perm_ref
          in
          let implicit_ok = info = info_ref && perm = perm_ref && same got expect in
          let got = dst () and expect = dst () in
          let info = Lu.factor_nopivot_view ~prec ~stride ~src ~dst:got ~off ~n () in
          let info_ref = ref_nopivot_view prec ~stride ~src ~dst:expect ~off ~n in
          implicit_ok && info = info_ref && same got expect);
    ]

(* ------------------------------------------------------------------ *)
(* Golden: IDR(4) + block-Jacobi(32) on suite matrices                 *)

let suite_system name =
  match Suite.find name with
  | None -> Alcotest.failf "no suite matrix %s" name
  | Some e ->
    let a = Suite.matrix e in
    let st = Random.State.make [| 1; e.Suite.id |] in
    (a, Array.init a.Csr.n_rows (fun _ -> Random.State.float st 2.0 -. 1.0))

let bj ?prec a =
  Block_jacobi.precond (Block_jacobi.handle ?prec ~max_block_size:32 a)

(* (case, solve) pairs; each solve returns the solution and its stats.  The
   digests cover the solution bits and the reported true residual. *)
let golden_solves =
  let idr ?prec ?smoothing name () =
    let a, b = suite_system name in
    Idr.solve ?prec ?smoothing ~s:4 ~precond:(bj ?prec a) a b
  in
  let capped = { Solver.default_config with Solver.max_iters = 300 } in
  [
    ("idr bcsstk18", idr "bcsstk18");
    ("idr dw1024", idr "dw1024");
    ("idr cage10", idr "cage10");
    ("idr dc3", idr "dc3");
    ("idr single dw1024", idr ~prec:Precision.Single "dw1024");
    ("idr smoothing cage10", idr ~smoothing:true "cage10");
    ( "bicgstab dw1024",
      fun () ->
        let a, b = suite_system "dw1024" in
        Bicgstab.solve ~config:capped ~precond:(bj a) a b );
    ( "gmres cage10",
      fun () ->
        let a, b = suite_system "cage10" in
        Gmres.solve ~config:capped ~precond:(bj a) a b );
  ]

(* Recorded before the hot loops were rewritten. *)
let golden_expected =
  [
    ("idr bcsstk18", (49, "77486211558e5b8e4d04b09e886bc82d"));
    ("idr dw1024", (64, "c1df38dddc3e01cd760d7e3bcdd13633"));
    ("idr cage10", (87, "382571c9e37865bd0d9a3799aa636f30"));
    ("idr dc3", (11, "ce359ee7b97bd9876f79d86bdadd749c"));
    ("idr single dw1024", (66, "98ca850b31737787c6c862e4fcf1e7fe"));
    ("idr smoothing cage10", (87, "c5bcda1162b153068e093b7230d745fe"));
    ("bicgstab dw1024", (70, "7bbd73c66e4666bfdfca569c8ecb483f"));
    ("gmres cage10", (113, "37432fcf8760562db636cc35b86e5e2f"));
  ]

let golden_tests =
  List.map
    (fun (name, solve) ->
      Alcotest.test_case name `Quick (fun () ->
          let x, st = solve () in
          let got =
            ( st.Solver.iterations,
              bits_digest (Array.append x [| st.Solver.residual_norm |]) )
          in
          Alcotest.(check (pair int string))
            "iterations, bits" (List.assoc name golden_expected) got))
    golden_solves

(* ------------------------------------------------------------------ *)
(* Allocation: words per IDR(s) iteration outside the preconditioner   *)

(* Point-Jacobi whose apply writes into one buffer it owns, so the only
   allocation a solve sees is the solver's own. *)
let reused_jacobi a =
  let n = a.Csr.n_rows in
  let dinv = Array.map (fun d -> 1.0 /. d) (Csr.diagonal a) in
  let out = Array.make n 0.0 in
  let apply r =
    for i = 0 to n - 1 do
      out.(i) <- r.(i) *. dinv.(i)
    done;
    out
  in
  { Preconditioner.name = "jacobi-reused"; dim = n; setup_seconds = 0.0; apply }

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Words per iteration, as the difference between two solves that stop at
   30 and 130 iterations: the per-solve allocation (iterate, residual,
   shadow space, workspaces, final residual check) cancels.  A full major
   collection before each solve starts both from the same collector state,
   so the counts are exact: without it, the slice and promotion accounting
   of collections that fall inside the solve shows as noise. *)
let words_per_iteration ~nx ~ny =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx ~ny () in
  let b = Array.init a.Csr.n_rows (fun i -> float_of_int ((i * 7) mod 13) -. 6.0) in
  let precond = reused_jacobi a in
  let run max_iters =
    let config = { Solver.default_config with Solver.max_iters; rtol = 0.0 } in
    Gc.full_major ();
    let w0 = words () in
    let _, st = Idr.solve ~s:4 ~config ~precond a b in
    (words () -. w0, st.Solver.iterations)
  in
  let w_lo, i_lo = run 30 and w_hi, i_hi = run 130 in
  Alcotest.(check bool) "solves ran apart" true (i_hi > i_lo);
  (w_hi -. w_lo) /. float_of_int (i_hi - i_lo)

let alloc_test ~nx ~ny () =
  let w = words_per_iteration ~nx ~ny in
  if w > 64.0 then
    Alcotest.failf "IDR(4) on a %dx%d Poisson matrix: %.1f words per iteration (> 64)"
      nx ny w

let alloc_tests =
  [
    Alcotest.test_case "idr n=1024" `Quick (alloc_test ~nx:32 ~ny:32);
    Alcotest.test_case "idr n=8192" `Quick (alloc_test ~nx:128 ~ny:64);
  ]

let () =
  Alcotest.run "hotloop"
    [
      ("differential", differential_tests);
      ("golden", golden_tests);
      ("alloc", alloc_tests);
    ]
