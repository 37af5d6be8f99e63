type variant = Lazy | Eager

let check m b name =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg (name ^ ": matrix not square");
  if Array.length b <> rows then invalid_arg (name ^ ": dimension mismatch")

(* Every loop below is [Precision.fma]/[div]/[mul]/[add]/[sub] spelled out
   inline, with the precision test hoisted out of the loop: the same
   operations in the same order, rounded through binary32 only when
   [single], so the results are those of the [Precision] calls bit for bit.
   The factor is read from [m.Matrix.a] directly: a cross-module
   float-returning call in these loops would box every element, since dev
   builds compile each module [-opaque]. *)

let lower_unit_in_place ?(prec = Precision.Double) ?(variant = Eager) m b =
  check m b "Trsv.lower_unit_in_place";
  let n = Array.length b in
  let single = prec = Precision.Single in
  let a = m.Matrix.a in
  match variant with
  | Lazy ->
    for k = 1 to n - 1 do
      let acc = ref b.(k) in
      for j = 0 to k - 1 do
        let r = (-.a.(k + (j * n)) *. b.(j)) +. !acc in
        acc := if single then Int32.float_of_bits (Int32.bits_of_float r) else r
      done;
      b.(k) <- !acc
    done
  | Eager ->
    for k = 0 to n - 2 do
      let bk = b.(k) in
      for i = k + 1 to n - 1 do
        let r = (-.a.(i + (k * n)) *. bk) +. b.(i) in
        b.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
      done
    done

let upper_in_place_status ?(prec = Precision.Double) ?(variant = Eager) m b =
  check m b "Trsv.upper_in_place";
  let n = Array.length b in
  let single = prec = Precision.Single in
  let a = m.Matrix.a in
  (* On a zero diagonal entry at step [k] the sweep freezes: [info] is set
     to [k + 1], no further element of [b] is written, and the partial
     state (steps [n-1 .. k+1] already applied) is left in place — the same
     state the batched kernel stores back when a warp predicates off a dead
     problem. *)
  let info = ref 0 in
  (try
     match variant with
     | Lazy ->
       for k = n - 1 downto 0 do
         let acc = ref b.(k) in
         for j = k + 1 to n - 1 do
           let r = (-.a.(k + (j * n)) *. b.(j)) +. !acc in
           acc := if single then Int32.float_of_bits (Int32.bits_of_float r) else r
         done;
         let d = a.(k + (k * n)) in
         if d = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         let q = !acc /. d in
         b.(k) <- (if single then Int32.float_of_bits (Int32.bits_of_float q) else q)
       done
     | Eager ->
       for k = n - 1 downto 0 do
         let d = a.(k + (k * n)) in
         if d = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         let q = b.(k) /. d in
         let bk = if single then Int32.float_of_bits (Int32.bits_of_float q) else q in
         b.(k) <- bk;
         for i = 0 to k - 1 do
           let r = (-.a.(i + (k * n)) *. bk) +. b.(i) in
           b.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
         done
       done
   with Exit -> ());
  !info

let upper_in_place ?(prec = Precision.Double) ?(variant = Eager) m b =
  let info = upper_in_place_status ~prec ~variant m b in
  if info <> 0 then raise (Error.Singular (info - 1))

(* Batch-view solves for the direct-execution fast path: the unit-lower /
   upper pair over a column-major n-by-n factor block at [moff] and a
   solution segment at [boff], solved in place.  [mstride]/[bstride]
   (default 1) are the batches' element strides — 1 for the blocked
   layout, the cohort width for interleaved storage, where consecutive
   elements of one problem sit a stride apart: element (i, j) of the block
   is [m.(moff + mstride * (i + j * n))], element i of the segment
   [b.(boff + bstride * i)].  The op schedules replicate the batched warp
   kernels exactly — the eager (AXPY) form issues one FMA per column
   element, the lazy (DOT) form a rounded product per row element folded
   left-to-right — so results are bitwise identical. *)

let pair_eager_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  let single = prec = Precision.Single in
  let cs = mstride * n in
  for k = 0 to n - 2 do
    let bk = b.(boff + (bstride * k)) in
    for i = k + 1 to n - 1 do
      let bi = boff + (bstride * i) in
      let r = (-.m.(moff + (mstride * i) + (cs * k)) *. bk) +. b.(bi) in
      b.(bi) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
    done
  done;
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       let d = m.(moff + (mstride * k) + (cs * k)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let q = b.(boff + (bstride * k)) /. d in
       let bk = if single then Int32.float_of_bits (Int32.bits_of_float q) else q in
       b.(boff + (bstride * k)) <- bk;
       for i = 0 to k - 1 do
         let bi = boff + (bstride * i) in
         let r = (-.m.(moff + (mstride * i) + (cs * k)) *. bk) +. b.(bi) in
         b.(bi) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
       done
     done
   with Exit -> ());
  !info

let pair_lazy_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  let single = prec = Precision.Single in
  let cs = mstride * n in
  (* [acc := add (mul m_kj b_j) acc]: two roundings per element. *)
  for k = 1 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to k - 1 do
      let p = m.(moff + (mstride * k) + (cs * j)) *. b.(boff + (bstride * j)) in
      let p = if single then Int32.float_of_bits (Int32.bits_of_float p) else p in
      let r = p +. !acc in
      acc := if single then Int32.float_of_bits (Int32.bits_of_float r) else r
    done;
    let bk = boff + (bstride * k) in
    let r = b.(bk) -. !acc in
    b.(bk) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
  done;
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       let acc = ref 0.0 in
       for j = k + 1 to n - 1 do
         let p = m.(moff + (mstride * k) + (cs * j)) *. b.(boff + (bstride * j)) in
         let p = if single then Int32.float_of_bits (Int32.bits_of_float p) else p in
         let r = p +. !acc in
         acc := if single then Int32.float_of_bits (Int32.bits_of_float r) else r
       done;
       let diag = m.(moff + (mstride * k) + (cs * k)) in
       if diag = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let bk = boff + (bstride * k) in
       let r = b.(bk) -. !acc in
       let r = if single then Int32.float_of_bits (Int32.bits_of_float r) else r in
       let q = r /. diag in
       b.(bk) <- (if single then Int32.float_of_bits (Int32.bits_of_float q) else q)
     done
   with Exit -> ());
  !info

let apply_perm perm b =
  if Array.length perm <> Array.length b then
    invalid_arg "Trsv.apply_perm: dimension mismatch";
  Array.map (fun k -> b.(k)) perm

let apply_perm_inv perm b =
  if Array.length perm <> Array.length b then
    invalid_arg "Trsv.apply_perm_inv: dimension mismatch";
  let out = Array.make (Array.length b) 0.0 in
  Array.iteri (fun k p -> out.(p) <- b.(k)) perm;
  out

let solve_status ?(prec = Precision.Double) ?(variant = Eager) lu perm b =
  let x = apply_perm perm b in
  lower_unit_in_place ~prec ~variant lu x;
  let info = upper_in_place_status ~prec ~variant lu x in
  (x, info)

let solve ?(prec = Precision.Double) ?(variant = Eager) lu perm b =
  let x, info = solve_status ~prec ~variant lu perm b in
  if info <> 0 then raise (Error.Singular (info - 1));
  x
