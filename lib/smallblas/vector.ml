type t = float array

let create n = Array.make n 0.0
let init = Array.init
let copy = Array.copy
let dim = Array.length
let fill x v = Array.fill x 0 (Array.length x) v

let blit ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector.blit: dimension mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let default_state = lazy (Random.State.make [| 0x5eed; 0xba7c4 |])

let random ?state ?(lo = -1.0) ?(hi = 1.0) n =
  let st = match state with Some s -> s | None -> Lazy.force default_state in
  Array.init n (fun _ -> lo +. ((hi -. lo) *. Random.State.float st 1.0))

(* The loops below keep the precision test out of the element loop and
   spell out [Precision.fma]/[mul]/[add]/[sub] inline: the same operations
   in the same order, rounded through binary32 only when [single].  A call
   into [Precision] here would box every operand and result, since dev
   builds compile each module [-opaque].  In [alpha *. x.(i)] the element
   is read with [Array.unsafe_get] (the length is checked up front): with
   the bounds-checked read, ocamlopt swaps the operands of the multiply to
   use [alpha]'s box as its memory operand, and when both are NaN the
   result would carry the element's NaN instead of [alpha]'s, which is
   what [Precision.mul] returns. *)

let dot ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.dot: dimension mismatch";
  let single = prec = Precision.Single in
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let r = (x.(i) *. y.(i)) +. !acc in
    acc := if single then Int32.float_of_bits (Int32.bits_of_float r) else r
  done;
  !acc

let nrm2 ?(prec = Precision.Double) x =
  Precision.round prec (sqrt (dot ~prec x x))

let norm_inf x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let scal ?(prec = Precision.Double) alpha x =
  let single = prec = Precision.Single in
  for i = 0 to Array.length x - 1 do
    let r = alpha *. Array.unsafe_get x i in
    x.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
  done

let axpy ?(prec = Precision.Double) alpha x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.axpy: dimension mismatch";
  let single = prec = Precision.Single in
  for i = 0 to Array.length x - 1 do
    let r = (alpha *. Array.unsafe_get x i) +. y.(i) in
    y.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
  done

let sub_into ?(prec = Precision.Double) x y dst =
  if Array.length x <> Array.length y || Array.length x <> Array.length dst
  then invalid_arg "Vector.sub_into: dimension mismatch";
  let single = prec = Precision.Single in
  for i = 0 to Array.length x - 1 do
    let r = x.(i) -. y.(i) in
    dst.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
  done

let add ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.add: dimension mismatch";
  let single = prec = Precision.Single in
  let z = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    let r = x.(i) +. y.(i) in
    z.(i) <- (if single then Int32.float_of_bits (Int32.bits_of_float r) else r)
  done;
  z

let sub ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.sub: dimension mismatch";
  let z = Array.make (Array.length x) 0.0 in
  sub_into ~prec x y z;
  z

let map = Array.map

let max_abs_diff x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.max_abs_diff: dimension mismatch";
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m

let pp ppf x =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    x
