open Vblu_sparse

type blocking = {
  starts : int array;
  sizes : int array;
}

let row_pattern (a : Csr.t) i =
  Array.sub a.Csr.col_idx a.Csr.row_ptr.(i)
    (a.Csr.row_ptr.(i + 1) - a.Csr.row_ptr.(i))

(* Jaccard index of two sorted index arrays. *)
let jaccard xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 && ny = 0 then 1.0
  else begin
    let inter = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < nx && !j < ny do
      let c = compare xs.(!i) ys.(!j) in
      if c = 0 then begin
        incr inter;
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    float_of_int !inter /. float_of_int (nx + ny - !inter)
  end

let supervariables ?(similarity = 1.0) (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Supervariable: matrix not square";
  if not (similarity > 0.0 && similarity <= 1.0) then
    invalid_arg "Supervariable: similarity must be in (0, 1]";
  let matches cur prev =
    if similarity >= 1.0 then cur = prev else jaccard cur prev >= similarity
  in
  let starts = ref [] in
  let sizes = ref [] in
  let block_start = ref 0 in
  let flush upto =
    if upto > !block_start then begin
      starts := !block_start :: !starts;
      sizes := (upto - !block_start) :: !sizes;
      block_start := upto
    end
  in
  let prev = ref (if n > 0 then row_pattern a 0 else [||]) in
  for i = 1 to n - 1 do
    let cur = row_pattern a i in
    if not (matches cur !prev) then flush i;
    prev := cur
  done;
  flush n;
  {
    starts = Array.of_list (List.rev !starts);
    sizes = Array.of_list (List.rev !sizes);
  }

let blocking ?(max_block_size = 32) ?similarity (a : Csr.t) =
  if max_block_size < 1 then invalid_arg "Supervariable.blocking: bound < 1";
  let sv = supervariables ?similarity a in
  let starts = ref [] in
  let sizes = ref [] in
  let emit start size =
    starts := start :: !starts;
    sizes := size :: !sizes
  in
  (* Greedy agglomeration of adjacent supervariables; oversized
     supervariables are split into bound-sized chunks. *)
  let acc_start = ref 0 in
  let acc_size = ref 0 in
  let flush () =
    if !acc_size > 0 then begin
      emit !acc_start !acc_size;
      acc_start := !acc_start + !acc_size;
      acc_size := 0
    end
  in
  Array.iteri
    (fun k sv_start ->
      let sv_size = sv.sizes.(k) in
      if sv_size >= max_block_size then begin
        flush ();
        acc_start := sv_start;
        let rem = ref sv_size in
        while !rem > 0 do
          let chunk = min max_block_size !rem in
          emit !acc_start chunk;
          acc_start := !acc_start + chunk;
          rem := !rem - chunk
        done
      end
      else if !acc_size + sv_size > max_block_size then begin
        flush ();
        acc_size := sv_size
      end
      else acc_size := !acc_size + sv_size)
    sv.starts;
  flush ();
  {
    starts = Array.of_list (List.rev !starts);
    sizes = Array.of_list (List.rev !sizes);
  }

let uniform ~n ~block_size =
  if n <= 0 || block_size <= 0 then invalid_arg "Supervariable.uniform";
  let k = (n + block_size - 1) / block_size in
  {
    starts = Array.init k (fun i -> i * block_size);
    sizes = Array.init k (fun i -> min block_size (n - (i * block_size)));
  }

let validate ~n { starts; sizes } =
  let k = Array.length starts in
  Array.length sizes = k
  &&
  let pos = ref 0 in
  let ok = ref true in
  for i = 0 to k - 1 do
    if starts.(i) <> !pos || sizes.(i) <= 0 then ok := false;
    pos := !pos + sizes.(i)
  done;
  !ok && !pos = n

(* The warp width every batched kernel maps one block onto. *)
let warp_width = 32

let checked_blocking ~who ?(max_block_size = warp_width) ?blocking:given
    (a : Csr.t) =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  let n, cols = Csr.dims a in
  if n <> cols then fail "matrix not square";
  match given with
  | Some b ->
    if not (validate ~n b) then fail "invalid blocking";
    Array.iter
      (fun s ->
        if s > warp_width then
          fail "diagonal block of size %d exceeds the warp width %d" s warp_width)
      b.sizes;
    b
  | None ->
    if max_block_size < 1 || max_block_size > warp_width then
      fail "max_block_size %d outside the warp range 1..%d" max_block_size warp_width;
    blocking ~max_block_size a
