open Vblu_sparse

type data =
  | Jacobi of Vblu_precond.Block_jacobi.handle
  | Ilu0 of Vblu_precond.Block_ilu0.handle

type entry = {
  e_row_ptr : int array;
  e_col_idx : int array;
  mutable e_data : data;
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (* insertion order, oldest first *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Serve.Setup_cache.create: capacity < 1";
  { capacity; tbl = Hashtbl.create 64; order = []; hits = 0; misses = 0 }

(* The fingerprint hashes the full pattern (not a sample), so distinct
   patterns practically never collide; the stored pattern arrays are
   still compared on every hit, making a collision harmless rather than
   incorrect. *)
let key ~tag ~max_block_size (a : Csr.t) =
  Digest.string
    (Marshal.to_string
       (tag, a.Csr.n_rows, max_block_size, a.Csr.row_ptr, a.Csr.col_idx)
       [])

let find t ~tag ~max_block_size (a : Csr.t) =
  match Hashtbl.find_opt t.tbl (key ~tag ~max_block_size a) with
  | Some e when e.e_row_ptr = a.Csr.row_ptr && e.e_col_idx = a.Csr.col_idx ->
    t.hits <- t.hits + 1;
    Some e
  | _ ->
    t.misses <- t.misses + 1;
    None

let store t ~tag ~max_block_size (a : Csr.t) data =
  let k = key ~tag ~max_block_size a in
  match Hashtbl.find_opt t.tbl k with
  | Some e -> e.e_data <- data
  | None ->
    if List.length t.order >= t.capacity then begin
      match t.order with
      | oldest :: rest ->
        Hashtbl.remove t.tbl oldest;
        t.order <- rest
      | [] -> ()
    end;
    Hashtbl.replace t.tbl k
      { e_row_ptr = a.Csr.row_ptr; e_col_idx = a.Csr.col_idx; e_data = data };
    t.order <- t.order @ [ k ]

let find_jacobi t ~a ~max_block_size =
  match find t ~tag:0 ~max_block_size a with
  | Some { e_data = Jacobi h; _ } -> Some h
  | _ -> None

let store_jacobi t ~a ~max_block_size h = store t ~tag:0 ~max_block_size a (Jacobi h)

let find_ilu0 t ~a ~max_block_size =
  match find t ~tag:1 ~max_block_size a with
  | Some { e_data = Ilu0 h; _ } -> Some h
  | _ -> None

let store_ilu0 t ~a ~max_block_size h = store t ~tag:1 ~max_block_size a (Ilu0 h)

let stats t = (t.hits, t.misses)
