(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around calls into the library's public
   functions; nothing inside the library is instrumented.  Each span keeps
   its name, wall start and end, the span that was open when it started,
   the system / step / request it belongs to, and the words the calling
   domain had allocated at both ends.  Spans stay in memory and are written
   out once, when the benchmark ends. *)

type span = {
  sid : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  item : int;  (** system, step or request id; [-1] when none. *)
  start : float;
  mutable stop : float;
  words0 : float;
  mutable words1 : float;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;
}

let create () = { spans = [||]; len = 0; open_ = [] }

let allocated_words () = Gc.allocated_bytes () /. 8.0

let push t s =
  if t.len = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

let record t ?(item = -1) ?(words0 = 0.0) ?(words1 = 0.0) ~parent ~start
    ~stop name =
  let s = { sid = t.len; name; parent; item; start; stop; words0; words1 } in
  push t s;
  s.sid

let span tr ?item name f =
  match tr with
  | None -> f ()
  | Some t ->
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let words0 = allocated_words () in
    let start = Clock.now () in
    let sid = record t ?item ~words0 ~parent ~start ~stop:start name in
    t.open_ <- sid :: t.open_;
    let close () =
      let s = t.spans.(sid) in
      s.stop <- Clock.now ();
      s.words1 <- allocated_words ();
      t.open_ <- List.tl t.open_
    in
    Fun.protect ~finally:close f

let spans t = Array.sub t.spans 0 t.len

(* Length of [lo, hi) covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (la, lb) -> total +. (lb -. la) | None -> total

let children t =
  let kids = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let s = t.spans.(i) in
    if s.parent >= 0 then kids.(s.parent) <- s :: kids.(s.parent)
  done;
  kids

(* Self time: the span's duration minus the part of it its children
   cover. *)
let self_times t =
  let kids = children t in
  Array.init t.len (fun i ->
      let s = t.spans.(i) in
      s.stop -. s.start
      -. covered ~lo:s.start ~hi:s.stop
           (List.map (fun c -> (c.start, c.stop)) kids.(i)))

let self_words t =
  let kids = children t in
  Array.init t.len (fun i ->
      let s = t.spans.(i) in
      s.words1 -. s.words0
      -. List.fold_left (fun acc c -> acc +. (c.words1 -. c.words0)) 0.0 kids.(i))

let fold_named t name f init =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    if t.spans.(i).name = name then acc := f !acc i t.spans.(i)
  done;
  !acc

let count t name = fold_named t name (fun n _ _ -> n + 1) 0
let total t name = fold_named t name (fun acc _ s -> acc +. (s.stop -. s.start)) 0.0

let self_total t name =
  let self = self_times t in
  fold_named t name (fun acc i _ -> acc +. self.(i)) 0.0

let self_words_total t name =
  let self = self_words t in
  fold_named t name (fun acc i _ -> acc +. self.(i)) 0.0

let to_json t =
  let open Vblu_obs.Jsonx in
  let origin = if t.len = 0 then 0.0 else t.spans.(0).start in
  let us x = Num (Float.round ((x -. origin) *. 1e7) /. 10.0) in
  List
    (Array.to_list
       (Array.map
          (fun s ->
            Obj
              [
                ("id", Num (float_of_int s.sid));
                ("name", Str s.name);
                ("parent", Num (float_of_int s.parent));
                ("item", Num (float_of_int s.item));
                ("start_us", us s.start);
                ("end_us", us s.stop);
              ])
          (spans t)))
