(* The benchmark's own tests: order statistics, span arithmetic, metric
   names, and a smoke run of every workload. *)

open Wallbench

(* The reported percentiles are the highest with 10 samples beyond them:
   p75 at 48 systems or 40 steps, p99 at 1,000 completions. *)
let percentile_rule () =
  let supported ~n p want =
    Alcotest.(check bool) (Printf.sprintf "p%g of %d" p n) want (Stats.supported ~n p)
  in
  supported ~n:48 75.0 true;
  supported ~n:48 90.0 false;
  supported ~n:40 75.0 true;
  supported ~n:39 75.0 false;
  supported ~n:20 50.0 true;
  supported ~n:19 50.0 false;
  supported ~n:1000 99.0 true;
  supported ~n:999 99.0 false;
  supported ~n:10000 99.9 true;
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "p75" 75.0 (Stats.percentile xs 75.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Stats.percentile xs 99.0);
  Alcotest.(check (float 0.0)) "median of 2" 1.0 (Stats.median [| 2.0; 1.0 |])

let self_time () =
  let t = Trace.create () in
  let root = Trace.record t ~parent:(-1) ~start:0.0 ~stop:10.0 "root" in
  let a = Trace.record t ~parent:root ~start:1.0 ~stop:4.0 "a" in
  let _ = Trace.record t ~parent:root ~start:3.0 ~stop:6.0 "b" in
  let _ = Trace.record t ~parent:a ~start:2.0 ~stop:3.0 "a.child" in
  (* A child running past its parent's end only covers the overlap. *)
  let _ = Trace.record t ~parent:root ~start:9.0 ~stop:12.0 "late" in
  let self = Trace.self_times t in
  let close = Alcotest.(check (float 1e-12)) in
  close "root: 10 minus the union [1,6] and [9,10]" 4.0 self.(0);
  close "a: 3 minus its child" 2.0 self.(1);
  close "b has no children" 3.0 self.(2);
  close "leaf" 1.0 self.(3);
  close "self_total by name" 2.0 (Trace.self_total t "a");
  close "total by name" 3.0 (Trace.total t "a");
  Alcotest.(check int) "count" 1 (Trace.count t "root")

let live_spans () =
  let t = Trace.create () in
  let tr = Some t in
  Trace.span tr ~item:7 "outer" (fun () ->
      Trace.span tr "inner" ignore;
      Trace.span tr "inner" ignore);
  (try Trace.span tr "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Trace.spans t in
  Alcotest.(check int) "spans" 4 (Array.length spans);
  Alcotest.(check int) "inner parent" 0 spans.(1).Trace.parent;
  Alcotest.(check int) "item kept" 7 spans.(0).Trace.item;
  Alcotest.(check int) "closed span leaves no parent open" (-1) spans.(3).Trace.parent;
  Alcotest.(check bool) "self within total" true
    (Trace.self_total t "outer" <= Trace.total t "outer");
  Alcotest.(check int) "untraced runs the body" 3 (Trace.span None "x" (fun () -> 3))

let smoke_ctx ~seed ~tracing =
  { Run.seed; seconds = 0.0; smoke = true; tracing }

let trace_out = Filename.temp_file "wallbench" ".json"

let names_of line =
  match Vblu_obs.Jsonx.of_string line with
  | Ok (Vblu_obs.Jsonx.Obj fields) ->
    Alcotest.(check (list string)) "result keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    (match List.assoc "metrics" fields with
    | Vblu_obs.Jsonx.Obj ms -> List.map fst ms
    | _ -> Alcotest.fail "metrics is not an object")
  | _ -> Alcotest.fail ("result line is not a JSON object: " ^ line)

let run_line name run ctx =
  match Report.run ~name ~trace_out run ctx with
  | Ok line -> line
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* Every workload prints every registered metric, the names are valid, and
   they do not depend on the seed. *)
let names_stable () =
  let spec_names specs = List.map (fun sp -> sp.Metric.name) specs in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Metric.valid_name n))
    (spec_names Metric.registry);
  List.iter
    (fun (name, run) ->
      List.iter
        (fun tracing ->
          let want = spec_names (if tracing then Metric.per_layer else Metric.end_to_end) in
          List.iter
            (fun seed ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s seed %d trace %b" name seed tracing)
                want
                (names_of (run_line name run (smoke_ctx ~seed ~tracing))))
            [ 1; 2 ])
        [ false; true ])
    Report.workloads

(* BENCHMARK.json lists exactly the registered metrics, with their units
   and directions. *)
let benchmark_json () =
  let open Vblu_obs.Jsonx in
  let doc =
    match of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let entries key =
    match member key doc with
    | Some (List l) ->
      List.map
        (fun e ->
          match (member "name" e, member "unit" e, member "better" e) with
          | Some (Str n), Some (Str u), Some (Str b) -> (n, u, b)
          | _ -> Alcotest.fail "malformed metric entry")
        l
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let of_specs =
    List.map (fun sp -> (sp.Metric.name, sp.Metric.unit_, Metric.better_name sp.Metric.better))
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (of_specs Metric.end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (of_specs Metric.per_layer) (entries "per_layer")

let failed_check () =
  let run _ = raise (Run.Check_failed "wrong answer") in
  match Report.run ~name:"fake" ~trace_out run (smoke_ctx ~seed:1 ~tracing:false) with
  | Ok _ -> Alcotest.fail "a failed output check must not print a result"
  | Error msg -> Alcotest.(check string) "reason" "wrong answer" msg

let () =
  Alcotest.run "wallbench"
    [
      ("stats", [ Alcotest.test_case "percentile rule" `Quick percentile_rule ]);
      ( "trace",
        [
          Alcotest.test_case "self time of nested spans" `Quick self_time;
          Alcotest.test_case "live spans" `Quick live_spans;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "BENCHMARK.json matches the registry" `Quick benchmark_json;
          Alcotest.test_case "failed check prints no result" `Quick failed_check;
        ] );
      ("smoke", [ Alcotest.test_case "names valid and seed-independent" `Quick names_stable ]);
    ]
