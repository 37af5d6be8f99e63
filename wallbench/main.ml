(* wallbench: the repository's wall-clock benchmark.

   main.exe --workload suite|timestep|serve|all --seed N --seconds S
            --trace 0|1 [--smoke] [--trace-out FILE]

   Prints a table of every metric (name, value, unit, kind, direction,
   sample count) and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of the traced run with --trace 1.
   An output check that fails prints the reason on stderr and exits 1
   without a result line. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite|timestep|serve|all --seed N --seconds S \
     --trace 0|1 [--smoke] [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let tracing = ref false and smoke = ref false and trace_out = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> tracing := (t = "1"); parse rest
    | "--trace-out" :: f :: rest -> trace_out := f; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let selected =
    if !workload = "all" then Wallbench.Report.workloads
    else
      match List.assoc_opt !workload Wallbench.Report.workloads with
      | Some run -> [ (!workload, run) ]
      | None -> usage ()
  in
  let ctx =
    { Wallbench.Run.seed = !seed; seconds = !seconds; smoke = !smoke; tracing = !tracing }
  in
  List.iter
    (fun (name, run) ->
      match Wallbench.Report.run ~name ~trace_out:!trace_out run ctx with
      | Ok line -> print_endline line
      | Error msg ->
        Printf.eprintf "wallbench: %s: output check failed: %s\n%!" name msg;
        exit 1)
    selected
