(* Runs one workload and turns its outcome into the printed table, the
   trace file and the result line. *)

let write_trace ~path t =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Vblu_obs.Jsonx.to_string (Trace.to_json t));
      output_char oc '\n')

let run ~name ~trace_out run (ctx : Run.ctx) =
  match run ctx with
  | exception Run.Check_failed msg -> Error msg
  | (o : Run.outcome) ->
    let e2e = Metric.complete Metric.end_to_end o.e2e in
    let layers = Metric.complete Metric.per_layer o.layers in
    let bad =
      List.filter (fun m -> not (Float.is_finite m.Metric.value)) (e2e @ layers)
      @ List.filter (fun m -> not (m.Metric.value > 0.0)) e2e
    in
    if bad <> [] then
      Error
        (Printf.sprintf "%s reads %g" (List.hd bad).Metric.spec.name
           (List.hd bad).Metric.value)
    else begin
      Metric.print_table ~title:(name ^ ": end-to-end, untraced passes") e2e;
      Printf.printf "  attempted %d, failed %d\n" o.attempted o.failed;
      let shown =
        match o.trace with
        | None -> e2e
        | Some t ->
          Metric.print_table ~title:(name ^ ": per layer, traced passes") layers;
          let path =
            if trace_out <> "" then trace_out
            else Printf.sprintf ".wallbench/trace-%s-seed%d.json" name ctx.seed
          in
          write_trace ~path t;
          Printf.printf "  %d spans written to %s\n" (Array.length (Trace.spans t)) path;
          layers
      in
      Ok (Metric.json_line ~attempted:o.attempted ~failed:o.failed shown)
    end

let workloads =
  [ ("suite", Suite_w.run); ("timestep", Timestep_w.run); ("serve", Serve_w.run) ]
