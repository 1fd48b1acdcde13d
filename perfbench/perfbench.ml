(** The benchmark's entry point.

    [perfbench.exe --workload compile|execute|serve --seed N --seconds S
    --trace 0|1] sets up the workload from [perfbench/corpus] (relative to
    the repository root), runs it for about [S] seconds, checks every
    output, and prints one JSON line last: the end-to-end metrics with
    [--trace 0], the per-layer metrics with [--trace 1].  The traced run
    also writes its spans to [perfbench/traces/].

    [perfbench.exe snapshot DIR] regenerates the input corpus in [DIR]. *)

let corpus = "perfbench/corpus"

(* every per-layer metric with its unit, in the order BENCHMARK.json
   lists them; a workload that does not exercise a layer reports 0 *)
let layer_names () =
  let open Serve.Protocol in
  match field (of_string (Corpus.read_file "BENCHMARK.json")) "per_layer" with
  | Some (Arr items) ->
    List.map
      (fun m -> (get_string "name" (field m "name"), get_string "unit" (field m "unit")))
      items
  | _ -> failwith "BENCHMARK.json has no per_layer list"

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload compile|execute|serve --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe snapshot DIR";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "snapshot"; dir ] -> Corpus.snapshot dir
  | _ :: args ->
    let rec parse (w, seed, secs, trace) = function
      | "--workload" :: v :: rest -> parse (Some v, seed, secs, trace) rest
      | "--seed" :: v :: rest -> parse (w, int_of_string v, secs, trace) rest
      | "--seconds" :: v :: rest -> parse (w, seed, float_of_string v, trace) rest
      | "--trace" :: v :: rest -> parse (w, seed, secs, v = "1") rest
      | [] -> (w, seed, secs, trace)
      | _ -> usage ()
    in
    let workload, seed, seconds, trace = parse (None, 1, 10.0, false) args in
    if not (Sys.file_exists (Filename.concat corpus "MANIFEST")) then begin
      prerr_endline ("perfbench: no corpus at " ^ corpus ^ " (run from the repository root)");
      exit 2
    end;
    let run =
      match workload with
      | Some "compile" -> Wl_compile.run
      | Some "execute" -> Wl_execute.run
      | Some "serve" -> Wl_serve.run
      | _ -> usage ()
    in
    let attempted, failed, e2e, layers = run ~corpus ~seed ~seconds ~trace in
    let metrics =
      if trace then begin
        let dir = "perfbench/traces" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Span.write
          (Filename.concat dir
             (Printf.sprintf "%s-seed%d.jsonl" (Option.get workload) seed));
        let layers =
          Common.metric "host.calib_ms" "ms" (1000. *. Common.calib_median ()) :: layers
        in
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun m -> m.Common.m_name = name) layers with
            | Some m -> m
            | None -> Common.metric name unit_ 0.0)
          (layer_names ())
      end
      else e2e @ [ Common.metric "peak_rss_mb" "MiB" (Common.peak_rss_mb ()) ]
    in
    List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !Common.problems);
    print_endline
      (Common.result_line
         { Common.correct = !Common.problems = []; attempted; failed; metrics })
  | [] -> usage ()
