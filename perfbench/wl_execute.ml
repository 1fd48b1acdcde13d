(** Workload [execute]: the four paper applications and the
    inspector-path LAMA gather, compiled during set-up.  Each round runs
    every application three ways, in a seeded order: the Fast engine on
    one domain ([j1]), the Fast engine on a two-domain {!Runtime.Pool}
    ([j2]), and the Modeled engine followed by the machine model over the
    paper's core counts ([modeled]).  No compilation happens in the timed
    region. *)

open Toolchain

type app = {
  a_name : string;
  a_compiled : Chain.compiled;
  a_reference : float;  (** checksum of the independent OCaml port *)
  a_inspector : bool;
}

type engine = J1 | J2 | Modeled

let engine_name = function J1 -> "j1" | J2 -> "j2" | Modeled -> "modeled"

let reference_checksum spec =
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  match String.split_on_char ':' spec with
  | [ "matmul"; a ] -> Workloads.Reference.matmul_checksum (int_of_string a)
  | [ "heat"; a ] -> (
    match ints a with [ n; t ] -> Workloads.Reference.heat_checksum n t | _ -> nan)
  | [ "satellite"; a ] -> (
    match ints a with
    | [ w; h; b ] -> Workloads.Reference.satellite_checksum w h b
    | _ -> nan)
  | [ "lama"; a ] -> (
    match ints a with
    | [ r; m; reps ] -> Workloads.Reference.lama_checksum r m reps
    | _ -> nan)
  | _ -> invalid_arg ("unknown reference " ^ spec)

let setup ~corpus () =
  Corpus.of_kind "app" (Corpus.load corpus)
  |> List.map (fun (e : Corpus.entry) ->
         {
           a_name = e.e_name;
           a_compiled = Chain.compile ~mode:(Corpus.mode_of_entry e) e.e_source;
           a_reference = reference_checksum (Corpus.attr e "ref");
           a_inspector = e.e_name = "lama-inspector";
         })
  |> Array.of_list

(* "checksum 123.456" agrees with the reference up to its printed digits *)
let checksum_matches output reference =
  match
    List.find_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ "checksum"; v ] -> Some v
        | _ -> None)
      (String.split_on_char '\n' output)
  with
  | None -> false
  | Some v -> (
    let decimals =
      match String.index_opt v '.' with Some i -> String.length v - i - 1 | None -> 0
    in
    match float_of_string_opt v with
    | None -> false
    | Some x -> Float.abs (x -. reference) <= (0.5 *. (10. ** -.float_of_int decimals)) +. (1e-9 *. Float.abs reference))

let load ?pool instr (c : Chain.compiled) =
  Span.with_span "interp.load" (fun () ->
      Interp.Exec.load ~l1_bytes:Chain.scaled_l1_bytes ~l2_bytes:Chain.scaled_l2_bytes ~instr
        ?pool c.Chain.c_ast)

let simulate profile =
  Span.with_span "machine.simulate" (fun () ->
      List.map
        (fun n ->
          (n, (Machine.Model.simulate ~backend:Machine.Config.gcc ~n profile).Machine.Model.r_seconds))
        Figures.paper_cores)

(** One operation; returns the profile and, for [Modeled], the simulated
    seconds per core count.  [pool] is used by [J2] only. *)
let execute ~pool engine (a : app) =
  match engine with
  | J1 ->
    let cenv = load Interp.Compile.Fast a.a_compiled in
    Span.with_span "interp.fast" (fun () ->
        let w0 = Common.allocated_words () in
        let p = Interp.Exec.run_main cenv in
        Span.count "interp.fast_alloc_words" (Common.allocated_words () -. w0);
        (p, []))
  | J2 ->
    let cenv = load ~pool Interp.Compile.Fast a.a_compiled in
    let b0 = Runtime.Pool.batches pool and s0 = Runtime.Pool.steals pool in
    let p = Span.with_span "interp.pool" (fun () -> Interp.Exec.run_main cenv) in
    Span.count "runtime.batches" (float_of_int (Runtime.Pool.batches pool - b0));
    Span.count "runtime.steals" (float_of_int (Runtime.Pool.steals pool - s0));
    (p, [])
  | Modeled ->
    let cenv = load Interp.Compile.Modeled a.a_compiled in
    let p = Span.with_span "interp.modeled" (fun () -> Interp.Exec.run_main cenv) in
    (p, simulate p)

let run ~corpus ~seed ~seconds ~trace =
  let apps, setup = Common.repeat_setup 9 (setup ~corpus) in
  let ops =
    Array.concat (List.map (fun e -> Array.map (fun a -> (a, e)) apps) [ J1; J2; Modeled ])
  in
  let n = Array.length ops in
  let rng = Common.rng seed in
  let times = Array.make n [] and traced_times = Array.make n [] in
  (* what the checks need of each execution (a line of output), and the
     latest modeled profile per application: whole profiles are not kept,
     so memory barely grows with the number of rounds *)
  let outputs = Array.make n [] and model = Array.make n None in
  let failed = ref 0 and attempted = ref 0 in
  (* each round has a two-domain pool of its own, shut down before the
     host is timed, so that no program domain is alive then *)
  let round r =
    let pool = Runtime.Pool.create 2 in
    Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
    Array.iter
      (fun i ->
        let a, engine = ops.(i) in
        let name = a.a_name ^ "." ^ engine_name engine in
        let traced = trace && (i + r) mod 2 = 0 in
        Span.enabled := traced;
        Span.set_op name r;
        incr attempted;
        match
          Common.sample (fun () ->
              Span.with_span "execute.op" (fun () -> execute ~pool engine a))
        with
        | (p, secs), dt ->
          Span.enabled := false;
          if traced then traced_times.(i) <- dt :: traced_times.(i)
          else times.(i) <- dt :: times.(i);
          outputs.(i) <-
            (p.Interp.Trace.output, p.Interp.Trace.return_code, p.Interp.Trace.insp)
            :: outputs.(i);
          if secs <> [] then model.(i) <- Some (p, secs)
        | exception e ->
          Span.enabled := false;
          incr failed;
          Common.report_failure "%s: execution failed: %s" name (Printexc.to_string e))
      (Common.shuffle rng (Array.init n Fun.id))
  in
  let round r =
    round r;
    for _ = 1 to 3 do
      Common.calibrate ()
    done
  in
  let _rounds = Common.run_rounds ~seconds ~min_rounds:2 round in
  (* checks: every output against the reference checksum, and every
     engine's bytes against the one-domain Fast output *)
  Array.iteri
    (fun i (a, engine) ->
      let j1 =
        match outputs.(Option.get (Array.find_index (fun (b, e) -> b == a && e = J1) ops)) with
        | (out, _, _) :: _ -> Some out
        | [] -> None
      in
      List.iter
        (fun (output, code, insp) ->
          let name = a.a_name ^ "." ^ engine_name engine in
          Common.check (code = 0) "%s: exit code %d" name code;
          Common.check
            (checksum_matches output a.a_reference)
            "%s: checksum %S differs from the reference %.6f" name output a.a_reference;
          Common.check (Some output = j1) "%s: output differs from j1" name;
          if a.a_inspector then
            Common.check
              (insp <> [] && List.for_all (fun v -> v.Interp.Trace.iv_disjoint) insp)
              "%s: the runtime check did not say disjoint" name)
        outputs.(i))
    ops;
  let per_op = Array.map (fun l -> if l = [] then nan else Common.median_scaled l) in
  let untraced = per_op times in
  let e2e =
    [
      Common.metric "setup_s" "s" (Common.setup_seconds setup);
      Common.metric "ops_per_s" "1/s" (float_of_int n /. Common.sum untraced);
      Common.metric "latency_ms_p50" "ms" (1000. *. Common.median untraced);
      Common.metric "latency_ms_p90" "ms" (1000. *. Common.quantile 0.9 untraced);
    ]
  in
  let layers =
    if not trace then []
    else begin
      let traced = per_op traced_times in
      Array.iteri
        (fun i (a, e) ->
          if times.(i) <> [] then
            Span.raw "execute" (a.a_name ^ "." ^ engine_name e) (Common.median_raw times.(i)))
        ops;
      let engine_sum e =
        let s = ref 0.0 in
        Array.iteri (fun i (_, e') -> if e = e' then s := !s +. untraced.(i)) ops;
        !s
      in
      let modeled = List.filter_map Fun.id (Array.to_list model) in
      let cost = List.map (fun (p, _) -> Interp.Trace.total_cost p) modeled in
      let sum_int f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 cost) in
      let secs k = List.map (fun (_, s) -> List.assoc k s) modeled in
      let s1 = secs 1 and s64 = secs 64 in
      let sum_f = List.fold_left ( +. ) 0.0 in
      let geomean = exp (sum_f (List.map2 (fun a b -> log (a /. b)) s1 s64) /. float_of_int (List.length s1)) in
      (* verdicts of one two-domain run of each application *)
      let verdicts b =
        let count = ref 0 in
        Array.iteri
          (fun i (_, e) ->
            match outputs.(i) with
            | (_, _, insp) :: _ when e = J2 ->
              count := !count + List.length (List.filter (fun v -> v.Interp.Trace.iv_disjoint = b) insp)
            | _ -> ())
          ops;
        float_of_int !count
      in
      let fast_ms = Span.layer_ms "interp.fast" and pool_ms = Span.layer_ms "interp.pool" in
      [
        Common.metric "run_s_j1" "s" (engine_sum J1);
        Common.metric "run_s_j2" "s" (engine_sum J2);
        Common.metric "modeled_run_s" "s" (engine_sum Modeled);
        Common.metric "model_speedup_64" "x" geomean;
        Common.metric "interp.load_ms" "ms" (Span.layer_ms "interp.load");
        Common.metric "interp.fast_ms" "ms" fast_ms;
        Common.metric "interp.fast_alloc_mwords" "Mwords"
          (Span.count_sum "interp.fast_alloc_words" /. 1e6);
        Common.metric "interp.pool_ms" "ms" pool_ms;
        Common.metric "runtime.speedup_j2" "x" (fast_ms /. pool_ms);
        Common.metric "runtime.batches" "count" (Span.count_sum "runtime.batches");
        Common.metric "runtime.steals" "count" (Span.count_sum "runtime.steals");
        Common.metric "interp.parallel_segments" "count"
          (float_of_int
             (List.fold_left (fun acc (p, _) -> acc + Interp.Trace.n_parallel_segments p) 0 modeled));
        Common.metric "inspector.disjoint" "count" (verdicts true);
        Common.metric "inspector.conflict" "count" (verdicts false);
        Common.metric "interp.modeled_ms" "ms" (Span.layer_ms "interp.modeled");
        Common.metric "interp.dynamic_ops" "count" (sum_int Interp.Cost.total_ops);
        Common.metric "interp.loads" "count" (sum_int (fun c -> c.Interp.Cost.loads));
        Common.metric "interp.stores" "count" (sum_int (fun c -> c.Interp.Cost.stores));
        Common.metric "machine.simulate_ms" "ms" (Span.layer_ms "machine.simulate");
        Common.metric "machine.seconds_1" "s" (sum_f s1);
        Common.metric "machine.seconds_64" "s" (sum_f s64);
        Common.metric "trace.overhead_pct" "%"
          (100. *. ((Common.sum traced /. Common.sum untraced) -. 1.));
      ]
    end
  in
  (!attempted, !failed, e2e, layers)
