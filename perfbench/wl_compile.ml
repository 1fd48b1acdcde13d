(** Workload [compile]: a seeded seven-eighths draw of the fuzz corpus,
    the paper applications (pure sources through the chain, inlined
    sources under plain PluTo, PluTo-tiled and PluTo-SICA) and the kernel
    gallery, doitgen included, compiled in rounds.  Nothing executes in
    the timed region; the Fast executions that check each result run
    after it. *)

open Toolchain

type tu = { t_entry : Corpus.entry; t_mode : Chain.mode }

type reference = { r_output : string; r_code : int }

let execute_fast c =
  let p = Chain.execute ~no_model:true c in
  { r_output = p.Interp.Trace.output; r_code = p.Interp.Trace.return_code }

let setup ~corpus ~seed () =
  let entries = Corpus.load corpus in
  let rng = Common.rng seed in
  let fuzz = Corpus.stratified rng ~keep:7 ~of_:8 (Corpus.of_kind "fuzz" entries) in
  let tus =
    List.map
      (fun e -> { t_entry = e; t_mode = Corpus.mode_of_entry e })
      (Corpus.of_kind "kernel" entries @ Corpus.of_kind "tu" entries @ fuzz)
    |> Array.of_list
  in
  (* the independent side of the output check: the untransformed program *)
  let refs =
    Array.map
      (fun t -> execute_fast (Chain.compile ~mode:Chain.Sequential t.t_entry.Corpus.e_source))
      tus
  in
  (tus, refs)

(* the unit of the kernel proper: the deepest, preferring a transformed one *)
let kernel_unit (c : Chain.compiled) =
  List.concat_map
    (fun (o : Pluto.outcome) ->
      match o.Pluto.o_result with
      | Pluto.Transformed { t_units } -> t_units
      | Pluto.Rejected _ -> [])
    c.Chain.c_outcomes
  |> List.sort (fun (a : Pluto.unit_info) b ->
         compare
           (List.length b.Pluto.ui_iters, not b.Pluto.ui_identity)
           (List.length a.Pluto.ui_iters, not a.Pluto.ui_identity))
  |> function
  | u :: _ -> Some u
  | [] -> None

let check_kernel (e : Corpus.entry) (c : Chain.compiled) =
  let flag k = bool_of_string (Corpus.attr e k) in
  match kernel_unit c with
  | None -> Common.check false "%s: no unit transformed" e.e_name
  | Some u ->
    if flag "parallel" then
      Common.check (u.Pluto.ui_parallel <> None) "%s: expected a parallel loop" e.e_name;
    if flag "outer" then
      Common.check (u.Pluto.ui_parallel = Some 1) "%s: expected the outer loop parallel" e.e_name
    else
      Common.check (u.Pluto.ui_parallel <> Some 1) "%s: outer loop must stay sequential" e.e_name;
    Common.check (u.Pluto.ui_identity = flag "identity") "%s: identity expected %b" e.e_name
      (flag "identity")

let unit_counts (c : Chain.compiled) =
  List.fold_left
    (fun (par, rej, rtc) (o : Pluto.outcome) ->
      match o.Pluto.o_result with
      | Pluto.Rejected _ -> (par, rej + 1, rtc)
      | Pluto.Transformed { t_units } ->
        List.fold_left
          (fun (par, rej, rtc) (u : Pluto.unit_info) ->
            ( (if u.Pluto.ui_parallel <> None then par + 1 else par),
              rej,
              if u.Pluto.ui_runtime_check <> None then rtc + 1 else rtc ))
          (par, rej, rtc) t_units)
    (0, 0, 0) c.Chain.c_outcomes

(* traced over untraced time, summed over the units that have both kinds
   of sample *)
let overhead_pct ~traced ~untraced =
  let sum a =
    Common.sum
      (Array.mapi
         (fun i v -> if Float.is_nan traced.(i) || Float.is_nan untraced.(i) then 0.0 else v)
         a)
  in
  100. *. ((sum traced /. sum untraced) -. 1.)

(* a translation unit slower than this to compile (doitgen, syrk, the
   inlined matmul under PluTo, ...) is compiled in the first and the last
   round only: the many short ones then get enough rounds in a run for
   their medians to hold, and a long one averages the host's noise within
   each compile *)
let heavy_s = 0.15

(* The heavy compiles set the process's peak memory, and how far
   [Pluto.run] grows the major heap depends on where the collector's cycle
   stands when it starts: the same doitgen compile has peaked at 35 MiB or
   at 65 MiB, from the same live data.  So the heap state before each of
   them is fixed here rather than left to whatever ran before: every round
   starts from a collected heap, and so does every compile of a gallery
   kernel or application in the first round and of a heavy unit in the
   last ([fixed_heap] picks these compiles).  [peak_rss_mb] measures the
   heap grown from those states. *)
let fixed_heap ~first_round ~heavy (t : tu) =
  heavy || (first_round && t.t_entry.Corpus.e_kind <> "fuzz")

let run ~corpus ~seed ~seconds ~trace =
  let (tus, refs), setup = Common.repeat_setup 5 (setup ~corpus ~seed) in
  let n = Array.length tus in
  let rng = Common.rng (seed + 7919) in
  let times = Array.make n [] and traced_times = Array.make n [] in
  let first = Array.make n None in
  let samples = Array.make n 0 in
  let failed = ref 0 and attempted = ref 0 in
  let last i = match times.(i) @ traced_times.(i) with t :: _ -> t.Common.dur | [] -> 0.0 in
  let heavy i = last i >= heavy_s in
  let compile_tu r i =
    let t = tus.(i) in
    let name = t.t_entry.Corpus.e_name in
    (* in the traced run each unit alternates between a traced and an
       untraced compile, so both kinds of sample meet the same drift *)
    let traced = trace && samples.(i) mod 2 = 0 in
    samples.(i) <- samples.(i) + 1;
    incr attempted;
    (* the host is timed every four compiles, and right before and after
       each compile that may be long, so that the calibrations nearest a
       long compile are its own *)
    let fixed = fixed_heap ~first_round:(r = 0) ~heavy:(heavy i) t in
    if fixed then Gc.full_major ();
    if fixed || !attempted mod 4 = 0 then Common.calibrate ();
    match
      if traced then begin
        Span.set_op name r;
        Common.sample (fun () ->
            Span.with_span "compile.tu" (fun () ->
                Staged.compile ~mode:t.t_mode t.t_entry.Corpus.e_source))
      end
      else Common.sample (fun () -> Chain.compile ~mode:t.t_mode t.t_entry.Corpus.e_source)
    with
    | c, dt -> (
      if fixed then Common.calibrate ();
      if traced then traced_times.(i) <- dt :: traced_times.(i)
      else times.(i) <- dt :: times.(i);
      match first.(i) with
      | None -> first.(i) <- Some c
      | Some c0 ->
        Common.check
          (Staged.fingerprint c = Staged.fingerprint c0)
          "%s: round %d compiled differently from round 0 (the staged path and \
           Chain.compile must agree)"
          name r)
    | exception e ->
      incr failed;
      Common.report_failure "%s: compile failed: %s" name (Printexc.to_string e)
  in
  let round r order keep =
    Gc.full_major ();
    Array.iter (fun i -> if keep i then compile_tu r i) order
  in
  Span.enabled := trace;
  let t0 = Common.now () in
  (* the heavy units hold the process's peak memory; the rounds that
     compile them run in corpus order, gallery and applications first, so
     that peak does not depend on the seed *)
  let corpus_order = Array.init n Fun.id in
  round 0 corpus_order (fun _ -> true);
  let cost keep = Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> if keep i then last i else 0.0)) in
  let light_s = cost (fun i -> not (heavy i)) and heavy_total = cost heavy in
  let r = ref 1 in
  while !r < 3 || Common.now () -. t0 +. light_s +. heavy_total <= seconds do
    round !r (Common.shuffle rng corpus_order) (fun i -> not (heavy i));
    incr r
  done;
  round !r corpus_order heavy;
  Span.enabled := false;
  (* checks, outside the timed region *)
  Array.iteri
    (fun i t ->
      let e = t.t_entry in
      match first.(i) with
      | None -> ()
      | Some c ->
        let got = execute_fast c in
        Common.check (got = refs.(i)) "%s: output differs from the sequential compile" e.e_name;
        if e.Corpus.e_kind = "kernel" then check_kernel e c)
    tus;
  let per_tu = Array.map (fun l -> if l = [] then nan else Common.median_scaled l) in
  let untraced = per_tu times in
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
      let traced = per_tu traced_times in
      Array.iteri
        (fun i t ->
          if times.(i) <> [] then
            Span.raw "compile" t.t_entry.Corpus.e_name (Common.median_raw times.(i)))
        tus;
      let par, rej, rtc =
        Array.fold_left
          (fun (p, r, c) o ->
            match o with
            | None -> (p, r, c)
            | Some c0 ->
              let p', r', c' = unit_counts c0 in
              (p + p', r + r', c + c'))
          (0, 0, 0) first
      in
      let pluto = Span.layer_by_op "pluto" in
      [
        Common.metric "cpp.ms" "ms" (Span.layer_ms "cpp");
        Common.metric "cfront.parse_ms" "ms" (Span.layer_ms "cfront.parse");
        Common.metric "sema.ms" "ms" (Span.layer_ms "sema");
        Common.metric "purity.ms" "ms" (Span.layer_ms "purity");
        Common.metric "pluto.ms" "ms" (Span.layer_ms "pluto");
        Common.metric "pluto.ms_max" "ms"
          (1000. *. List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 pluto);
        Common.metric "pluto.alloc_mwords" "Mwords" (Span.count_sum "pluto.alloc_words" /. 1e6);
        Common.metric "pluto.units_parallel" "count" (float_of_int par);
        Common.metric "pluto.units_rejected" "count" (float_of_int rej);
        Common.metric "pluto.units_runtime_checked" "count" (float_of_int rtc);
        Common.metric "emit.ms" "ms" (Span.layer_ms "emit");
        Common.metric "trace.overhead_pct" "%" (overhead_pct ~traced ~untraced);
      ]
    end
  in
  (!attempted, !failed, e2e, layers)
