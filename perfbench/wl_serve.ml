(** Workload [serve]: one in-process {!Serve.Server} per round (two
    worker domains, fresh caches), driven closed-loop by two clients that
    each keep at most one request outstanding.  A round is 48 requests.
    Each client has fourteen fuzz sources of its own: it sends a [compile]
    and then a [run] ([no_model]) request for five of them (the [run] hits
    the TU cache) and a [run] alone for the other nine, in a
    seeded order, plus five repeats of its own earlier requests at seeded
    positions (reply-memo hits).  Most requests thus take the compile
    path, and the median latency falls among them.  Successive rounds walk
    a seeded permutation of the whole fuzz corpus, so a run covers every
    source whatever the seed.  The round closes with a [stats] request. *)

open Serve

type cmd = Compile | Run

type req = { q_src : int; q_cmd : cmd; q_repeat : bool }

let compiled_then_run = 5

let run_only = 9

let sources_per_client = compiled_then_run + run_only

let repeats_per_client = 5

let per_client = (2 * compiled_then_run) + run_only + repeats_per_client

(* One client's requests for a round. *)
let client_stream rng (sources : int array) : req array =
  let first =
    Common.shuffle rng
      (Array.mapi
         (fun j s -> { q_src = s; q_cmd = (if j < compiled_then_run then Compile else Run); q_repeat = false })
         sources)
  in
  (* the run of each compiled source goes after its compile *)
  let first =
    Array.concat
      (Array.to_list
         (Array.map
            (fun q -> if q.q_cmd = Compile then [| q; { q with q_cmd = Run } |] else [| q |])
            first))
  in
  let repeat_at = Array.make per_client false in
  Array.iteri
    (fun j k -> if j < repeats_per_client then repeat_at.(k) <- true)
    (Common.shuffle rng (Array.init (per_client - 1) (fun k -> k + 1)));
  let out = Array.make per_client first.(0) in
  let next_first = ref 0 in
  for k = 0 to per_client - 1 do
    if repeat_at.(k) then out.(k) <- { (out.(Common.int rng k)) with q_repeat = true }
    else begin
      out.(k) <- first.(!next_first);
      incr next_first
    end
  done;
  out

let request_line ~id source q =
  let open Protocol in
  to_string
    (Obj
       ([ ("id", Int id);
          ("cmd", Str (match q.q_cmd with Compile -> "compile" | Run -> "run"));
          ("source", Str source) ]
       @ match q.q_cmd with Run -> [ ("no_model", Bool true) ] | Compile -> []))

type reply = {
  p_req : req;
  p_sent : float;
  p_done : float;  (** when the reply line was written back *)
  p_line : string;
}

(* client-observed latency *)
let latency p = { Common.at = p.p_sent; dur = p.p_done -. p.p_sent }

type round_result = {
  rr_replies : reply array;  (** both clients' replies *)
  rr_stream : Common.sample;  (** the whole request stream *)
  rr_stats : Protocol.json;
}

(* Drive a server through both clients' streams. *)
let drive srv (sources : string array) (streams : req array array) =
  let m = Mutex.create () and cond = Condition.create () in
  let idx = [| 0; 0 |] and outstanding = [| false; false |] in
  let sent = Array.map (fun s -> Array.make (Array.length s) 0.0) streams in
  let got = Array.map (fun s -> Array.make (Array.length s) (0.0, "")) streams in
  let stats = ref Protocol.Null and stats_sent = ref false in
  let len c = Array.length streams.(c) in
  (* the clients live in [next]: the server's reader asks for the next
     line, and gets one as soon as some client has no request in flight *)
  let next () =
    Mutex.lock m;
    let rec pick () =
      match List.find_opt (fun c -> (not outstanding.(c)) && idx.(c) < len c) [ 0; 1 ] with
      | Some c ->
        let k = idx.(c) in
        idx.(c) <- k + 1;
        outstanding.(c) <- true;
        sent.(c).(k) <- Common.now ();
        let q = streams.(c).(k) in
        Some (request_line ~id:((c * 1000) + k) sources.(q.q_src) q)
      | None ->
        if outstanding.(0) || outstanding.(1) then begin
          Condition.wait cond m;
          pick ()
        end
        else if not !stats_sent then begin
          stats_sent := true;
          Some {|{"id":"stats","cmd":"stats"}|}
        end
        else None
    in
    let line = pick () in
    Mutex.unlock m;
    line
  in
  let emit line =
    let t = Common.now () in
    let j = Protocol.of_string line in
    match Protocol.field j "id" with
    | Some (Protocol.Int id) ->
      let c = id / 1000 and k = id mod 1000 in
      Mutex.lock m;
      got.(c).(k) <- (t, line);
      outstanding.(c) <- false;
      Condition.broadcast cond;
      Mutex.unlock m
    | _ -> stats := j
  in
  let t0 = Common.now () in
  Server.serve srv ~next ~emit;
  let seconds = Common.now () -. t0 in
  let replies =
    Array.concat
      (List.init 2 (fun c ->
           Array.mapi
             (fun k q ->
               let t, line = got.(c).(k) in
               { p_req = q; p_sent = sent.(c).(k); p_done = t; p_line = line })
             streams.(c)))
  in
  { rr_replies = replies; rr_stream = { Common.at = t0; dur = seconds }; rr_stats = !stats }

(* One round on a fresh server.  The server kept both cores busy, so the
   host is then timed on both, once the server and its domains are gone. *)
let serve_round sources streams =
  let srv = Server.create ~jobs:2 () in
  let res =
    Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> drive srv sources streams)
  in
  for _ = 1 to 3 do
    Common.calibrate_both ()
  done;
  res

type expected = { x_output : string; x_code : int }

let setup ~corpus ~seed () =
  let fuzz = Array.of_list (Corpus.of_kind "fuzz" (Corpus.load corpus)) in
  let sources = Array.map (fun (e : Corpus.entry) -> e.e_source) fuzz in
  let order = Common.shuffle (Common.rng seed) (Array.init (Array.length fuzz) Fun.id) in
  (* the independent side of the run check: the untransformed program *)
  let expected =
    Array.map
      (fun src ->
        let p =
          Toolchain.Chain.execute ~no_model:true
            (Toolchain.Chain.compile ~mode:Toolchain.Chain.Sequential src)
        in
        { x_output = p.Interp.Trace.output; x_code = p.Interp.Trace.return_code })
      sources
  in
  (sources, order, expected)

let streams_for ~seed ~order r =
  let n = Array.length order in
  let per_round = 2 * sources_per_client in
  let rng = Common.rng ((seed * 1_000_003) + r) in
  Array.init 2 (fun c ->
      client_stream rng
        (Array.init sources_per_client (fun j -> order.(((r * per_round) + (2 * j) + c) mod n))))

(* the program output a [run] reply carries *)
let program_output stdout =
  let start_tag = "--- program output ---\n" and end_tag = "--- end output ---\n" in
  let find_from s sub from =
    let ls = String.length s and lsub = String.length sub in
    let rec go i =
      if i + lsub > ls then None else if String.sub s i lsub = sub then Some i else go (i + 1)
    in
    go from
  in
  match find_from stdout start_tag 0 with
  | None -> None
  | Some i -> (
    let a = i + String.length start_tag in
    match find_from stdout end_tag a with
    | None -> None
    | Some b ->
      let rest = String.sub stdout b (String.length stdout - b) in
      let code =
        List.find_map
          (fun l -> Scanf.sscanf_opt l "exit code: %d" Fun.id)
          (String.split_on_char '\n' rest)
      in
      Some (String.sub stdout a (b - a), code))

let json_float = function
  | Some (Protocol.Float f) -> f
  | Some (Protocol.Int i) -> float_of_int i
  | _ -> nan

let json_int = function Some (Protocol.Int i) -> i | _ -> -1

(* What a round leaves after its replies are checked: memory stays flat
   however many rounds a run makes. *)
type summary = {
  s_stream : Common.sample;
  s_latency : Common.sample array;
  s_repeat : bool array;
  s_server : Common.sample array;  (** each reply's own [elapsed_ms] *)
  s_stats : Protocol.json;
}

let stat path (j : Protocol.json) =
  json_int
    (List.fold_left
       (fun j k -> Protocol.field (Option.value j ~default:Protocol.Null) k)
       (Some j) path)

let run ~corpus ~seed ~seconds ~trace =
  let (sources, order, expected), setup = Common.repeat_setup 9 (setup ~corpus ~seed) in
  let compiled_reply = Hashtbl.create 64 in
  (* what [purec compile] prints for a source: the expected compile reply *)
  let compile_stdout src =
    match Hashtbl.find_opt compiled_reply src with
    | Some w -> w
    | None ->
      let c =
        Toolchain.Chain.compile
          ~mode:(Toolchain.Chain.mode_of_spec Toolchain.Chain.default_mode_spec)
          sources.(src)
      in
      let w = Fmt.str "%a" (fun ppf c -> Toolchain.Chain.pp_compile_result ppf c) c in
      Hashtbl.replace compiled_reply src w;
      w
  in
  let attempted = ref 0 and failed = ref 0 in
  let check_reply p =
    incr attempted;
    let j = try Protocol.of_string p.p_line with _ -> Protocol.Null in
    let stdout = match Protocol.field j "stdout" with Some (Protocol.Str s) -> s | _ -> "" in
    let src = p.p_req.q_src in
    if Protocol.field j "status" <> Some (Protocol.Str "ok") || stat [ "exit" ] j <> 0 then begin
      incr failed;
      Common.report_failure "serve: request on source %d answered %s" src p.p_line
    end
    else begin
      match p.p_req.q_cmd with
      | Run ->
        let x = expected.(src) in
        Common.check
          (program_output stdout = Some (x.x_output, Some x.x_code))
          "serve: run of source %d differs from the sequential execution" src
      | Compile ->
        Common.check (stdout = compile_stdout src)
          "serve: compile of source %d differs from purec compile" src
    end;
    { Common.at = p.p_sent; dur = json_float (Protocol.field j "elapsed_ms") /. 1000. }
  in
  let summaries = ref [] in
  let round r =
    (* the previous round's server, caches included, is garbage now:
       collect it, so that each round starts from the same heap *)
    Gc.full_major ();
    let res = serve_round sources (streams_for ~seed ~order r) in
    (* the spans are the client latencies, recorded once the round is
       over, so tracing adds no work to the round *)
    if trace then
      Array.iter
        (fun p ->
          Span.set_op (if p.p_req.q_repeat then "repeat" else "first") r;
          Span.record "serve.request" ~t0:p.p_sent ~t1:p.p_done)
        res.rr_replies;
    let server = Array.map check_reply res.rr_replies in
    summaries :=
      {
        s_stream = res.rr_stream;
        s_latency = Array.map latency res.rr_replies;
        s_repeat = Array.map (fun p -> p.p_req.q_repeat) res.rr_replies;
        s_server = server;
        s_stats = res.rr_stats;
      }
      :: !summaries
  in
  Span.enabled := trace;
  let _rounds = Common.run_rounds ~seconds ~min_rounds:2 round in
  Span.enabled := false;
  let all = List.rev !summaries in
  let ms s = 1000. *. Common.scaled s in
  let lat = Array.map ms (Array.concat (List.map (fun s -> s.s_latency) all)) in
  let e2e =
    [
      Common.metric "setup_s" "s" (Common.setup_seconds setup);
      Common.metric "ops_per_s" "1/s"
        (Common.median
           (Array.of_list
              (List.map
                 (fun s -> float_of_int (Array.length s.s_latency) /. Common.scaled s.s_stream)
                 all)));
      Common.metric "latency_ms_p50" "ms" (Common.median lat);
      Common.metric "latency_ms_p90" "ms" (Common.quantile 0.9 lat);
    ]
  in
  let layers =
    if not trace then []
    else begin
      let split repeat =
        Array.concat
          (List.map
             (fun s ->
               Array.of_list
                 (List.filteri (fun i _ -> s.s_repeat.(i) = repeat) (Array.to_list (Array.map ms s.s_latency))))
             all)
      in
      (* every round sends the same mix, so its counters are per-round
         constants; the median keeps them independent of the round count *)
      let per_round path =
        Common.median (Array.of_list (List.map (fun s -> float_of_int (stat path s.s_stats)) all))
      in
      Span.raw "latency" "all"
        (Common.median_raw (List.concat_map (fun s -> Array.to_list s.s_latency) all));
      Span.raw "round" "all" (Common.median_raw (List.map (fun s -> s.s_stream) all));
      [
        Common.metric "serve.server_ms_p50" "ms"
          (Common.median (Array.map ms (Array.concat (List.map (fun s -> s.s_server) all))));
        Common.metric "serve.first_ms_p50" "ms" (Common.median (split false));
        Common.metric "serve.repeat_ms_p50" "ms" (Common.median (split true));
        Common.metric "serve.tu_hits" "count" (per_round [ "tu_cache"; "hits" ]);
        Common.metric "serve.tu_misses" "count" (per_round [ "tu_cache"; "misses" ]);
        Common.metric "serve.memo_hits" "count" (per_round [ "reply_memo"; "hits" ]);
        Common.metric "serve.memo_misses" "count" (per_round [ "reply_memo"; "misses" ]);
        Common.metric "serve.pool_streamed" "count" (per_round [ "pool_streamed" ]);
        Common.metric "serve.queue_high_water" "count" (per_round [ "queue_high_water" ]);
        (* the spans are recorded after each round, so a traced round
           does the same work as an untraced one *)
        Common.metric "trace.overhead_pct" "%" 0.0;
      ]
    end
  in
  (!attempted, !failed, e2e, layers)
