(** In-memory tracing for the traced run ([--trace 1]).

    Spans are recorded only around calls the benchmark itself makes into
    the program's layers; nothing inside the program is instrumented.
    Each span carries the operation ([op], e.g. a translation unit) and
    round it belongs to, so layer times can be aggregated the same way
    the end-to-end timings are: a per-operation median over rounds first,
    then a sum over operations.  A span's self time is its duration minus
    the time its child spans cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  op : string;
  round : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false

let spans : span list ref = ref []

let counts : (string * string * int * float) list ref = ref []

let next_id = ref 0

let stack : int list ref = ref []

let cur_op = ref ""

let cur_round = ref 0

(** Attribute the spans that follow to operation [op] of round [round]. *)
let set_op op round =
  cur_op := op;
  cur_round := round

(** Record a span timed elsewhere, as a root. *)
let record name ~t0 ~t1 =
  let id = !next_id in
  incr next_id;
  spans := { id; parent = -1; name; op = !cur_op; round = !cur_round; t0; t1 } :: !spans

(** [with_span name f] runs [f], recording a span when tracing is on. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Common.now () in
    let finish () =
      let t1 = Common.now () in
      stack := List.tl !stack;
      spans := { id; parent; name; op = !cur_op; round = !cur_round; t0; t1 } :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let raws : (string * string * float) list ref = ref []

(** Record the unscaled median seconds of timing [name] of operation
    [op], as measured: the trace file keeps them next to the
    calibrations, so any scaled figure can be recomputed from it. *)
let raw name op secs = raws := (name, op, secs) :: !raws

(** Record a count (allocated words, verdicts, ...) for the current op. *)
let count name v = if !enabled then counts := (name, !cur_op, !cur_round, v) :: !counts

(** Self time of every span, in seconds, keyed by span id. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((try Hashtbl.find child s.parent with Not_found -> 0.0) +. (s.t1 -. s.t0)))
    !spans;
  fun s -> s.t1 -. s.t0 -. (try Hashtbl.find child s.id with Not_found -> 0.0)

(* per (op, round) totals of [value s] over spans named [name] *)
let per_op_round ~value name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        let k = (s.op, s.round) in
        Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0.0) +. value s))
    !spans;
  tbl

(* median over rounds of each op's per-round total *)
let per_op_median tbl =
  let by_op = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (op, _) v -> Hashtbl.replace by_op op (v :: (try Hashtbl.find by_op op with Not_found -> [])))
    tbl;
  Hashtbl.fold (fun op vs acc -> (op, Common.median (Array.of_list vs)) :: acc) by_op []

(** Per-operation median self time of the layer [name], in seconds on
    the reference host (see {!Common.factor_at}). *)
let layer_by_op name =
  let self = self_times () in
  per_op_median
    (per_op_round ~value:(fun s -> self s *. Common.factor_at ((s.t0 +. s.t1) /. 2.)) name)

(** Self time of layer [name] in milliseconds: per-op medians, summed. *)
let layer_ms name = 1000. *. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (layer_by_op name)

(** Per-operation median of count [name]. *)
let count_by_op name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (n, op, round, v) ->
      if n = name then
        let k = (op, round) in
        Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0.0) +. v))
    !counts;
  per_op_median tbl

let count_sum name = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (count_by_op name)

(** Write every span with its self time, then the counts, the unscaled
    medians and the calibrations, as JSON lines to [path]. *)
let write path =
  let self = self_times () in
  let base =
    List.fold_left
      (fun acc (at, _) -> Float.min acc at)
      (List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans)
      !Common.calib_points
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"op\": %S, \"round\": %d, \
             \"start_ms\": %.4f, \"dur_ms\": %.4f, \"self_ms\": %.4f}\n"
            s.id s.parent s.name s.op s.round
            ((s.t0 -. base) *. 1000.)
            ((s.t1 -. s.t0) *. 1000.)
            (self s *. 1000.))
        (List.rev !spans);
      List.iter
        (fun (n, op, round, v) ->
          Printf.fprintf oc "{\"count\": %S, \"op\": %S, \"round\": %d, \"value\": %.17g}\n" n op
            round v)
        (List.rev !counts);
      List.iter
        (fun (n, op, v) ->
          Printf.fprintf oc "{\"raw\": %S, \"op\": %S, \"median_ms\": %.4f}\n" n op (v *. 1000.))
        (List.rev !raws);
      List.iter
        (fun (at, v) ->
          Printf.fprintf oc "{\"calib_at_ms\": %.4f, \"calib_ms\": %.4f}\n"
            ((at -. base) *. 1000.) (v *. 1000.))
        (List.rev !Common.calib_points))
