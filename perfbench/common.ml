(** Helpers shared by the three workloads: clock, seeded draws, order
    statistics, peak memory and the result line. *)

let now () = Unix.gettimeofday ()

(** Wall-clock seconds of [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* splitmix64: the benchmark's own generator, so that what a seed selects
   never changes with the program's RNG or the OCaml stdlib's *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int ((seed * 0x9E3779B1) + 0x632BE5AB) }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform integer in [0, n). *)
let int r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Linear-interpolated quantile [q] in [0,1] of a non-empty array (the
    "inclusive" method of Python's [statistics.quantiles]). *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum = Array.fold_left ( +. ) 0.0

(** Peak resident set size of this process, in MiB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(** Words this domain has allocated on the minor heap so far.  The
    difference across a call is an exact, repeatable count;
    [Gc.counters] is not, once other domains exist. *)
let allocated_words () = Gc.minor_words ()

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(** A failed output check: printed to stderr, and the run reports
    [correct = false]. *)
let problems : string list ref = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt

(** An operation that failed: counted in [failed] by its workload and
    reported on stderr; [correct] speaks of the operations that did not
    fail, so it is not affected. *)
let report_failure fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: failed: " ^ msg)) fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line o =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value)
          m.m_unit)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " ms)

(* ------------------------------------------------------------------ *)
(* Host-speed calibration.

   The shared host's speed drifts by a quarter over tens of seconds
   (cache and memory contention from its other tenants; no steal time
   shows in the guest).  The drift hits every piece of code alike, so the
   benchmark times a fixed piece of its own OCaml work between operations
   throughout the run, and reports every timing scaled to a host on which
   that work takes [reference_calib_s]: a sample measured at time t is
   multiplied by reference / (median of the calibrations nearest to t).

   The calibration allocates nothing and runs only while none of the
   program's domains is alive, so it shares neither the program's heap
   and collector state nor its cores: what the program does to its own
   process (its heap size, collector settings, idle or spinning domains)
   stays in the scaled timings and is not divided out. *)

let reference_calib_s = 0.008

let calib_words = 1 lsl 18

(* one random cycle through 2 MiB of ints (Sattolo's shuffle): chasing it
   is bound by cache and memory latency, as walking the program's heap is *)
let calib_chain =
  let a = Array.init calib_words Fun.id and r = rng 12345 in
  for i = calib_words - 1 downto 1 do
    let j = int r i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* for each of the two calibrations that may run at once: 2 MiB written
   front to back, as allocation fills a minor heap, and a float array *)
let calib_arena = Array.init 2 (fun _ -> Array.make calib_words 0)

let calib_floats = Array.init 2 (fun _ -> Array.make 16_384 0.5)

let calibration_work slot =
  let arena = calib_arena.(slot) and a = calib_floats.(slot) in
  for pass = 1 to 6 do
    for i = 0 to calib_words - 1 do
      Array.unsafe_set arena i (i + pass)
    done
  done;
  let p = ref 0 in
  for _ = 1 to 40_000 do
    p := Array.unsafe_get calib_chain !p
  done;
  for _ = 1 to 20 do
    for i = 0 to Array.length a - 1 do
      Array.unsafe_set a i ((Array.unsafe_get a i *. 0.5) +. 0.25)
    done
  done;
  let h = ref !p in
  for i = 1 to 150_000 do
    h := (!h lxor i) * 0x2545F491 land max_int;
    h := !h lxor (!h lsr 29)
  done;
  ignore (Sys.opaque_identity (!h + arena.(7) + truncate a.(7)))

(* (midpoint, seconds) of every calibration so far, newest first *)
let calib_points : (float * float) list ref = ref []

(** Time one calibration run; call between operations, outside any
    timed region, while no program domain is alive. *)
let calibrate () =
  let t0 = now () in
  calibration_work 0;
  let t1 = now () in
  calib_points := ((t0 +. t1) /. 2., t1 -. t0) :: !calib_points

(** The same on both of the host's cores at once, for work that keeps
    two domains busy: the mean of the two concurrent timings, the second
    taken on a domain of the benchmark's own. *)
let calibrate_both () =
  let other = Domain.spawn (fun () -> snd (timed (fun () -> calibration_work 1))) in
  let t0 = now () in
  calibration_work 0;
  let t1 = now () in
  let o = Domain.join other in
  calib_points := ((t0 +. t1) /. 2., ((t1 -. t0) +. o) /. 2.) :: !calib_points

(** Median calibration time of this run, in seconds. *)
let calib_median () = median (Array.of_list (List.map snd !calib_points))

let calib_nearest = 9

let calib_sorted = ref [||]

(** Scale factor from the host's speed around time [t] to the reference
    host: the median of the [calib_nearest] calibrations nearest to [t]
    in time.  Call after the run, when all calibrations are in. *)
let factor_at t =
  if Array.length !calib_sorted <> List.length !calib_points then
    calib_sorted := Array.of_list (List.rev !calib_points);
  let pts = !calib_sorted in
  let n = Array.length pts in
  (* first point at or after t *)
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if fst pts.(mid) < t then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  let lo = ref i and hi = ref i in
  while !hi - !lo < min calib_nearest n do
    if !lo = 0 then incr hi
    else if !hi = n then decr lo
    else if t -. fst pts.(!lo - 1) <= fst pts.(!hi) -. t then decr lo
    else incr hi
  done;
  reference_calib_s /. median (Array.init (!hi - !lo) (fun k -> snd pts.(!lo + k)))

(** A timed sample: when it started and how long it took. *)
type sample = { at : float; dur : float }

let sample f =
  let at = now () in
  let r = f () in
  (r, { at; dur = now () -. at })

(** A sample's duration in seconds on the reference host. *)
let scaled s = s.dur *. factor_at (s.at +. (s.dur /. 2.))

(** Median of samples: scaled to the reference host, or as measured. *)
let median_scaled l = median (Array.of_list (List.map scaled l))

let median_raw l = median (Array.of_list (List.map (fun s -> s.dur) l))

(** Run [f] [n] times and return the last result with the timing of
    each repetition: set-up is measured as a median like every other
    timing.  Each
    repetition starts from a collected heap, so none pays for garbage the
    one before it left. *)
let repeat_setup n f =
  let results =
    List.init n (fun _ ->
        Gc.full_major ();
        let r = sample f in
        calibrate ();
        r)
  in
  (fst (List.nth results (n - 1)), List.map snd results)

(** Set-up seconds on the reference host: the median repetition. *)
let setup_seconds samples = median (Array.of_list (List.map scaled samples))

(** Rounds of whole operations for [seconds] of wall time: a new round
    starts only if the median round so far still fits, and there are
    always at least [min_rounds]. *)
let run_rounds ~seconds ~min_rounds round =
  let t0 = now () in
  let times = ref [] in
  let rec go i =
    let elapsed = now () -. t0 in
    let typical = match !times with [] -> 0.0 | l -> median (Array.of_list l) in
    if i < min_rounds || elapsed +. typical <= seconds then begin
      let (), dt = timed (fun () -> round i) in
      times := dt :: !times;
      go (i + 1)
    end
  in
  go 0;
  Array.of_list (List.rev !times)
