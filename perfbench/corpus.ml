(** The benchmark's inputs: C sources snapshotted under [perfbench/corpus],
    described by [corpus/MANIFEST].  Edits to the generators in
    [lib/fuzzgen] or [lib/workloads] do not change what is measured until
    the snapshot is regenerated on purpose with
    [perfbench.exe snapshot perfbench/corpus].

    MANIFEST has one tab-separated line per entry:
    [kind  name  file  mode  attrs], where [kind] is
    - [fuzz]: a fuzz-generated program (the compile corpus and the serve
      request sources);
    - [tu]: a paper application under one compile mode;
    - [kernel]: a gallery kernel, its attrs the expected transform;
    - [app]: an application the execute workload runs, its attrs the
      reference checksum's parameters. *)

type entry = {
  e_kind : string;
  e_name : string;
  e_file : string;
  e_mode : string;  (** pure | pluto | seq | manual, then [,tile=N] / [,sica] *)
  e_attrs : (string * string) list;
  e_source : string;
}

let spec_of_mode (m : string) : Toolchain.Chain.mode_spec =
  match String.split_on_char ',' m with
  | [] -> invalid_arg "empty mode"
  | base :: opts ->
    let ms_mode =
      match base with
      | "pure" -> `Pure
      | "pluto" -> `Pluto
      | "seq" -> `Seq
      | "manual" -> `Manual
      | other -> invalid_arg ("unknown mode " ^ other)
    in
    List.fold_left
      (fun (s : Toolchain.Chain.mode_spec) opt ->
        match String.split_on_char '=' opt with
        | [ "sica" ] -> { s with ms_sica = true }
        | [ "tile"; n ] -> { s with ms_tile = Some (int_of_string n) }
        | _ -> invalid_arg ("unknown mode option " ^ opt))
      { Toolchain.Chain.default_mode_spec with ms_mode }
      opts

let mode_of_entry e = Toolchain.Chain.mode_of_spec (spec_of_mode e.e_mode)

let attr e k = List.assoc k e.e_attrs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Load every entry of [dir/MANIFEST] with its source text. *)
let load dir : entry list =
  let manifest = read_file (Filename.concat dir "MANIFEST") in
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.split_on_char '\t' line with
        | [ e_kind; e_name; e_file; e_mode; attrs ] ->
          let e_attrs =
            List.filter_map
              (fun kv ->
                match String.index_opt kv '=' with
                | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
                | None -> None)
              (String.split_on_char ' ' attrs)
          in
          Some
            {
              e_kind;
              e_name;
              e_file;
              e_mode;
              e_attrs;
              e_source = read_file (Filename.concat dir e_file);
            }
        | _ -> failwith ("malformed MANIFEST line: " ^ line))
    (String.split_on_char '\n' manifest)

let of_kind k entries = List.filter (fun e -> e.e_kind = k) entries

(** [k] of every [n] entries, drawn per stratum of [n] neighbours in
    source-size order: every seed gets a subset with the same size
    profile, so timings stay comparable across seeds. *)
let stratified rng ~keep ~of_ (entries : entry list) =
  let sorted =
    List.stable_sort
      (fun a b -> compare (String.length a.e_source) (String.length b.e_source))
      entries
    |> Array.of_list
  in
  let n = Array.length sorted in
  let picked = ref [] in
  let i = ref 0 in
  while !i < n do
    let len = min of_ (n - !i) in
    let order = Common.shuffle rng (Array.init len (fun j -> !i + j)) in
    let take = if len = of_ then keep else max 1 (len * keep / of_) in
    Array.iteri (fun j idx -> if j < take then picked := sorted.(idx) :: !picked) order;
    i := !i + of_
  done;
  List.rev !picked

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let fuzz_count = 64

(* application sizes: each Fast single-domain run takes 60-110 ms on one
   core of the reference host, so a round of the execute workload is
   about two seconds *)
let matmul_n = 96

let heat_n = 96

let heat_t = 16

let sat_w = 64

let sat_h = 64

let sat_bands = 16

let lama_rows = 2048

let lama_maxnnz = 24

let gallery_mode (k : Workloads.Kernels.kernel) =
  if Support.Util.string_contains ~needle:"#pragma scop" k.Workloads.Kernels.k_source then
    "pluto"
  else "pure"

(** Regenerate [dir] from the program's generators: fuzz seeds
    1..[fuzz_count], the paper applications at the sizes above, and the
    kernel gallery with its expected transforms. *)
let snapshot dir =
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir dir;
  List.iter (fun d -> mkdir (Filename.concat dir d)) [ "fuzz"; "apps"; "gallery" ];
  let lines = ref [ "# kind\tname\tfile\tmode\tattrs" ] in
  let add kind name file mode attrs =
    lines := String.concat "\t" [ kind; name; file; mode; attrs ] :: !lines
  in
  let write file text = Out_channel.with_open_bin (Filename.concat dir file) (fun oc -> output_string oc text) in
  for seed = 1 to fuzz_count do
    let file = Printf.sprintf "fuzz/f%03d.c" seed in
    write file (Fuzzgen.Gen.source_of_seed seed);
    add "fuzz" (Printf.sprintf "fuzz-%03d" seed) file "pure" (Printf.sprintf "seed=%d" seed)
  done;
  let open Workloads in
  let matmul = Printf.sprintf "matmul:%d" matmul_n
  and heat = Printf.sprintf "heat:%d,%d" heat_n heat_t
  and sat = Printf.sprintf "satellite:%d,%d,%d" sat_w sat_h sat_bands
  and lama = Printf.sprintf "lama:%d,%d,1" lama_rows lama_maxnnz in
  let apps =
    [
      ("matmul", "apps/matmul_pure.c", Matmul.pure_source ~n:matmul_n (), matmul);
      ("heat", "apps/heat_pure.c", Heat.pure_source ~n:heat_n ~t:heat_t (), heat);
      ( "satellite",
        "apps/satellite_pure.c",
        Satellite.pure_source ~w:sat_w ~h:sat_h ~bands:sat_bands (),
        sat );
      ("lama", "apps/lama_pure.c", Lama_app.pure_source ~rows:lama_rows ~maxnnz:lama_maxnnz (), lama);
      ( "lama-inspector",
        "apps/lama_inspector.c",
        Lama_app.inspector_source ~rows:lama_rows ~maxnnz:lama_maxnnz (),
        lama );
    ]
  in
  List.iter
    (fun (name, file, src, reference) ->
      write file src;
      (* the gather's scop is marked by hand: plain PluTo, no purity stage *)
      let mode = if name = "lama-inspector" then "pluto" else "pure" in
      add "app" name file mode ("ref=" ^ reference))
    apps;
  List.iter
    (fun (name, file, src) ->
      write file src;
      add "tu" (name ^ "-pure") file "pure" "")
    (List.filter_map
       (fun (name, file, src, _) -> if name = "lama-inspector" then None else Some (name, file, src))
       apps);
  List.iter
    (fun (name, file, src) ->
      write file src;
      List.iter
        (fun (suffix, mode) -> add "tu" (name ^ suffix) file mode "")
        [ ("-pluto", "pluto"); ("-pluto-tiled", "pluto,tile=16"); ("-pluto-sica", "pluto,sica") ])
    [
      ("matmul", "apps/matmul_inlined.c", Matmul.inlined_source ~n:matmul_n ());
      ("heat", "apps/heat_inlined.c", Heat.inlined_source ~n:heat_n ~t:heat_t ());
    ];
  List.iter
    (fun (k : Kernels.kernel) ->
      let file = Printf.sprintf "gallery/%s.c" k.k_name in
      write file k.k_source;
      let x = k.k_expect in
      add "kernel" k.k_name file (gallery_mode k)
        (Printf.sprintf "parallel=%b outer=%b identity=%b" x.x_parallel x.x_outer_parallel
           x.x_identity))
    Kernels.all;
  write "MANIFEST" (String.concat "\n" (List.rev !lines) ^ "\n")
