(** The compile chain stage by stage, with a span around each call into a
    layer.  It performs exactly the calls of {!Toolchain.Chain.compile},
    in the same order, and the traced run checks that both yield the same
    emitted C, stage sources and outcomes. *)

open Toolchain

let span = Span.with_span

(* Pluto.run, with the words it allocates counted *)
let pluto ~config program =
  span "pluto" (fun () ->
      let w0 = Common.allocated_words () in
      let r = Pluto.run ~config program in
      Span.count "pluto.alloc_words" (Common.allocated_words () -. w0);
      r)

let compile ~(mode : Chain.mode) (source : string) : Chain.compiled =
  let reporter = Support.Diag.create_reporter () in
  let stripped = span "cpp" (fun () -> Cpp.Pc_prepro.strip source) in
  let preprocessed =
    span "cpp" (fun () ->
        let env = Cpp.Preproc.create ~reporter () in
        Cpp.Preproc.run env stripped.Cpp.Pc_prepro.source)
  in
  Chain.fail_if_errors reporter;
  let program =
    span "cfront.parse" (fun () -> Cfront.Parser.program_of_string ~reporter preprocessed)
  in
  let _env = span "sema" (fun () -> Sema.Typecheck.check_program ~reporter program) in
  Chain.fail_if_errors reporter;
  let stages = ref [ ("gcc-E", preprocessed); ("pc-prepro", stripped.Cpp.Pc_prepro.source) ] in
  let print ast = span "emit" (fun () -> Cfront.Ast_printer.program_to_string ast) in
  let strip_tags text = span "emit" (fun () -> Pluto.strip_unit_tags text) in
  let finish ast outcomes scops =
    let printed = print ast in
    let reinserted = span "emit" (fun () -> Cpp.Pc_prepro.reinsert stripped printed) in
    let emitted = strip_tags reinserted in
    stages := ("pc-pospro", emitted) :: !stages;
    {
      Chain.c_ast = ast;
      c_emitted = emitted;
      c_outcomes = outcomes;
      c_diags = Support.Diag.diagnostics reporter;
      c_stage_sources = List.rev !stages;
      c_scops = scops;
    }
  in
  match mode with
  | Chain.Sequential -> finish program [] 0
  | Chain.Manual_omp ->
    let _registry =
      span "purity" (fun () -> Purity.Purity_check.check_program ~reporter program)
    in
    Chain.fail_if_errors reporter;
    let lowered = span "purity" (fun () -> Purity.Lowering.lower program) in
    stages := ("pc-cc", print lowered) :: !stages;
    finish lowered [] 0
  | Chain.Plain_pluto adjust ->
    let config = adjust Pluto.default_config in
    let transformed, outcomes = pluto ~config program in
    stages := ("polycc", strip_tags (print transformed)) :: !stages;
    finish transformed outcomes 0
  | Chain.Pure_chain adjust ->
    let registry =
      span "purity" (fun () -> Purity.Purity_check.check_program ~reporter program)
    in
    Chain.fail_if_errors reporter;
    let marked =
      span "purity" (fun () -> Purity.Scop_marker.mark ~registry ~reporter program)
    in
    Chain.fail_if_errors reporter;
    let scops = Purity.Scop_marker.count_scops marked in
    stages := ("pc-cc", print marked) :: !stages;
    let summaries =
      span "purity" (fun () -> Purity.Fn_metadata.summarize_program marked)
    in
    let config =
      adjust
        { Pluto.default_config with hide_pure_calls = Some registry; fn_summaries = summaries }
    in
    let transformed, outcomes = pluto ~config marked in
    stages := ("polycc", strip_tags (print transformed)) :: !stages;
    let lowered = span "purity" (fun () -> Purity.Lowering.lower transformed) in
    finish lowered outcomes scops

(** The parts of a compile result a user sees, for comparing the staged
    path with {!Toolchain.Chain.compile}. *)
let fingerprint (c : Chain.compiled) =
  ( c.Chain.c_emitted,
    c.Chain.c_stage_sources,
    c.Chain.c_scops,
    Fmt.str "%a" Chain.pp_outcomes c,
    List.length c.Chain.c_diags )
