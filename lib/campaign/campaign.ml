(** Parallel simulation campaigns: deterministic sweep fleets.

    Every experiment this repo runs — the §7.3 fallback stress test, the
    differential fuzz battery, the §7.4 what-if energy grids — is a set
    of fully independent simulations: each task builds its own
    [Soc]/[Ark_run]/[Native_run] world (the simulator is shared-nothing
    per instance) and never touches another task's state. This module
    fans such a campaign out over a {!Pool} of domains and folds the
    results back into one ordered, machine-readable summary.

    {b The invariant: determinism under parallelism.} A campaign is
    identified by [(kind, seed, tasks)] alone. Task [i] derives its
    private PRNG as [Random.State.make [| seed; i; kind tag |]] — never
    from a shared state, never from ambient [Random] — so the work each
    task performs is independent of which worker ran it and of how many
    workers there were. Everything that lands in the document's
    deterministic sections ([meta]/[tasks]/[aggregate], digested) is a
    pure function of the campaign identity; host figures (wall time,
    jobs, core count, the checkout's git revision) are quarantined in
    [host], outside the digest.
    The acceptance test: the same [--seed] produces byte-identical
    deterministic sections — and therefore the same digest — at any
    [--jobs] value. test/test_campaign.ml pins exactly that, for all
    three kinds. *)

open Tk_machine
open Tk_drivers
open Tk_harness
module Translator = Tk_dbt.Translator
module J = Run_manifest
module Counters = Tk_stats.Counters

type kind = Stress | Fuzz | Whatif

let kind_name = function
  | Stress -> "stress"
  | Fuzz -> "fuzz"
  | Whatif -> "whatif"

let kind_of_string = function
  | "stress" -> Some Stress
  | "fuzz" -> Some Fuzz
  | "whatif" -> Some Whatif
  | _ -> None

(* the kind tag seeds the per-task PRNG so the three sweeps never share
   a random stream even at equal (seed, index) *)
let kind_tag = function Stress -> 0x5712 | Fuzz -> 0xF022 | Whatif -> 0x3A1F

(** Per-task PRNG: the whole determinism story hangs on this being the
    only source of randomness a task ever sees. *)
let task_rng ~kind ~seed index =
  Random.State.make [| seed; index; kind_tag kind |]

(* ------------------------------ tasks -------------------------------- *)

(* Each task returns its deterministic summary: a metrics JSON object
   plus mergeable counters. Anything host-timing-dependent is forbidden
   here — it would break cross-jobs byte identity. *)
type task_out = {
  t_metrics : J.json;
  t_counters : (string * int) list;
}

(* --- stress: §7.3 fallback stress, rng-driven glitch schedule --- *)

let stress_task ~runs ~glitch_every rng =
  let runs, fell, reasons, ark =
    Experiments.stress_run ~runs ~glitch_every ~rng ()
  in
  let soc = (Ark_run.plat ark).Platform.soc in
  let act = Core.activity soc.Soc.m3 in
  let e = ark.Ark_run.ark.Transkernel.Ark.engine in
  { t_metrics =
      J.Obj
        [ ("runs", J.Int runs); ("fallbacks", J.Int fell);
          ( "fallback_rate",
            J.Num (float_of_int fell /. float_of_int (max 1 runs)) );
          ("reasons", J.Arr (List.rev_map (fun r -> J.Str r) reasons));
          ("busy_cycles", J.Int act.Core.a_busy_cycles);
          ("instructions", J.Int act.Core.a_instructions);
          ("dbt_blocks", J.Int e.Tk_dbt.Engine.blocks);
          ("engine_exits", J.Int e.Tk_dbt.Engine.engine_exits) ];
    t_counters =
      ("stress.runs", runs) :: ("stress.fallbacks", fell)
      :: Counters.to_assoc ark.Ark_run.ark.Transkernel.Ark.counters }

(* --- fuzz: the differential battery, a chunk per task --- *)

(* the four fuzz arms: the three translator modes plus the superblock
   trace tier, which stacks on Ark mode (its translatability filter) *)
let fuzz_arms =
  [| ("ark", Translator.Ark, Fuzz_gen.compare_arms Translator.Ark);
     ("mid", Translator.Mid, Fuzz_gen.compare_arms Translator.Mid);
     ( "baseline", Translator.Baseline,
       Fuzz_gen.compare_arms Translator.Baseline );
     ("superblock", Translator.Ark, Fuzz_gen.compare_superblock) |]

let fuzz_task ~programs index rng =
  let arm_name, mode, compare_fn =
    fuzz_arms.(index mod Array.length fuzz_arms)
  in
  let compared = ref 0
  and generated = ref 0
  and divergences = ref 0 in
  let first_report = ref "" in
  let gen_digest = ref 0x1bf29ce484222325 in
  while !compared < programs do
    (* alternate program shapes from the same stream *)
    let slots =
      if Random.State.bool rng then Fuzz_gen.gen_straight rng
      else Fuzz_gen.gen_branchy rng
    in
    incr generated;
    if Fuzz_gen.translatable mode slots then begin
      gen_digest :=
        (!gen_digest lxor Fuzz_gen.program_fnv slots)
        * 0x100000001b3 land max_int;
      (match compare_fn slots with
      | Ok () -> ()
      | Error report ->
        incr divergences;
        if !first_report = "" then
          first_report :=
            report ^ "\nprogram:\n" ^ Fuzz_gen.program_str slots);
      incr compared
    end
  done;
  { t_metrics =
      J.Obj
        ([ ("mode", J.Str arm_name);
           ("programs", J.Int !compared); ("generated", J.Int !generated);
           ("divergences", J.Int !divergences);
           ("gen_digest", J.Str (Printf.sprintf "%016x" !gen_digest)) ]
        @
        if !divergences = 0 then []
        else [ ("first_divergence", J.Str !first_report) ]);
    t_counters =
      [ ("fuzz.compared", !compared); ("fuzz.divergences", !divergences);
        ("fuzz.generated", !generated) ] }

(* --- whatif: §7.4 energy grid, one busy-fraction sample per task --- *)

let whatif_overheads =
  [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 12.0; 16.0 ]

let whatif_task rng =
  let module W = Tk_energy.Whatif in
  (* busy fraction sampled on 0.05 .. 1.00 in percent steps: coarse
     enough to print exactly, fine enough to fill a heat map *)
  let busy_frac = float_of_int (5 + Random.State.int rng 96) /. 100.0 in
  let series =
    List.map
      (fun ov ->
        ( ov,
          W.relative_energy ~a9:Soc.a9_params ~m3:Soc.m3_params ~overhead:ov
            ~busy_frac () ))
      whatif_overheads
  in
  let be = W.break_even ~busy_frac () in
  let below = List.filter (fun (_, rel) -> rel < 1.0) series in
  { t_metrics =
      J.Obj
        [ ("busy_frac", J.Num busy_frac);
          ( "break_even_overhead",
            if Float.is_finite be then J.Num be else J.Str "unbounded" );
          ( "grid",
            J.Arr
              (List.map
                 (fun (ov, rel) ->
                   J.Obj
                     [ ("overhead", J.Num ov); ("rel_energy", J.Num rel) ])
                 series) ) ];
    t_counters =
      [ ("whatif.points", List.length series);
        ("whatif.saving_points", List.length below) ] }

(* --------------------------- the campaign ---------------------------- *)

type config = {
  kind : kind;
  tasks : int;
  jobs : int;
  seed : int;
  stress_runs : int;  (** suspend/resume cycles per stress task *)
  stress_glitch_every : int;  (** expected cycles between glitches *)
  fuzz_programs : int;  (** compared programs per fuzz task *)
  chaos_fail : int option;
      (** fault injection for the error-propagation path: the given
          task index raises instead of running. Tests (and nothing
          else) use this to pin how worker errors surface in the
          document, the exit code and the CLI message. *)
}

let default_config kind =
  { kind; tasks = 8; jobs = 1; seed = 1; stress_runs = 10;
    stress_glitch_every = 4; fuzz_programs = 8; chaos_fail = None }

type t = {
  config : config;
  doc : J.json;  (** the campaign document, ready to write *)
  digest : string;  (** FNV over the deterministic sections *)
  wall_s : float;
  errors : (int * string) list;  (** (task index, message) *)
  divergences : int;  (** fuzz arms that disagreed (0 outside fuzz) *)
}

let failed t = t.errors <> [] || t.divergences > 0

(** [first_error t] — the lowest-task-index worker error, if any. The
    CLI's non-zero exit path prints this (task index and message)
    instead of a generic failure line. *)
let first_error t = match t.errors with [] -> None | e :: _ -> Some e

(** [run config] — execute the campaign on [config.jobs] domains and
    assemble the summary document. Worker tasks never print; every task
    constructs (and drops) its own simulated world. *)
let run (cfg : config) =
  let { kind; tasks; jobs; seed; _ } = cfg in
  let task i =
    (match cfg.chaos_fail with
    | Some j when j = i ->
      failwith (Printf.sprintf "chaos injection (task %d)" i)
    | _ -> ());
    let rng = task_rng ~kind ~seed i in
    match kind with
    | Stress ->
      stress_task ~runs:cfg.stress_runs
        ~glitch_every:cfg.stress_glitch_every rng
    | Fuzz -> fuzz_task ~programs:cfg.fuzz_programs i rng
    | Whatif -> whatif_task rng
  in
  let wall0 = Unix.gettimeofday () in
  let outcomes = Pool.run ~jobs ~tasks task in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let errors = ref [] in
  let task_docs =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Ok out ->
             J.Obj
               [ ("task", J.Int i); ("metrics", out.t_metrics);
                 ("counters", J.counters_obj out.t_counters) ]
           | Error msg ->
             errors := (i, msg) :: !errors;
             J.Obj [ ("task", J.Int i); ("error", J.Str msg) ])
         outcomes)
  in
  let errors = List.rev !errors in
  let ok_outs =
    Array.to_list outcomes
    |> List.filter_map (function Ok o -> Some o | Error _ -> None)
  in
  let merged = Counters.merge (List.map (fun o -> o.t_counters) ok_outs) in
  let counter k = Option.value ~default:0 (List.assoc_opt k merged) in
  let divergences = counter "fuzz.divergences" in
  let kind_aggregate =
    match kind with
    | Stress ->
      [ ("runs", J.Int (counter "stress.runs"));
        ("fallbacks", J.Int (counter "stress.fallbacks"));
        ( "fallback_rate",
          J.Num
            (float_of_int (counter "stress.fallbacks")
            /. float_of_int (max 1 (counter "stress.runs"))) ) ]
    | Fuzz ->
      [ ("programs", J.Int (counter "fuzz.compared"));
        ("divergences", J.Int divergences) ]
    | Whatif -> [ ("points", J.Int (counter "whatif.points")) ]
  in
  let meta =
    J.Obj
      [ ("kind", J.Str (kind_name kind)); ("seed", J.Int seed);
        ("tasks", J.Int tasks) ]
  in
  let tasks_json = J.Arr task_docs in
  let aggregate =
    J.Obj
      (kind_aggregate
      @ [ ("task_errors", J.Int (List.length errors));
          ("counters", J.counters_obj merged) ])
  in
  (* the digest covers exactly the sections that must not depend on
     [jobs]: meta, every per-task record, and the aggregate *)
  let digest =
    Run_manifest.digest_string
      (J.to_string
         (J.Obj
            [ ("meta", meta); ("tasks", tasks_json);
              ("aggregate", aggregate) ]))
  in
  let host =
    J.Obj
      [ ("jobs", J.Int jobs); ("wall_s", J.Num wall_s);
        ( "host_cores",
          J.Int (Domain.recommended_domain_count ()) );
        ("git_rev", J.Str (Run_manifest.git_rev ())) ]
  in
  let doc =
    J.Obj
      [ ("schema", J.Str "arksim-campaign-v1"); ("meta", meta);
        ("tasks", tasks_json); ("aggregate", aggregate);
        ("digest", J.Str digest); ("host", host) ]
  in
  { config = cfg; doc; digest; wall_s; errors; divergences }

let write_file path t = J.write_file path t.doc

(** [print_summary t] — the collector-side human rendering (workers
    never print: stdout interleaving across domains would be
    nondeterministic). *)
let print_summary t =
  let cfg = t.config in
  Printf.printf
    "campaign %s: %d tasks on %d job(s) in %.2f s — digest %s\n"
    (kind_name cfg.kind) cfg.tasks cfg.jobs t.wall_s t.digest;
  (match cfg.kind with
  | Fuzz ->
    Printf.printf "  fuzz: %d divergence(s)\n" t.divergences
  | Stress | Whatif -> ());
  List.iter
    (fun (i, msg) -> Printf.printf "  task %d FAILED: %s\n" i msg)
    t.errors;
  if t.errors = [] then Printf.printf "  all tasks completed\n"
