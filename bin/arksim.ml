(* arksim — drive the transkernel simulation; `arksim --help` lists the
   subcommands and `arksim CMD --help` their flags. *)

open Cmdliner
open Tk_harness
module Translator = Tk_dbt.Translator
module Power = Tk_energy.Power_model
module Soc = Tk_machine.Soc

(* The one range check of an integer flag: a value outside [lo, hi]
   exits 2 with a message naming the command and the flag. *)
let check_flag cmd flag ?(hi = max_int) ~lo v =
  if v < lo || v > hi then begin
    if hi = max_int then Printf.eprintf "%s: --%s must be >= %d\n" cmd flag lo
    else Printf.eprintf "%s: --%s must be in %d..%d\n" cmd flag lo hi;
    exit 2
  end

(* The one check of an output-file flag, made before anything runs and
   without creating the file: the path must name a writable file in an
   existing directory, not a directory. Otherwise exit 2 with a message
   naming the command and the flag. *)
let check_out cmd flag = function
  | None -> ()
  | Some f ->
    let writable p =
      try Unix.access p [ Unix.W_OK ]; true with Unix.Unix_error _ -> false
    in
    let dir = Filename.dirname f in
    let why =
      if Sys.file_exists f then
        if Sys.is_directory f then Some "is a directory"
        else if writable f then None
        else Some "is not writable"
      else if not (Sys.file_exists dir && Sys.is_directory dir) then
        Some "has no such directory"
      else if writable dir then None
      else Some "is in a directory that is not writable"
    in
    Option.iter
      (fun why ->
        Printf.eprintf "%s: --%s %s %s\n" cmd flag f why;
        exit 2)
      why

let layout_of_string = function
  | "v3.16" -> Ok Tk_kernel.Variants.v3_16
  | "v4.4" -> Ok Tk_kernel.Layout.v4_4
  | "v4.9" -> Ok Tk_kernel.Variants.v4_9
  | "v4.20" -> Ok Tk_kernel.Variants.v4_20
  | s -> Error (`Msg ("unknown kernel version " ^ s))

let layout_conv =
  Arg.conv
    ( layout_of_string,
      fun ppf (l : Tk_kernel.Layout.t) ->
        Format.pp_print_string ppf l.Tk_kernel.Layout.version )

let mode_conv =
  Arg.conv
    ( (function
      | "native" -> Ok `Native
      | "ark" -> Ok (`Dbt Translator.Ark)
      | "mid" -> Ok (`Dbt Translator.Mid)
      | "baseline" -> Ok (`Dbt Translator.Baseline)
      | s -> Error (`Msg ("unknown mode " ^ s))),
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with
          | `Native -> "native"
          | `Dbt Translator.Ark -> "ark"
          | `Dbt Translator.Mid -> "mid"
          | `Dbt Translator.Baseline -> "baseline") )

(* -------------------------------- run -------------------------------- *)

module Trace = Tk_stats.Trace

(* render phase-marker codes (Hyper.phase_mark payloads plus the
   runners' 900/901 sleep markers) for the per-phase summary table *)
let phase_name devices code =
  let open Tk_kernel.Hyper in
  if code = ph_suspend_begin then "suspend_begin"
  else if code = ph_suspend_end then "suspend_end"
  else if code = ph_resume_begin then "resume_begin"
  else if code = ph_resume_end then "resume_end"
  else if code = 900 then "sleep_begin"
  else if code = 901 then "sleep_end"
  else if code >= ph_dev_mark then begin
    let i = (code - ph_dev_mark) / 10 in
    let k = (code - ph_dev_mark) mod 10 in
    let dev =
      match List.nth_opt devices i with
      | Some d -> d
      | None -> Printf.sprintf "dev%d" i
    in
    let what =
      match k with
      | 0 -> "suspend.b"
      | 1 -> "suspend.e"
      | 2 -> "resume.b"
      | 3 -> "resume.e"
      | _ -> string_of_int k
    in
    dev ^ ":" ^ what
  end
  else string_of_int code

(* enable the flight recorder if any tracing option was given; returns
   whether it is on. Called after boot so the trace covers only the
   benchmark cycles. *)
let trace_setup tr ~trace_file ~trace_filter ~trace_cap =
  if trace_file = None && trace_filter = None && trace_cap = None then false
  else begin
    let filter =
      match trace_filter with
      | None -> None
      | Some s -> (
        match Trace.filter_of_names (String.split_on_char ',' s) with
        | Ok m -> Some m
        | Error n ->
          Printf.eprintf "unknown trace event kind: %s\n" n;
          exit 2)
    in
    Trace.enable ?cap:trace_cap ?filter tr;
    true
  end

let trace_finish tr ~trace_file ~devices =
  (match trace_file with
  | Some f ->
    let oc = open_out f in
    Trace.dump_jsonl oc tr;
    close_out oc;
    Printf.printf "trace: %d events (of %d recorded) -> %s\n"
      (Trace.retained tr) tr.Trace.total f
  | None -> ());
  Trace.summary ~phase_name:(phase_name devices) tr

(* causal span tracer: on when either export was requested. Enabled
   after boot, like the flight recorder, so the causal trees cover only
   the benchmark cycles. *)
let spans_setup (soc : Soc.t) ~spans_file ~perfetto_file =
  if spans_file <> None || perfetto_file <> None then
    Tk_stats.Span.enable soc.Soc.spans

let spans_finish (soc : Soc.t) ~spans_file ~perfetto_file =
  let sp = soc.Soc.spans in
  if sp.Tk_stats.Span.enabled then begin
    (match spans_file with
    | Some f ->
      let oc = open_out f in
      Tk_stats.Span.dump_jsonl oc sp;
      close_out oc;
      Printf.printf "spans: %d recorded (%d dropped) -> %s\n"
        (Tk_stats.Span.spans sp) (Tk_stats.Span.dropped sp) f
    | None -> ());
    (match perfetto_file with
    | Some f ->
      let oc = open_out f in
      let ts = soc.Soc.sampler in
      Tk_stats.Span.dump_perfetto
        ?timeseries:(if ts.Tk_stats.Timeseries.enabled then Some ts else None)
        oc sp;
      close_out oc;
      Printf.printf
        "perfetto trace -> %s (load in ui.perfetto.dev or chrome://tracing)\n"
        f
    | None -> ());
    Tk_stats.Span.summary sp
  end

let print_profile (e : Tk_dbt.Engine.t) =
  let rows = Tk_dbt.Engine.profile_blocks e in
  let top = List.filteri (fun i _ -> i < 24) rows in
  Tk_stats.Report.table ~title:"DBT hot blocks (top 24 by executions)"
    ~header:
      [ "guest_pc"; "host"; "execs"; "dispatch"; "chain_hit"; "g_insts";
        "h_words" ]
    (List.map
       (fun (bp : Tk_dbt.Engine.block_profile) ->
         [ Printf.sprintf "0x%x" bp.Tk_dbt.Engine.bp_guest;
           Printf.sprintf "0x%x" bp.Tk_dbt.Engine.bp_host;
           string_of_int bp.Tk_dbt.Engine.bp_execs;
           string_of_int bp.Tk_dbt.Engine.bp_dispatches;
           Tk_stats.Report.pct (Tk_dbt.Engine.chain_rate bp);
           string_of_int bp.Tk_dbt.Engine.bp_guest_insts;
           string_of_int bp.Tk_dbt.Engine.bp_host_words ])
       top)

(* ----------------------------- telemetry ----------------------------- *)

module Ts = Tk_stats.Timeseries
module Attribution = Tk_energy.Attribution
module Manifest = Run_manifest

(* phase 0 is everything sampled before the first phase mark *)
let tel_phase_name devices code =
  if code = 0 then "setup" else phase_name devices code

(* The sampler is enabled when any telemetry output was requested; the
   ledger and manifest are then derived from the sampled window itself
   (first-to-last retained row), so a wrapped ring still reconciles. *)
let telemetry_on ~ts_file ~manifest_file ~sample_every =
  ts_file <> None || manifest_file <> None || sample_every <> None

let telemetry_setup (soc : Soc.t) ~ts_file ~manifest_file ~sample_every =
  if telemetry_on ~ts_file ~manifest_file ~sample_every then
    Ts.enable ?period_ns:sample_every soc.Soc.sampler

(* window activity of the active core, reconstructed from the sampler's
   own first/last rows (the ledger integrates exactly this window) *)
let window_delta ts ~active first last =
  let g name r =
    match Ts.col_index ts name with
    | Some i -> r.(i)
    | None -> 0
  in
  let d name = g (active ^ "_" ^ name) last - g (active ^ "_" ^ name) first in
  ( { Tk_machine.Core.a_busy_cycles = d "busy_cy"; a_busy_ps = d "busy_ps";
      a_idle_ps = d "idle_ps"; a_instructions = d "instrs";
      a_cache_misses = d "miss"; a_rd_bytes = d "rd_bytes";
      a_wr_bytes = d "wr_bytes" },
    ( g "dma_rd_bytes" last - g "dma_rd_bytes" first,
      g "dma_wr_bytes" last - g "dma_wr_bytes" first ) )

let telemetry_finish (soc : Soc.t) ~active ~params ~devices ~variant ~kernel
    ~cycles ~wall_s ~ts_file ~manifest_file =
  let ts = soc.Soc.sampler in
  (* close the window with a final forced row *)
  Ts.sample_now ts;
  let rows = Ts.rows ts in
  let n = Array.length rows in
  if n < 2 then begin
    Printf.eprintf "telemetry: no samples recorded\n";
    1
  end
  else begin
    let first = rows.(0) and last = rows.(n - 1) in
    let act, dma = window_delta ts ~active first last in
    let model = Power.of_activity ~params ~act ~dma_bytes:dma () in
    let ledger =
      Attribution.integrate ts
        ~cores:[ ("a9", Soc.a9_params); ("m3", Soc.m3_params) ]
        ~active
    in
    (* per-phase energy table (active core), Figure-6-style *)
    Tk_stats.Report.table
      ~title:
        (Printf.sprintf "energy attribution (%s core, %d epochs)" active
           ledger.Attribution.l_epochs)
      ~header:[ "phase"; "core_busy"; "core_idle"; "dram"; "io"; "total" ]
      (List.map
         (fun ph ->
           let cells = Attribution.phase_breakdown ledger ph in
           let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 cells in
           tel_phase_name devices ph
           :: List.map (fun (_, v) -> Tk_stats.Report.mj v) cells
           @ [ Tk_stats.Report.mj total ])
         (Attribution.phases ledger));
    (* ledger vs the scalar model, the 0.1% reconciliation bar *)
    let checks = Attribution.reconcile ledger model in
    Tk_stats.Report.table ~title:"ledger vs power model"
      ~header:[ "component"; "ledger"; "model"; "rel_err" ]
      (List.map
         (fun (k : Attribution.check) ->
           [ k.Attribution.k_comp;
             Tk_stats.Report.mj k.Attribution.k_ledger_uj;
             Tk_stats.Report.mj k.Attribution.k_model_uj;
             Printf.sprintf "%.5f%%" (k.Attribution.k_rel_err *. 100.) ])
         checks);
    let worst = Attribution.max_rel_err checks in
    Printf.printf "reconciliation: worst component error %.5f%% (%s)\n"
      (worst *. 100.)
      (if worst <= 0.001 then "ok" else "EXCEEDS 0.1% BAR");
    (* raw series export *)
    (match ts_file with
    | None -> ()
    | Some f ->
      let oc = open_out f in
      if Filename.check_suffix f ".csv" then Ts.to_csv oc ts
      else Ts.to_jsonl oc ts;
      close_out oc;
      Printf.printf "timeseries: %d rows (%d dropped) -> %s\n"
        (Ts.retained ts) (Ts.dropped ts) f);
    (* manifest *)
    (match manifest_file with
    | None -> ()
    | Some f ->
      let open Manifest in
      let counters =
        (* every wired gauge becomes a window-delta counter *)
        let labels = Ts.labels ts in
        Obj
          (List.filter_map
             (fun i ->
               let name = labels.(i) in
               if name = "t_ns" || name = "phase" then None
               else Some (name, Int (last.(i) - first.(i))))
             (List.init (Array.length labels) Fun.id))
      in
      let comp_obj =
        Obj
          (List.map
             (fun c -> (c, Num (Attribution.component_total ledger c)))
             Attribution.components
          @ [ ("total", Num (Attribution.active_total ledger)) ])
      in
      let phase_obj =
        Obj
          (List.map
             (fun ph ->
               ( tel_phase_name devices ph,
                 Obj
                   (List.map
                      (fun (c, v) -> (c, Num v))
                      (Attribution.phase_breakdown ledger ph)) ))
             (Attribution.phases ledger))
      in
      let metrics =
        Obj
          [ ("busy_ms", Num model.Power.busy_ms);
            ("idle_ms", Num model.Power.idle_ms);
            ("window_ns", Int (ledger.Attribution.l_t1_ns
                               - ledger.Attribution.l_t0_ns));
            ("energy_uj", comp_obj); ("phase_energy_uj", phase_obj);
            ( "sampler",
              Obj
                [ ("rows", Int (Ts.retained ts));
                  ("epochs", Int ledger.Attribution.l_epochs);
                  ("dropped", Int (Ts.dropped ts));
                  ("period_ns", Int ts.Ts.period_ns) ] ) ]
      in
      let host =
        Obj
          [ ("wall_s", Num wall_s);
            ( "sim_mips",
              Num
                (if wall_s <= 0.0 then 0.0
                 else
                   float_of_int act.Tk_machine.Core.a_instructions
                   /. wall_s /. 1e6) ) ]
      in
      let doc =
        make ~variant ~kernel ~cycles ~metrics ~counters ~host ()
      in
      write_file f doc;
      Printf.printf "manifest -> %s\n" f);
    if worst <= 0.001 then 0 else 1
  end

let summarize label (core : Tk_machine.Core.t) params warns =
  let act = Tk_machine.Core.activity core in
  let e = Power.of_activity ~params ~act () in
  Printf.printf
    "%s: busy %.2f ms, idle %.2f ms, %d instructions, %.2f mJ system \
     energy, %d WARNs\n"
    label
    (float_of_int act.Tk_machine.Core.a_busy_ps /. 1e9)
    (float_of_int act.Tk_machine.Core.a_idle_ps /. 1e9)
    act.Tk_machine.Core.a_instructions
    (Power.total e /. 1000.)
    warns

let run_cmd mode tier cache_dir cycles layout sleep_ms glitch_every
    resume_native m3_cache certify_traces quantum concurrent
    trace_file trace_filter trace_cap profile ts_file sample_every
    manifest_file spans_file perfetto_file verbose =
  let kernel = layout.Tk_kernel.Layout.version in
  let telemetry = telemetry_on ~ts_file ~manifest_file ~sample_every in
  let superblock = tier = `Superblock in
  if (superblock || cache_dir <> None) && mode <> `Dbt Translator.Ark then begin
    Printf.eprintf
      "run: --tier superblock and --cache-dir require --mode ark\n";
    exit 2
  end;
  if mode = `Native then
    List.iter
      (fun (flag, given) ->
        if given then begin
          Printf.eprintf
            "run: --%s requires an offloaded mode, not --mode native\n" flag;
          exit 2
        end)
      [ ("quantum", quantum <> 0); ("m3-cache", m3_cache <> None);
        ("resume-native", resume_native); ("profile", profile);
        ("glitch-every", glitch_every <> 0) ];
  if certify_traces && not superblock then begin
    Printf.eprintf "run: --certify-traces requires --tier superblock\n";
    exit 2
  end;
  let check = check_flag "run" in
  List.iter
    (fun (flag, f) -> check_out "run" flag f)
    [ ("trace", trace_file); ("timeseries", ts_file);
      ("manifest", manifest_file); ("spans", spans_file);
      ("perfetto", perfetto_file) ];
  check "cycles" ~lo:0 cycles;
  check "sleep-ms" ~lo:0 sleep_ms;
  check "glitch-every" ~lo:0 glitch_every;
  Option.iter (check "m3-cache" ~lo:1 ~hi:65536) m3_cache;
  check "quantum" ~lo:0 quantum;
  Option.iter (check "trace-cap" ~lo:1 ~hi:(1 lsl 24)) trace_cap;
  Option.iter (check "sample-every" ~lo:1) sample_every;
  if concurrent <> `Off && (mode = `Native || resume_native) then begin
    Printf.eprintf
      "run: --concurrent-cores requires an offloaded mode without \
       --resume-native\n";
    exit 2
  end;
  match mode with
  | `Native ->
    let nat = Native_run.create ~layout ~sleep_ms () in
    let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
    let tr = Native_run.trace nat in
    let tracing = trace_setup tr ~trace_file ~trace_filter ~trace_cap in
    telemetry_setup soc ~ts_file ~manifest_file ~sample_every;
    spans_setup soc ~spans_file ~perfetto_file;
    let wall0 = Unix.gettimeofday () in
    for i = 1 to cycles do
      ignore (Native_run.suspend_resume_cycle nat);
      if verbose then Printf.printf "cycle %d done\n%!" i
    done;
    let wall_s = Unix.gettimeofday () -. wall0 in
    summarize "native" soc.Soc.cpu Soc.a9_params
      (List.length nat.Native_run.warns);
    if tracing then
      trace_finish tr ~trace_file ~devices:nat.Native_run.devices;
    spans_finish soc ~spans_file ~perfetto_file;
    if telemetry then
      telemetry_finish soc ~active:"a9" ~params:Soc.a9_params
        ~devices:nat.Native_run.devices ~variant:"native" ~kernel ~cycles
        ~wall_s ~ts_file ~manifest_file
    else 0
  | `Dbt dbt_mode ->
    let ark =
      Ark_run.create ~layout ~mode:dbt_mode ~superblock ?cache_dir ~sleep_ms
        ?m3_cache_kb:m3_cache ()
    in
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    let tr = Ark_run.trace ark in
    let tracing = trace_setup tr ~trace_file ~trace_filter ~trace_cap in
    telemetry_setup soc ~ts_file ~manifest_file ~sample_every;
    spans_setup soc ~spans_file ~perfetto_file;
    let e = ark.Ark_run.ark.Transkernel.Ark.engine in
    if profile then e.Tk_dbt.Engine.profile <- true;
    if certify_traces then begin
      let built = (Ark_run.plat ark).Tk_drivers.Platform.built in
      let image = built.Tk_kernel.Image.image in
      e.Tk_dbt.Engine.sb_certify <-
        Some
          (Tk_analysis.Certify.admit
             ~read_guest:(Tk_analysis.Certify.read_guest_of_image image)
             ~classify_target:e.Tk_dbt.Engine.classify_target
             ~block_limit:e.Tk_dbt.Engine.block_limit ())
    end;
    ark.Ark_run.quantum <- quantum;
    let wifi = Tk_drivers.Platform.device (Ark_run.plat ark) "wifi" in
    let wall0 = Unix.gettimeofday () in
    for i = 1 to cycles do
      if glitch_every > 0 && i mod glitch_every = 0 then
        wifi.Tk_drivers.Device.glitch_next_resume <- true;
      let r =
        match concurrent with
        | `Off -> Ark_run.suspend_resume_cycle ~resume_native ark
        | `Interleave -> Ark_run.concurrent_cycle ark
      in
      if verbose then
        Printf.printf "cycle %d: %s\n%!" i
          (match r with `Ok -> "ok" | `Fell_back r -> "fell back: " ^ r)
    done;
    let wall_s = Unix.gettimeofday () -. wall0 in
    summarize "offloaded" soc.Soc.m3 Soc.m3_params
      (List.length ark.Ark_run.nat.Native_run.warns);
    if quantum > 0 || concurrent <> `Off then
      Printf.printf
        "lockstep: %d round(s), %d barrier commit(s), max skew %d ns\n"
        ark.Ark_run.ls_rounds ark.Ark_run.ls_commits ark.Ark_run.ls_max_skew_ns;
    Printf.printf
      "DBT: %d blocks, %d guest -> %d host instructions, %d engine exits, \
       %d fallbacks\n"
      e.Tk_dbt.Engine.blocks e.Tk_dbt.Engine.guest_translated
      e.Tk_dbt.Engine.host_emitted e.Tk_dbt.Engine.engine_exits
      (List.length ark.Ark_run.fallbacks);
    if superblock then begin
      Printf.printf
        "superblock: %d traces, %d fusions, %d warm hits, \
         %d invalidations, %d flushes\n"
        e.Tk_dbt.Engine.traces_formed e.Tk_dbt.Engine.fusions_applied
        e.Tk_dbt.Engine.cache_warm_hits e.Tk_dbt.Engine.invalidations
        e.Tk_dbt.Engine.flushes;
      if certify_traces then
        Printf.printf "certifier: %d plan(s) rejected\n"
          e.Tk_dbt.Engine.certify_rejects
    end;
    if cache_dir <> None then Ark_run.save_cache ark;
    if tracing then
      trace_finish tr ~trace_file
        ~devices:ark.Ark_run.nat.Native_run.devices;
    spans_finish soc ~spans_file ~perfetto_file;
    if profile then print_profile e;
    let variant =
      if superblock then "superblock"
      else
        match dbt_mode with
        | Translator.Ark -> "ark"
        | Translator.Mid -> "mid"
        | Translator.Baseline -> "baseline"
    in
    if telemetry then
      telemetry_finish soc ~active:"m3" ~params:Soc.m3_params
        ~devices:ark.Ark_run.nat.Native_run.devices ~variant ~kernel ~cycles
        ~wall_s ~ts_file ~manifest_file
    else 0

(* ------------------------------ report ------------------------------- *)

(* exit codes: 0 within tolerance, 1 regression (or gated key missing),
   2 parse/usage error *)
let report_cmd baseline candidate tolerance only =
  let only =
    match only with
    | None -> []
    | Some s ->
      List.filter (fun s -> s <> "") (String.split_on_char ',' s)
  in
  (* a NaN or infinite band would pass every delta *)
  if not (Float.is_finite tolerance && tolerance >= 0.0) then begin
    Printf.eprintf "report: --tolerance must be a finite percentage >= 0\n";
    2
  end
  else
    match
      Manifest.compare_manifests ~baseline ~candidate ~only
        ~tolerance_pct:tolerance
    with
    | exception Manifest.Parse_error msg ->
      Printf.eprintf "report: parse error: %s\n" msg;
      2
    | exception Sys_error msg ->
      Printf.eprintf "report: %s\n" msg;
      2
    | [], [] ->
      Printf.eprintf "report: no metrics selected\n";
      2
    | verdicts, missing ->
      Tk_stats.Report.table
        ~title:
          (Printf.sprintf "%s -> %s (tolerance %.1f%%)"
             (Filename.basename baseline)
             (Filename.basename candidate)
             tolerance)
        ~header:[ "metric"; "baseline"; "candidate"; "delta"; "verdict" ]
        (List.map
           (fun (v : Manifest.verdict) ->
             [ v.Manifest.v_key;
               Printf.sprintf "%.4g" v.Manifest.v_base;
               Printf.sprintf "%.4g" v.Manifest.v_cand;
               Printf.sprintf "%+.2f%%" v.Manifest.v_delta_pct;
               (if v.Manifest.v_regressed then "REGRESSED" else "ok") ])
           verdicts);
      List.iter
        (fun k -> Printf.printf "missing from candidate: %s\n" k)
        missing;
      let nreg =
        List.length (List.filter (fun v -> v.Manifest.v_regressed) verdicts)
      in
      Printf.printf "report: %d metric(s), %d regression(s), %d missing\n"
        (List.length verdicts) nreg (List.length missing);
      if nreg > 0 || missing <> [] then 1 else 0

(* ------------------------------- sweep ------------------------------- *)

module Campaign = Tk_campaign.Campaign

(* exit codes: 0 clean, 1 any task error or fuzz divergence *)
let sweep_cmd kind tasks jobs seed out =
  check_flag "sweep" "tasks" ~lo:0 tasks;
  check_flag "sweep" "jobs" ~lo:1 jobs;
  check_out "sweep" "out" out;
  let cfg =
    { (Campaign.default_config kind) with Campaign.tasks; jobs; seed }
  in
  let t = Campaign.run cfg in
  Campaign.print_summary t;
  (match out with
  | None -> ()
  | Some f ->
    Campaign.write_file f t;
    Printf.printf "campaign -> %s\n" f);
  if Campaign.failed t then begin
    (match Campaign.first_error t with
    | Some (i, msg) -> Printf.eprintf "sweep: task %d failed: %s\n" i msg
    | None -> Printf.eprintf "sweep: fuzz divergence\n");
    1
  end
  else 0

(* ------------------------------- fleet ------------------------------- *)

module Fleet = Tk_fleet.Fleet
module Arrival = Tk_fleet.Arrival

(* exit codes: 0 clean, 1 any shard error (first one is named) *)
let fleet_cmd devices arrival jobs seed duration_ms gap_ms shard_cap reversed
    quantum out =
  let check = check_flag "fleet" in
  check "devices" ~lo:0 devices;
  check "jobs" ~lo:1 jobs;
  check "duration-ms" ~lo:0 duration_ms;
  check "gap-ms" ~lo:1 gap_ms;
  check "shard-cap" ~lo:1 shard_cap;
  check "quantum" ~lo:0 quantum;
  check_out "fleet" "out" out;
  let cfg =
    { Fleet.default_config with
      Fleet.devices; arrival; jobs; seed; duration_ms;
      mean_gap_ms = gap_ms; shard_cap; quantum;
      schedule = (if reversed then Fleet.Reversed else Fleet.Chrono) }
  in
  let t = Fleet.run cfg in
  Fleet.print_summary t;
  (match out with
  | None -> ()
  | Some f ->
    Fleet.write_file f t;
    Printf.printf "fleet -> %s\n" f);
  if Fleet.failed t then begin
    (match Fleet.first_error t with
    | Some (i, msg) -> Printf.eprintf "fleet: shard %d failed: %s\n" i msg
    | None -> ());
    1
  end
  else 0

(* ------------------------------ compare ------------------------------ *)

(* exit codes: 0 the kernel end states agree, 1 they differ *)
let compare_cmd cycles =
  check_flag "compare" "cycles" ~lo:0 cycles;
  let nat = Native_run.create () in
  let ark = Ark_run.create () in
  for _ = 1 to cycles do
    ignore (Native_run.suspend_resume_cycle nat);
    ignore (Ark_run.suspend_resume_cycle ark)
  done;
  summarize "native   " nat.Native_run.plat.Tk_drivers.Platform.soc.Soc.cpu
    Soc.a9_params
    (List.length nat.Native_run.warns);
  summarize "offloaded" (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3
    Soc.m3_params
    (List.length ark.Ark_run.nat.Native_run.warns);
  let same =
    Native_run.device_states nat = Native_run.device_states ark.Ark_run.nat
  in
  Printf.printf "kernel end states agree: %b\n" same;
  if same then 0 else 1

(* ------------------------------ disasm ------------------------------- *)

let disasm_cmd symbol =
  let plat = Tk_drivers.Platform.create () in
  let image = plat.Tk_drivers.Platform.built.Tk_kernel.Image.image in
  match Tk_isa.Asm.symbol_opt image symbol with
  | None ->
    Printf.eprintf "no such kernel symbol: %s\n" symbol;
    1
  | Some addr ->
    let soc = plat.Tk_drivers.Platform.soc in
    Printf.printf "guest %s @ 0x%x:\n" symbol addr;
    let stop = ref false in
    let a = ref addr in
    while not !stop do
      let w = Tk_machine.Mem.ram_read soc.Soc.mem !a 4 in
      let i = Tk_isa.V7a.decode w in
      Printf.printf "  %08x: %s\n" !a (Tk_isa.Types.to_string i);
      (match i.Tk_isa.Types.op with
      | Tk_isa.Types.Ldm (_, _, regs) when List.mem Tk_isa.Types.pc regs ->
        stop := true
      | Tk_isa.Types.Bx _ when i.Tk_isa.Types.cond = Tk_isa.Types.AL ->
        stop := true
      | _ -> ());
      a := !a + 4;
      if !a - addr > 400 then stop := true
    done;
    (* and its ARK translation *)
    let man = Ark_run.build_manifest plat in
    let engine = Tk_dbt.Engine.create ~soc ~mode:Translator.Ark () in
    engine.Tk_dbt.Engine.classify_target <-
      (fun a ->
        match man.Transkernel.Manifest.abi_name_of a with
        | Some n when List.mem n Transkernel.Ark.emulated_services ->
          Translator.T_emu n
        | Some n when List.mem n Transkernel.Ark.hooked_services ->
          Translator.T_hook n
        | _ -> Translator.T_normal);
    let h = Tk_dbt.Engine.entry_host engine addr in
    Printf.printf "\nARK translation (first block) @ code cache 0x%x:\n" h;
    let stop = ref false in
    let a = ref h in
    while not !stop do
      if !a >= engine.Tk_dbt.Engine.cursor then stop := true
      else begin
        let w = Tk_machine.Mem.ram_read soc.Soc.mem !a 4 in
        (try
           Printf.printf "  %08x: %s\n" !a
             (Tk_isa.Types.to_string ~wide:true (Tk_isa.V7m.decode w))
         with _ -> Printf.printf "  %08x: .word 0x%08x\n" !a w);
        a := !a + 4
      end
    done;
    0

(* ------------------------------ analyze ------------------------------ *)

module Finding = Tk_analysis.Finding
module Rule_check = Tk_analysis.Rule_check
module Image_lint = Tk_analysis.Image_lint
module Abi_check = Tk_analysis.Abi_check
module Cfg = Tk_analysis.Cfg
module Certify = Tk_analysis.Certify
module Absint = Tk_analysis.Absint

(* the same call-target classification ARK installs in the engine
   (Ark.classify_of_man), rebuilt from the linked image's resolved ABI:
   the offline certifier must translate exactly what the engine would *)
let classify_of_built (built : Tk_kernel.Image.built) =
  let abi = built.Tk_kernel.Image.abi in
  fun a ->
    match abi.Tk_kernel.Kabi.name_of_addr a with
    | Some n when List.mem n Transkernel.Ark.emulated_services ->
      Translator.T_emu n
    | Some n when List.mem n Transkernel.Ark.hooked_services ->
      Translator.T_hook n
    | Some n when List.mem n Tk_kernel.Kabi.cold -> Translator.T_cold n
    | Some _ | None -> Translator.T_normal

(* [--image] accepts a kernel version or "all" (the default: the static
   gate must hold on every variant ARK claims to run unmodified) *)
let variant_conv =
  Arg.conv
    ( (function
      | "all" -> Ok `All
      | s -> Result.map (fun l -> `One l) (layout_of_string s)),
      fun ppf v ->
        Format.pp_print_string ppf
          (match v with
          | `All -> "all"
          | `One (l : Tk_kernel.Layout.t) -> l.Tk_kernel.Layout.version) )

let analyze_cmd image_sel rules abi cfg certify absint json =
  check_out "analyze" "json" json;
  let run_all = not (rules || abi || cfg || certify || absint) in
  let tagged : (string * Finding.t) list ref = ref [] in
  let collect image fs =
    tagged := !tagged @ List.map (fun f -> (image, f)) fs
  in
  if rules || run_all then begin
    let r = Rule_check.validate () in
    Rule_check.print_stats r;
    collect "-" r.Rule_check.findings
  end;
  let layouts =
    match image_sel with `All -> Tk_kernel.Variants.all | `One l -> [ l ]
  in
  if abi || cfg || certify || absint || run_all then
    List.iter
      (fun (lay : Tk_kernel.Layout.t) ->
        let version = lay.Tk_kernel.Layout.version in
        Printf.printf "\n===== kernel %s =====\n" version;
        let built = Tk_drivers.Platform.build_image ~layout:lay () in
        let image = built.Tk_kernel.Image.image in
        if cfg || run_all then begin
          let r = Image_lint.lint image in
          Image_lint.print_report r;
          collect version r.Image_lint.findings
        end;
        if abi || run_all then begin
          let r = Abi_check.check image in
          Abi_check.print_report r;
          collect version r.Abi_check.findings
        end;
        if absint || run_all then begin
          let r = Absint.analyze (Cfg.build image) in
          Absint.print_report r;
          collect version r.Absint.findings
        end;
        (* opt-in: differentially executes every formable trace plan *)
        if certify then begin
          let r =
            Certify.certify_image ~classify_target:(classify_of_built built)
              image
          in
          Certify.print_report r;
          collect version r.Certify.findings
        end)
      layouts;
  let findings = List.map snd !tagged in
  Finding.print_table findings;
  (match json with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    List.iter
      (fun (image, f) ->
        output_string oc (Finding.to_json ~extra:[ ("image", image) ] f);
        output_char oc '\n')
      !tagged;
    close_out oc;
    Printf.printf "findings: %d records -> %s\n" (List.length !tagged) file);
  let nerr = List.length (Finding.errors findings) in
  Printf.printf "\nanalyze: %d error(s), %d warning(s), %d finding(s) total\n"
    nerr
    (List.length (Finding.warnings findings))
    (List.length findings);
  if nerr > 0 then 1 else 0

(* ------------------------------- info -------------------------------- *)

let info_cmd () =
  let b = Tk_drivers.Platform.build_image () in
  Printf.printf "platform: OMAP4460 model — %s + %s\n"
    Soc.a9_params.Tk_machine.Core.cname Soc.m3_params.Tk_machine.Core.cname;
  Printf.printf "kernel image: %d instructions, %d fragments, %d devices\n"
    (Tk_kernel.Image.instructions b)
    (List.length b.Tk_kernel.Image.image.Tk_isa.Asm.frag_sizes)
    (List.length Tk_drivers.Platform.registration_order);
  Printf.printf "devices: %s\n"
    (String.concat ", " Tk_drivers.Platform.registration_order);
  Printf.printf "stable kernel ABI (Table 2): %s + jiffies\n"
    (String.concat ", "
       (List.filter (fun s -> s <> "jiffies") Tk_kernel.Kabi.table2));
  Printf.printf "kernel variants: %s\n"
    (String.concat ", "
       (List.map
          (fun (l : Tk_kernel.Layout.t) -> l.Tk_kernel.Layout.version)
          Tk_kernel.Variants.all));
  0

(* ----------------------------- cmdliner ------------------------------ *)

let mode_arg =
  Arg.(value & opt mode_conv (`Dbt Translator.Ark)
       & info [ "mode" ] ~docv:"MODE" ~doc:"native, ark, mid or baseline.")

let tier_arg =
  Arg.(value
       & opt (enum [ ("ark", `Ark); ("superblock", `Superblock) ]) `Ark
       & info [ "tier" ] ~docv:"TIER"
           ~doc:"DBT optimization tier: ark (block-at-a-time, default) or \
                 superblock (hot-chain trace formation with macro-op \
                 fusion; requires --mode ark).")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent translation cache directory, keyed by the \
                 kernel image digest: load it before the run (warm \
                 start) and save it after. Requires --mode ark.")

let cycles_arg =
  Arg.(value & opt int 1 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to run.")

let layout_arg =
  Arg.(value & opt layout_conv Tk_kernel.Layout.v4_4
       & info [ "kernel" ] ~docv:"VER" ~doc:"Kernel release to build.")

let sleep_arg =
  Arg.(value & opt int 50
       & info [ "sleep-ms" ] ~docv:"MS" ~doc:"Deep-sleep time per cycle.")

let glitch_arg =
  Arg.(value & opt int 0
       & info [ "glitch-every" ] ~docv:"N"
           ~doc:"Wedge the WiFi firmware every Nth cycle (0 = never).")

let resume_native_arg =
  Arg.(value & flag
       & info [ "resume-native" ]
           ~doc:"Urgent wakeup: resume on the CPU instead of the \
                 peripheral core.")

let m3_cache_arg =
  Arg.(value & opt (some int) None
       & info [ "m3-cache" ] ~docv:"KB" ~doc:"Peripheral-core LLC size.")

let certify_traces_arg =
  Arg.(value & flag
       & info [ "certify-traces" ]
           ~doc:"Certify every superblock plan online at formation time \
                 (and every warm-loaded plan): a plan whose fused trace \
                 is not provably equivalent to its constituent blocks is \
                 rejected and the plain blocks kept. Requires --tier \
                 superblock.")

let quantum_arg =
  Arg.(value & opt int 0
       & info [ "quantum" ] ~docv:"NS"
           ~doc:"Bounded-quantum lockstep scheduling: slice offloaded \
                 phases every $(docv) nanoseconds (0 = the sequential \
                 scheduler). Any quantum produces the same architectural \
                 results; --quantum 1 is CI-gated byte-identical to \
                 sequential.")

let concurrent_arg =
  Arg.(value
       & opt
           (enum [ ("off", `Off); ("interleave", `Interleave) ])
           `Off
       & info [ "concurrent-cores" ] ~docv:"HOW"
           ~doc:"Run each offloaded phase concurrently with an A9 guest \
                 CPU workload under the lockstep scheduler: interleave \
                 runs both cores' lanes in rounds of --quantum ns \
                 (20000 when unset), in a fixed order, so results are \
                 deterministic; off runs the phases alone.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the flight recorder and write the events as \
                 JSONL to $(docv).")

let trace_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-filter" ] ~docv:"KINDS"
           ~doc:"Comma-separated event kinds to record (retire, read, \
                 write, irq-raise, irq-deliver, power, translate, chain, \
                 invalidate, form, phase; groups: mem, irq, dbt, all).")

let trace_cap_arg =
  Arg.(value & opt (some int) None
       & info [ "trace-cap" ] ~docv:"N"
           ~doc:"Ring capacity in events (oldest events drop beyond it).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"DBT hot-block profile: per-block execution counts, \
                 dispatch entries and chain hit rate.")

let timeseries_arg =
  Arg.(value & opt (some string) None
       & info [ "timeseries" ] ~docv:"FILE"
           ~doc:"Sample cycle-domain telemetry and write the series to \
                 $(docv) (CSV when it ends in .csv, JSONL otherwise).")

let sample_every_arg =
  Arg.(value & opt (some int) None
       & info [ "sample-every" ] ~docv:"NS"
           ~doc:"Virtual-time sampling period in nanoseconds \
                 (default 100000; implies telemetry).")

let manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write a machine-readable run manifest (git rev, \
                 counters, per-phase energy, throughput) to $(docv).")

let spans_arg =
  Arg.(value & opt (some string) None
       & info [ "spans" ] ~docv:"FILE"
           ~doc:"Record causal wakeup spans and write them as JSONL to \
                 $(docv): one object per span with kind, core, interval \
                 and the attribution deltas (instructions, stall and \
                 translate cycles, fallbacks, energy).")

let perfetto_arg =
  Arg.(value & opt (some string) None
       & info [ "perfetto" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as a Chrome trace-event JSON \
                 file loadable in ui.perfetto.dev or chrome://tracing, \
                 with one track per core and counter tracks from the \
                 telemetry sampler when it is on.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ])

let run_t =
  Term.(
    const run_cmd $ mode_arg $ tier_arg $ cache_dir_arg $ cycles_arg
    $ layout_arg $ sleep_arg $ glitch_arg $ resume_native_arg $ m3_cache_arg
    $ certify_traces_arg $ quantum_arg $ concurrent_arg
    $ trace_arg $ trace_filter_arg
    $ trace_cap_arg $ profile_arg $ timeseries_arg $ sample_every_arg
    $ manifest_arg $ spans_arg $ perfetto_arg $ verbose_arg)

let report_t =
  Term.(
    const report_cmd
    $ Arg.(required & opt (some string) None
           & info [ "baseline" ] ~docv:"FILE"
               ~doc:"Baseline run manifest (or campaign/fleet document).")
    $ Arg.(required & opt (some string) None
           & info [ "candidate" ] ~docv:"FILE"
               ~doc:"Candidate run manifest (or campaign/fleet document).")
    $ Arg.(value & opt float 15.0
           & info [ "tolerance" ] ~docv:"PCT"
               ~doc:"Allowed relative change per metric, percent.")
    $ Arg.(value & opt (some string) None
           & info [ "only" ] ~docv:"KEYS"
               ~doc:"Comma-separated dotted metric paths to gate on \
                     (suffix match); default: every shared numeric \
                     metric."))

let cmds =
  [ Cmd.v (Cmd.info "run" ~doc:"Run suspend/resume cycles.") run_t;
    Cmd.v
      (Cmd.info "report"
         ~doc:"Diff two run manifests with a tolerance band. Exits 1 on \
               any regression, 2 on parse or usage errors.")
      report_t;
    Cmd.v
      (Cmd.info "sweep"
         ~doc:"Run a campaign of independent simulations on a pool of \
               domains. The campaign digest depends only on \
               (kind, seed, tasks) — never on $(b,--jobs). Exits 1 on \
               any task error or fuzz divergence.")
      Term.(
        const sweep_cmd
        $ Arg.(
            required
            & opt
                (some
                   (conv
                      ( (fun s ->
                          match Campaign.kind_of_string s with
                          | Some k -> Ok k
                          | None -> Error (`Msg ("unknown kind " ^ s))),
                        fun ppf k ->
                          Format.pp_print_string ppf (Campaign.kind_name k)
                      )))
                None
            & info [ "kind" ] ~docv:"KIND"
                ~doc:"Campaign kind: stress, fuzz or whatif.")
        $ Arg.(value & opt int 8
               & info [ "tasks" ] ~docv:"N" ~doc:"Independent tasks to run.")
        $ Arg.(value & opt int 1
               & info [ "jobs"; "j" ] ~docv:"J"
                   ~doc:"Worker domains (affects wall time only).")
        $ Arg.(value & opt int 1
               & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed.")
        $ Arg.(value & opt (some string) None
               & info [ "out" ] ~docv:"FILE"
                   ~doc:"Write the campaign JSON document to $(docv)."));
    Cmd.v
      (Cmd.info "fleet"
         ~doc:"Simulate a sharded population of device instances over \
               snapshotable SoC worlds, with percentile telemetry. The \
               fleet digest depends only on (devices, arrival, seed and \
               the simulation knobs) — never on $(b,--jobs) or instance \
               execution order. Exits 1 on any shard error.")
      Term.(
        const fleet_cmd
        $ Arg.(value & opt int Fleet.default_config.Fleet.devices
               & info [ "devices" ] ~docv:"N"
                   ~doc:"Population size (device instances).")
        $ Arg.(
            value
            & opt
                (conv
                   ( (fun s ->
                       match Arrival.kind_of_string s with
                       | Some k -> Ok k
                       | None -> Error (`Msg ("unknown arrival " ^ s))),
                     fun ppf k ->
                       Format.pp_print_string ppf (Arrival.kind_name k) ))
                Arrival.Poisson
            & info [ "arrival" ] ~docv:"KIND"
                ~doc:"Arrival trace: poisson, bursty or diurnal.")
        $ Arg.(value & opt int 1
               & info [ "jobs"; "j" ] ~docv:"J"
                   ~doc:"Worker domains (affects wall time only).")
        $ Arg.(value & opt int 1
               & info [ "seed" ] ~docv:"S" ~doc:"Fleet seed.")
        $ Arg.(value & opt int Fleet.default_config.Fleet.duration_ms
               & info [ "duration-ms" ] ~docv:"D"
                   ~doc:"Simulated span per instance.")
        $ Arg.(value & opt int Fleet.default_config.Fleet.mean_gap_ms
               & info [ "gap-ms" ] ~docv:"G" ~doc:"Mean arrival gap.")
        $ Arg.(value & opt int Fleet.default_config.Fleet.shard_cap
               & info [ "shard-cap" ] ~docv:"C"
                   ~doc:"Max instances per shard world.")
        $ Arg.(value & flag
               & info [ "reversed" ]
                   ~doc:"Run each shard's instances in reverse order \
                         (digest must not move; determinism check).")
        $ Arg.(value & opt int 0
               & info [ "quantum" ] ~docv:"NS"
                   ~doc:"Bounded-quantum lockstep slicing inside every \
                         shard world (0 = sequential). Digest-invisible \
                         like $(b,--jobs).")
        $ Arg.(value & opt (some string) None
               & info [ "out" ] ~docv:"FILE"
                   ~doc:"Write the fleet JSON document to $(docv)."));
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Native vs offloaded, side by side; exits 1 if the kernel \
               end states differ.")
      Term.(const compare_cmd $ cycles_arg);
    Cmd.v
      (Cmd.info "disasm" ~doc:"Disassemble a kernel symbol and its \
                               translation.")
      Term.(
        const disasm_cmd
        $ Arg.(required & pos 0 (some string) None & info [] ~docv:"SYMBOL"));
    Cmd.v (Cmd.info "info" ~doc:"Platform and image inventory.")
      Term.(const info_cmd $ const ());
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Static verification: translation-rule validation, guest \
               image CFG lint, ABI conformance, SMC-clean abstract \
               interpretation and (opt-in) superblock trace \
               certification. Exits non-zero on any error-severity \
               finding.")
      Term.(
        const analyze_cmd
        $ Arg.(value & opt variant_conv `All
               & info [ "image" ] ~docv:"VER"
                   ~doc:"Kernel variant to analyze (or $(b,all)).")
        $ Arg.(value & flag
               & info [ "rules" ]
                   ~doc:"Differential state-grid validation of every \
                         translation rule in the Spec.")
        $ Arg.(value & flag
               & info [ "abi" ]
                   ~doc:"Table 2 ABI conformance over every bl site.")
        $ Arg.(value & flag
               & info [ "cfg" ]
                   ~doc:"Image CFG lint: dead code, fallback census, \
                         stack bound, indirect-call audit.")
        $ Arg.(value & flag
               & info [ "certify" ]
                   ~doc:"Symbolic trace certifier: differentially execute \
                         every superblock plan the engine can form on the \
                         image against the sequential composition of its \
                         constituent blocks (opt-in; not part of the \
                         default pass set).")
        $ Arg.(value & flag
               & info [ "absint" ]
                   ~doc:"Whole-image abstract interpretation: classify \
                         every store target and report the functions \
                         proven SMC-clean (never storing into the code \
                         section).")
        $ Arg.(value & opt (some string) None
               & info [ "json" ] ~docv:"FILE"
                   ~doc:"Also write the findings as JSONL to $(docv).")) ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "arksim" ~version:"1.0"
             ~doc:"Transkernel (ATC'19) full-system simulation")
          cmds))
