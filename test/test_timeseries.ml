(* Cycle-domain telemetry regression — sampler mechanics, the energy
   ledger's reconciliation bar, and the manifest format.

   The neutrality suite pins the simulated counters with telemetry
   disabled; this suite covers the telemetry layer itself:

   - sampler mechanics against a synthetic clock: period, forced phase
     boundaries, gauge re-binding, capacity/wrap;
   - the cost discipline: a disabled sampler's tick and an enabled
     sampler's sample_now allocate nothing, and enabling sampling does
     not move any simulated counter (it only reads them);
   - ledger-vs-Power_model reconciliation on real native and ARK runs
     to the 0.1% acceptance bar (the construction makes it exact; the
     bar catches attribution drift);
   - a golden manifest digest over the deterministic metrics+counters
     sections of a fixed ARK run. TK_CAPTURE=1 prints a fresh golden;
     recapture is legitimate when the metric schema intentionally
     changes, never to paper over a drifted value. *)

module Ts = Tk_stats.Timeseries
module Attribution = Tk_energy.Attribution
module Power = Tk_energy.Power_model
module Manifest = Tk_harness.Run_manifest
module Native_run = Tk_harness.Native_run
module Ark_run = Tk_harness.Ark_run
module Soc = Tk_machine.Soc
module Core = Tk_machine.Core

(* ------------------------ synthetic sampler -------------------------- *)

let synthetic () =
  let now = ref 0 in
  let g1 = ref 0 and g2 = ref 0 in
  let ts = Ts.create () in
  ts.Ts.now <- (fun () -> !now);
  Ts.add_gauge ts "g1" (fun () -> !g1);
  Ts.add_gauge ts "g2" (fun () -> !g2);
  (ts, now, g1, g2)

let test_period () =
  let ts, now, g1, _ = synthetic () in
  Ts.enable ~cap:64 ~period_ns:100 ts;
  (* baseline row at enable *)
  Alcotest.(check int) "baseline row" 1 (Ts.retained ts);
  for t = 1 to 1000 do
    now := t;
    incr g1;
    Ts.tick ts
  done;
  (* one row per full period elapsed, plus the baseline *)
  Alcotest.(check int) "one row per period" 11 (Ts.retained ts);
  let rows = Ts.rows ts in
  Alcotest.(check int) "t_ns column strides by period" 100
    (rows.(2).(0) - rows.(1).(0));
  (* gauge column tracks the closure's value at sample time *)
  let gi = match Ts.col_index ts "g1" with Some i -> i | None -> -1 in
  Alcotest.(check int) "gauge sampled at its instant" 100 rows.(1).(gi)

let test_phase_boundary () =
  let ts, now, _, _ = synthetic () in
  Ts.enable ~cap:64 ~period_ns:1000 ts;
  now := 10;
  Ts.phase ts 42;
  now := 20;
  Ts.phase ts 7;
  Ts.sample_now ts;
  let rows = Ts.rows ts in
  (* a phase mark forces a row recording the OLD phase, then switches:
     epochs never straddle a mark *)
  Alcotest.(check int) "boundary row closes old phase" 0 rows.(1).(1);
  Alcotest.(check int) "second boundary closes phase 42" 42 rows.(2).(1);
  Alcotest.(check int) "rows after the mark carry the new phase" 7
    rows.(3).(1)

let test_gauge_rebind () =
  let ts, _, _, _ = synthetic () in
  (* re-wiring an existing name replaces the closure, keeps the order *)
  Ts.add_gauge ts "g1" (fun () -> 777);
  Ts.enable ~cap:8 ts;
  Alcotest.(check (array string)) "labels keep wiring order"
    [| "t_ns"; "phase"; "g1"; "g2" |]
    (Ts.labels ts);
  let gi = match Ts.col_index ts "g1" with Some i -> i | None -> -1 in
  Alcotest.(check int) "replaced closure is live" 777 (Ts.rows ts).(0).(gi)

let test_wrap () =
  let ts, now, _, _ = synthetic () in
  Ts.enable ~cap:16 ~period_ns:10 ts;
  for t = 1 to 1000 do
    now := t;
    Ts.tick ts
  done;
  Alcotest.(check int) "retained bounded by cap" 16 (Ts.retained ts);
  Alcotest.(check bool) "older rows dropped" true (Ts.dropped ts > 0);
  Alcotest.(check int) "total = retained + dropped" ts.Ts.total
    (Ts.retained ts + Ts.dropped ts);
  let rows = Ts.rows ts in
  (* oldest-first and contiguous after the wrap *)
  let ok = ref true in
  for i = 1 to Array.length rows - 1 do
    if rows.(i).(0) <> rows.(i - 1).(0) + 10 then ok := false
  done;
  Alcotest.(check bool) "rows oldest-first, period-contiguous" true !ok

(* -------------------------- cost discipline -------------------------- *)

(* Gc.minor_words itself boxes its float result, so measure against a
   calibration loop doing exactly the measurement overhead and nothing
   else. *)
let minor_delta f =
  let a = Gc.minor_words () in
  f ();
  Gc.minor_words () -. a

let test_zero_alloc () =
  let ts, now, _, _ = synthetic () in
  let baseline = minor_delta (fun () -> ()) in
  (* disabled tick: nothing but the hoisted-bool test *)
  let disabled =
    minor_delta (fun () ->
        for t = 1 to 100_000 do
          now := t;
          Ts.tick ts
        done)
  in
  Alcotest.(check (float 0.0)) "disabled tick allocates nothing" baseline
    disabled;
  (* enabled sample_now: columns are pre-sized, rows allocation-free *)
  Ts.enable ~cap:256 ~period_ns:1 ts;
  let enabled =
    minor_delta (fun () ->
        for t = 1 to 10_000 do
          now := ts.Ts.next_due + t;
          Ts.sample_now ts
        done)
  in
  Alcotest.(check (float 0.0)) "enabled sample_now allocates nothing"
    baseline enabled

(* enabling the sampler must not move any simulated counter: gauges are
   read-only and ticks charge no cycles *)
let test_sampling_neutral () =
  let run ~sample () =
    let ark = Ark_run.create () in
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    if sample then Ts.enable ~period_ns:50_000 soc.Soc.sampler;
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
    let m3 = Core.activity soc.Soc.m3 and a9 = Core.activity soc.Soc.cpu in
    ( m3.Core.a_busy_cycles, m3.Core.a_instructions, m3.Core.a_cache_misses,
      a9.Core.a_busy_cycles, a9.Core.a_instructions,
      soc.Soc.clock.Tk_machine.Clock.now )
  in
  let off = run ~sample:false () and on = run ~sample:true () in
  Alcotest.(check bool) "simulated counters identical with sampling on" true
    (off = on)

(* ------------------------ ledger reconciliation ---------------------- *)

let cores = [ ("a9", Soc.a9_params); ("m3", Soc.m3_params) ]

(* window activity of the active core from the sampler's own first/last
   rows — the exact window the ledger integrates *)
let window_model ts ~active ~params =
  let rows = Ts.rows ts in
  let first = rows.(0) and last = rows.(Array.length rows - 1) in
  let g name r =
    match Ts.col_index ts name with Some i -> r.(i) | None -> 0
  in
  let d name = g (active ^ "_" ^ name) last - g (active ^ "_" ^ name) first in
  let act =
    { Core.a_busy_cycles = d "busy_cy"; a_busy_ps = d "busy_ps";
      a_idle_ps = d "idle_ps"; a_instructions = d "instrs";
      a_cache_misses = d "miss"; a_rd_bytes = d "rd_bytes";
      a_wr_bytes = d "wr_bytes" }
  in
  let dma =
    ( g "dma_rd_bytes" last - g "dma_rd_bytes" first,
      g "dma_wr_bytes" last - g "dma_wr_bytes" first )
  in
  Power.of_activity ~params ~act ~dma_bytes:dma ()

let check_reconciles label ts ~active ~params =
  Ts.sample_now ts;
  Alcotest.(check bool) (label ^ ": series non-empty") true
    (Ts.retained ts > 2);
  let ledger = Attribution.integrate ts ~cores ~active in
  let model = window_model ts ~active ~params in
  let checks = Attribution.reconcile ledger model in
  let worst = Attribution.max_rel_err checks in
  if worst > 0.001 then
    Alcotest.failf "%s: worst component error %.5f%% exceeds 0.1%%:\n%s" label
      (worst *. 100.)
      (String.concat "\n"
         (List.map
            (fun (k : Attribution.check) ->
              Printf.sprintf "  %-10s ledger %.3f uJ, model %.3f uJ"
                k.Attribution.k_comp k.Attribution.k_ledger_uj
                k.Attribution.k_model_uj)
            checks));
  (* and the ledger total on the active core matches the model total *)
  let lt = Attribution.active_total ledger and mt = Power.total model in
  if abs_float (lt -. mt) /. Float.max mt 1e-9 > 0.001 then
    Alcotest.failf "%s: ledger total %.3f uJ vs model %.3f uJ" label lt mt

let test_reconcile_ark () =
  let ark = Ark_run.create () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  Ts.enable ~period_ns:50_000 soc.Soc.sampler;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  check_reconciles "ARK cycle" soc.Soc.sampler ~active:"m3"
    ~params:Soc.m3_params

let test_reconcile_native () =
  let nat = Native_run.create () in
  let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
  Ts.enable ~period_ns:50_000 soc.Soc.sampler;
  ignore (Native_run.suspend_resume_cycle nat);
  check_reconciles "native cycle" soc.Soc.sampler ~active:"a9"
    ~params:Soc.a9_params

(* a wrapped ring still reconciles: the ledger and the model both see
   only the retained window *)
let test_reconcile_wrapped () =
  let ark = Ark_run.create () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  Ts.enable ~cap:64 ~period_ns:20_000 soc.Soc.sampler;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  Alcotest.(check bool) "ring wrapped" true (Ts.dropped soc.Soc.sampler > 0);
  check_reconciles "wrapped ARK cycle" soc.Soc.sampler ~active:"m3"
    ~params:Soc.m3_params

(* --------------------------- manifest golden ------------------------- *)

(* The deterministic manifest sections of one fixed ARK run, built the
   same way arksim's --manifest path builds them. The digest pins the
   schema AND the simulated values: it moves iff a metric, a gauge, or
   the simulation itself changes. *)
let ark_manifest_sections () =
  let ark = Ark_run.create () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  let ts = soc.Soc.sampler in
  Ts.enable ts;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  Ts.sample_now ts;
  let ledger = Attribution.integrate ts ~cores ~active:"m3" in
  let rows = Ts.rows ts in
  let first = rows.(0) and last = rows.(Array.length rows - 1) in
  let labels = Ts.labels ts in
  let counters =
    Manifest.Obj
      (List.filter_map
         (fun i ->
           let name = labels.(i) in
           if name = "t_ns" || name = "phase" then None
           else Some (name, Manifest.Int (last.(i) - first.(i))))
         (List.init (Array.length labels) Fun.id))
  in
  let metrics =
    Manifest.Obj
      [ ( "energy_uj",
          Manifest.Obj
            (List.map
               (fun c ->
                 (c, Manifest.Num (Attribution.component_total ledger c)))
               Attribution.components) );
        ("epochs", Manifest.Int ledger.Attribution.l_epochs) ]
  in
  (metrics, counters)

let golden_manifest_digest = "1b8db7b8db6ad1bc"

let test_manifest_digest () =
  let metrics, counters = ark_manifest_sections () in
  let got = Manifest.metrics_digest ~metrics ~counters in
  if got <> golden_manifest_digest then
    Alcotest.failf
      "manifest digest drifted: golden %s, got %s (TK_CAPTURE=1 to recapture)"
      golden_manifest_digest got

(* --------------------------- report compare -------------------------- *)

let write_tmp content =
  let path = Filename.temp_file "tk_manifest" ".json" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let test_compare_gate () =
  let base =
    write_tmp
      {|{"metrics": {"energy_uj": {"dram": 700.0}}, "host": {"sim_mips": 20.0}}|}
  in
  let good =
    write_tmp
      {|{"metrics": {"energy_uj": {"dram": 710.0}}, "host": {"sim_mips": 19.5}}|}
  in
  let bad =
    write_tmp
      {|{"metrics": {"energy_uj": {"dram": 1200.0}}, "host": {"sim_mips": 20.0}}|}
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ base; good; bad ])
    (fun () ->
      let verdicts, missing =
        Manifest.compare_manifests ~baseline:base ~candidate:good ~only:[]
          ~tolerance_pct:15.0
      in
      Alcotest.(check int) "both metrics compared" 2 (List.length verdicts);
      Alcotest.(check int) "nothing missing" 0 (List.length missing);
      Alcotest.(check bool) "within tolerance passes" false
        (List.exists (fun v -> v.Manifest.v_regressed) verdicts);
      let verdicts, _ =
        Manifest.compare_manifests ~baseline:base ~candidate:bad ~only:[]
          ~tolerance_pct:15.0
      in
      Alcotest.(check bool) "perturbed dram regresses (lower-better)" true
        (List.exists
           (fun v ->
             v.Manifest.v_regressed
             && v.Manifest.v_key = "metrics.energy_uj.dram")
           verdicts);
      (* direction heuristic: sim-MIPS dropping is the regression *)
      let slow =
        write_tmp
          {|{"metrics": {"energy_uj": {"dram": 700.0}}, "host": {"sim_mips": 10.0}}|}
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove slow)
        (fun () ->
          let verdicts, _ =
            Manifest.compare_manifests ~baseline:base ~candidate:slow
              ~only:[ "sim_mips" ] ~tolerance_pct:15.0
          in
          Alcotest.(check int) "--only selects one metric" 1
            (List.length verdicts);
          Alcotest.(check bool) "throughput drop regresses (higher-better)"
            true
            (List.for_all (fun v -> v.Manifest.v_regressed) verdicts)))

(* cost-expressed-as-a-rate keys must gate as costs: before the polarity
   fix, the "rate" suffix classified miss_rate/fallback_rate as
   Higher_better and a worsened miss rate sailed through CI *)
let test_direction_polarity () =
  let dir =
    Alcotest.testable
      (fun ppf d ->
        Format.pp_print_string ppf
          (match d with
          | Manifest.Higher_better -> "Higher_better"
          | Manifest.Lower_better -> "Lower_better"
          | Manifest.Neutral -> "Neutral"))
      ( = )
  in
  let check key want =
    Alcotest.check dir key want (Manifest.direction_of key)
  in
  check "miss_rate" Manifest.Lower_better;
  check "fallback_rate" Manifest.Lower_better;
  check "chain_hit_rate" Manifest.Higher_better;
  check "metrics.cache.miss_rate" Manifest.Lower_better;
  check "sim_mips" Manifest.Higher_better;
  check "suite_wall_s" Manifest.Lower_better;
  check "blocks" Manifest.Neutral;
  (* span/latency telemetry keys are costs: durations, tail quantiles,
     tracer overhead and reconciliation residuals all regress upward *)
  check "wakeup_ns" Manifest.Lower_better;
  check "span_run_ns" Manifest.Lower_better;
  check "wakeup_p99" Manifest.Lower_better;
  check "span_overhead_pct" Manifest.Lower_better;
  check "span_overhead_off_pct" Manifest.Lower_better;
  check "recon_residual_pct" Manifest.Lower_better;
  (* spans/sec is a throughput, not a cost *)
  check "spans_per_sec" Manifest.Higher_better;
  (* certifier/elision counters: probe elisions and superblock chain
     length are benefits; certifier rejects and certify mismatches are
     costs — before the polarity fix all four fell to Neutral, whose
     |delta| gate fails CI on an improvement beyond tolerance *)
  check "probes_elided" Manifest.Higher_better;
  check "sb.chain_len" Manifest.Higher_better;
  check "certify_rejects" Manifest.Lower_better;
  check "certify_mismatch" Manifest.Lower_better;
  (* lockstep scheduler telemetry: skew and barrier waits are costs *)
  check "ls_max_skew_ns" Manifest.Lower_better;
  check "barrier_wait_ms" Manifest.Lower_better

let test_gate_miss_rate () =
  let base = write_tmp {|{"metrics": {"miss_rate": 0.02}}|} in
  let worse = write_tmp {|{"metrics": {"miss_rate": 0.05}}|} in
  let better = write_tmp {|{"metrics": {"miss_rate": 0.01}}|} in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ base; worse; better ])
    (fun () ->
      let verdicts, _ =
        Manifest.compare_manifests ~baseline:base ~candidate:worse ~only:[]
          ~tolerance_pct:15.0
      in
      Alcotest.(check bool) "worsened miss_rate regresses" true
        (List.for_all (fun v -> v.Manifest.v_regressed) verdicts);
      let verdicts, _ =
        Manifest.compare_manifests ~baseline:base ~candidate:better ~only:[]
          ~tolerance_pct:15.0
      in
      Alcotest.(check bool) "improved miss_rate passes" false
        (List.exists (fun v -> v.Manifest.v_regressed) verdicts))

let test_load_flat_roundtrip () =
  let doc =
    Manifest.Obj
      [ ("a", Manifest.Int 3);
        ( "nest",
          Manifest.Obj
            [ ("x", Manifest.Num 1.5); ("s", Manifest.Str "skip me") ] ) ]
  in
  let path = write_tmp (Manifest.to_string doc) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let flat = Manifest.load_flat path in
      Alcotest.(check (option (float 0.0))) "int leaf" (Some 3.0)
        (List.assoc_opt "a" flat);
      Alcotest.(check (option (float 0.0))) "nested num leaf" (Some 1.5)
        (List.assoc_opt "nest.x" flat);
      Alcotest.(check (option (float 0.0))) "strings not numeric leaves" None
        (List.assoc_opt "nest.s" flat))

(* The reader takes files from outside the program, so it must fail
   closed: every input either parses or raises Parse_error — no other
   exception, and no memory that grows with the nesting depth. Starts
   from a real manifest and corrupts it. *)
let test_reader_corruption () =
  let metrics, counters = ark_manifest_sections () in
  let host =
    Manifest.Obj [ ("wall_s", Manifest.Num 0.5); ("sim_mips", Manifest.Num 20.) ]
  in
  let doc =
    Manifest.pretty
      (Manifest.make ~variant:"ark" ~kernel:"v4.4" ~cycles:1 ~metrics ~counters
         ~host ())
  in
  let good = write_tmp doc in
  let bad = write_tmp "" in
  let outcome label content =
    let oc = open_out_bin bad in
    output_string oc content;
    close_out oc;
    match
      Manifest.compare_manifests ~baseline:good ~candidate:bad ~only:[]
        ~tolerance_pct:15.0
    with
    | _ -> `Parsed
    | exception Manifest.Parse_error _ -> `Refused
    | exception e ->
      Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  let refused label content =
    if outcome label content <> `Refused then
      Alcotest.failf "%s: read as a clean document" label
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ good; bad ])
    (fun () ->
      Alcotest.(check bool) "the intact manifest parses" true
        (outcome "intact" doc = `Parsed);
      (* a truncated object always lacks its closing brace *)
      for n = 0 to String.length doc - 1 do
        refused (Printf.sprintf "truncated to %d bytes" n) (String.sub doc 0 n)
      done;
      let rng = Random.State.make [| 13 |] in
      for i = 1 to 300 do
        let b = Bytes.of_string doc in
        Bytes.set b
          (Random.State.int rng (Bytes.length b))
          (Char.chr (Random.State.int rng 256));
        ignore (outcome (Printf.sprintf "mutation %d" i) (Bytes.to_string b))
      done;
      let depth = 5_000 in
      refused "deep arrays" (String.make depth '[' ^ String.make depth ']');
      refused "deep objects"
        (String.concat "" (List.init depth (fun _ -> {|{"a":|}))
        ^ "1" ^ String.make depth '}');
      refused "non-finite number" {|{"x": 1e999}|};
      refused "bad literal" {|{"x": nope}|})

let () =
  if Sys.getenv_opt "TK_CAPTURE" <> None then begin
    let metrics, counters = ark_manifest_sections () in
    Printf.printf "let golden_manifest_digest = \"%s\"\n"
      (Manifest.metrics_digest ~metrics ~counters);
    exit 0
  end;
  Alcotest.run "timeseries"
    [ ( "sampler mechanics",
        [ Alcotest.test_case "period strides the virtual clock" `Quick
            test_period;
          Alcotest.test_case "phase marks close epochs" `Quick
            test_phase_boundary;
          Alcotest.test_case "add_gauge re-binds by name" `Quick
            test_gauge_rebind;
          Alcotest.test_case "ring wraps at capacity" `Quick test_wrap ] );
      ( "cost discipline",
        [ Alcotest.test_case "tick and sample_now allocate nothing" `Quick
            test_zero_alloc;
          Alcotest.test_case "sampling moves no simulated counter" `Quick
            test_sampling_neutral ] );
      ( "energy attribution",
        [ Alcotest.test_case "ARK ledger reconciles to 0.1%" `Quick
            test_reconcile_ark;
          Alcotest.test_case "native ledger reconciles to 0.1%" `Quick
            test_reconcile_native;
          Alcotest.test_case "wrapped ring still reconciles" `Quick
            test_reconcile_wrapped ] );
      ( "manifest + report",
        [ Alcotest.test_case "golden manifest digest" `Quick
            test_manifest_digest;
          Alcotest.test_case "tolerance gate and directions" `Quick
            test_compare_gate;
          Alcotest.test_case "cost-rate polarity (miss_rate et al.)" `Quick
            test_direction_polarity;
          Alcotest.test_case "worsened miss_rate fails the gate" `Quick
            test_gate_miss_rate;
          Alcotest.test_case "flat JSON reader round-trip" `Quick
            test_load_flat_roundtrip;
          Alcotest.test_case "reader fails closed on corrupt input" `Quick
            test_reader_corruption ] ) ]
