(* The transkernel itself: offloaded suspend/resume correctness against
   native execution, emulated services, hooks, fallback, mixed
   execution. *)

open Tk_harness
module Translator = Tk_dbt.Translator
module Ark = Transkernel.Ark

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* end-state equivalence: device power states and kernel-visible globals
   must match native execution after a full cycle *)
let kernel_state_digest (nat : Native_run.t) =
  ( Native_run.device_states nat,
    Native_run.read_sym nat "dpm_count",
    Native_run.read_sym nat "oom_count",
    Native_run.read_sym nat "async_pending",
    Native_run.read_sym nat "tasklet_head",
    Native_run.read_sym nat "spin_depth" )

let test_end_state_matches_native mode () =
  let nat = Native_run.create () in
  ignore (Native_run.suspend_resume_cycle nat);
  let expected = kernel_state_digest nat in
  let ark = Ark_run.create ~mode () in
  let res = Ark_run.suspend_resume_cycle ark in
  checkb "completed without fallback" true (res = `Ok);
  let got = kernel_state_digest ark.Ark_run.nat in
  checkb "kernel end state equals native" true (got = expected);
  checki "no warns" 0 (List.length ark.Ark_run.nat.Native_run.warns)

let test_repeated_cycles () =
  let ark = Ark_run.create () in
  for i = 1 to 4 do
    match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "cycle %d fell back: %s" i r
  done;
  List.iter
    (fun (n, s) -> checki (n ^ " on") 1 s)
    (Native_run.device_states ark.Ark_run.nat)

let test_idle_time_preserved () =
  (* §7.3: "ARK shows the same amount of accumulated idle time" *)
  let nat = Experiments.measure_native () in
  let ark = Experiments.measure_mode Translator.Ark in
  let ni = nat.Experiments.r_whole.Experiments.p_idle_ms in
  let ai = ark.Experiments.r_whole.Experiments.p_idle_ms in
  if ai < ni *. 0.85 || ai > ni *. 1.15 then
    Alcotest.failf "idle differs: native %.3f ms vs ark %.3f ms" ni ai

let test_overhead_bands () =
  let nat = Experiments.measure_native () in
  let ark = Experiments.measure_mode Translator.Ark in
  let ov =
    Experiments.overhead ~native:nat.Experiments.r_whole
      ~offloaded:ark.Experiments.r_whole
  in
  if ov < 1.5 || ov > 3.5 then
    Alcotest.failf "ARK overhead %.2fx outside [1.5, 3.5]" ov

let test_mode_ordering () =
  let nat = Experiments.measure_native () in
  let ov mode =
    let m = Experiments.measure_mode mode in
    Experiments.overhead ~native:nat.Experiments.r_whole
      ~offloaded:m.Experiments.r_whole
  in
  let ark = ov Translator.Ark in
  let mid = ov Translator.Mid in
  let base = ov Translator.Baseline in
  checkb "ark < mid" true (ark < mid);
  checkb "mid < baseline" true (mid < base);
  checkb "baseline >= 4x ark (paper: 5.2x)" true (base >= 4.0 *. ark)

let test_emulated_services_small () =
  (* §7.3: emulated services contribute ~1% of busy execution *)
  let ark = Experiments.measure_mode Translator.Ark in
  let frac =
    float_of_int ark.Experiments.r_emu_cycles
    /. float_of_int ark.Experiments.r_whole.Experiments.p_busy_cycles
  in
  if frac > 0.06 then
    Alcotest.failf "emulated services are %.1f%% of busy (expected small)"
      (frac *. 100.)

(* Mid and Baseline keep the guest SP in the emulated env block, not in
   host r13, so the fallback's stack rewrite must read it from there *)
let test_fallback_glitch mode () =
  let ark = Ark_run.create ~mode () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let wifi = Tk_drivers.Platform.device (Ark_run.plat ark) "wifi" in
  wifi.Tk_drivers.Device.glitch_next_resume <- true;
  (match Ark_run.suspend_resume_cycle ark with
  | `Fell_back _ -> ()
  | `Ok -> Alcotest.fail "expected fallback on wedged firmware");
  (* the WARN ran natively after migration *)
  checkb "warn recorded" true
    (List.mem 0x3F2 ark.Ark_run.nat.Native_run.warns);
  (* wifi resume was cancelled; everything else is up *)
  List.iter
    (fun (n, s) -> if n <> "wifi" then checki (n ^ " on") 1 s)
    (Native_run.device_states ark.Ark_run.nat);
  (* and the next cycle works again end to end *)
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "post-fallback cycle fell back: %s" r);
  List.iter
    (fun (n, s) -> checki (n ^ " recovered") 1 s)
    (Native_run.device_states ark.Ark_run.nat)

let test_fallback_stats () =
  let ark = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let wifi = Tk_drivers.Platform.device (Ark_run.plat ark) "wifi" in
  wifi.Tk_drivers.Device.glitch_next_resume <- true;
  ignore (Ark_run.suspend_resume_cycle ark);
  let c = ark.Ark_run.ark.Ark.counters in
  checki "one migration" 1 (Tk_stats.Counters.get c "fallback.migrations")

let test_resume_native_mixed () =
  (* urgent wakeup: suspend offloaded, resume natively on the CPU (§4) *)
  let ark = Ark_run.create () in
  (match Ark_run.suspend_resume_cycle ark ~resume_native:true with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "fell back: %s" r);
  List.iter
    (fun (n, s) -> checki (n ^ " on after native resume") 1 s)
    (Native_run.device_states ark.Ark_run.nat);
  (* and a fully offloaded cycle still works afterwards *)
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "fell back: %s" r)

let test_hooks_fired () =
  let ark = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let c = ark.Ark_run.ark.Ark.counters in
  checkb "queue_work_on hooked" true
    (Tk_stats.Counters.get c "hook.queue_work_on" > 0);
  checkb "tasklet_schedule hooked" true
    (Tk_stats.Counters.get c "hook.tasklet_schedule" > 0);
  checkb "early irq stage emulated" true
    (Tk_stats.Counters.get c "emu.early_irq" > 0);
  checkb "gic accesses emulated or absent" true
    (Tk_stats.Counters.get c "emu.gic_access" >= 0);
  checkb "sleeps emulated" true (Tk_stats.Counters.get c "emu.msleep" > 0);
  checkb "spinlocks emulated" true
    (Tk_stats.Counters.get c "emu.spin_lock" > 0)

let test_deferred_work_from_cpu () =
  (* work queued on the CPU before handoff must be drained by ARK's
     worker contexts (§4.3) *)
  let ark = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let nat = ark.Ark_run.nat in
  let image = (Ark_run.plat ark).Tk_drivers.Platform.built.Tk_kernel.Image.image in
  let lay = (Ark_run.plat ark).Tk_drivers.Platform.built.Tk_kernel.Image.layout in
  let mem = (Ark_run.plat ark).Tk_drivers.Platform.soc.Tk_machine.Soc.mem in
  let wq = Tk_isa.Asm.symbol image "system_wq" in
  let work = Tk_isa.Asm.symbol image "mmc_work" in
  ignore (Native_run.call nat "queue_work_on" [ 0; wq; work ]);
  checkb "pending before handoff" true
    (Tk_machine.Mem.ram_read mem (wq + lay.Tk_kernel.Layout.wq_head) 4 <> 0);
  (match Ark_run.suspend_resume_cycle ark ~prepare_traffic:false with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "fell back: %s" r);
  checki "drained by ARK" 0
    (Tk_machine.Mem.ram_read mem (wq + lay.Tk_kernel.Layout.wq_head) 4)

let test_code_cache_growth_bounded () =
  let ark = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let e = ark.Ark_run.ark.Ark.engine in
  let emitted1 = e.Tk_dbt.Engine.host_emitted in
  ignore (Ark_run.suspend_resume_cycle ark);
  ignore (Ark_run.suspend_resume_cycle ark);
  let emitted3 = e.Tk_dbt.Engine.host_emitted in
  (* warm cache: almost nothing new after the first cycle *)
  checkb "translation amortized" true
    (emitted3 - emitted1 < emitted1 / 10)

let test_async_suspend () =
  (* Linux's parallelized power transitions via async_schedule (§4.3):
     mark the three USB functions async and check the offloaded phase
     still reaches the same end state, with a shorter suspend *)
  let run async =
    let ark = Ark_run.create () in
    List.iter
      (fun d -> Native_run.set_async ark.Ark_run.nat d async)
      [ "kb"; "cam"; "bt" ];
    ignore (Ark_run.suspend_resume_cycle ark);
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    let t0 = soc.Tk_machine.Soc.clock.Tk_machine.Clock.now in
    (match Ark.run_phase ark.Ark_run.ark `Suspend with
    | Ark.Completed -> ()
    | Ark.Fell_back { fb_reason; _ } ->
      Alcotest.failf "async suspend fell back: %s" fb_reason);
    let t1 = soc.Tk_machine.Soc.clock.Tk_machine.Clock.now in
    (match Ark.run_phase ark.Ark_run.ark `Resume with
    | Ark.Completed -> ()
    | Ark.Fell_back { fb_reason; _ } ->
      Alcotest.failf "async resume fell back: %s" fb_reason);
    List.iter
      (fun (n, st) -> checki (n ^ " on") 1 st)
      (Native_run.device_states ark.Ark_run.nat);
    checki "no async work left over" 0
      (Native_run.read_sym ark.Ark_run.nat "async_pending");
    t1 - t0
  in
  let sync_ns = run false in
  let async_ns = run true in
  checkb "async suspend overlaps device latencies" true (async_ns < sync_ns)

let test_config_subset () =
  (* a "defconfig"-style build registering only four devices: the same
     ARK works (kernel configurations, §7.2) *)
  let devices = [ "reg"; "mmc"; "sd"; "wifi" ] in
  let ark = Ark_run.create ~devices () in
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "subset config fell back: %s" r);
  let states = Native_run.device_states ark.Ark_run.nat in
  checki "four devices registered" 4 (List.length states);
  List.iter (fun (n, s) -> checki (n ^ " on") 1 s) states

let test_chain_off_correct () =
  (* the no-chaining ablation must stay correct, only slower *)
  let ark = Ark_run.create () in
  ark.Ark_run.ark.Ark.engine.Tk_dbt.Engine.chain <- false;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "no-chain fell back: %s" r);
  List.iter
    (fun (n, s) -> checki (n ^ " on") 1 s)
    (Native_run.device_states ark.Ark_run.nat);
  checkb "every branch exits to the engine" true
    (ark.Ark_run.ark.Ark.engine.Tk_dbt.Engine.engine_exits > 10_000)

let test_small_blocks_correct () =
  let ark = Ark_run.create () in
  ark.Ark_run.ark.Ark.engine.Tk_dbt.Engine.block_limit <- 4;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "block-limit-4 fell back: %s" r);
  List.iter
    (fun (n, s) -> checki (n ^ " on") 1 s)
    (Native_run.device_states ark.Ark_run.nat)

let test_stress_small () =
  let runs, fell, _, ark = Experiments.stress ~runs:12 ~glitch_every:6 () in
  checki "12 runs" 12 runs;
  checki "two injected glitches -> two fallbacks" 2 fell;
  (* last run was clean *)
  ignore ark

let () =
  Alcotest.run "ark"
    [ ( "correctness",
        [ Alcotest.test_case "end state = native (ARK)" `Quick
            (test_end_state_matches_native Translator.Ark);
          Alcotest.test_case "end state = native (baseline)" `Slow
            (test_end_state_matches_native Translator.Baseline);
          Alcotest.test_case "end state = native (mid)" `Slow
            (test_end_state_matches_native Translator.Mid);
          Alcotest.test_case "repeated cycles" `Quick test_repeated_cycles;
          Alcotest.test_case "deferred work from CPU drained" `Quick
            test_deferred_work_from_cpu;
          Alcotest.test_case "mixed: native resume" `Quick
            test_resume_native_mixed ] );
      ( "characteristics",
        [ Alcotest.test_case "idle time preserved" `Quick
            test_idle_time_preserved;
          Alcotest.test_case "overhead in band" `Quick test_overhead_bands;
          Alcotest.test_case "mode ordering (Fig 6)" `Slow test_mode_ordering;
          Alcotest.test_case "emulated services small" `Quick
            test_emulated_services_small;
          Alcotest.test_case "hooks and services fired" `Quick
            test_hooks_fired;
          Alcotest.test_case "warm code cache" `Quick
            test_code_cache_growth_bounded ] );
      ( "configurations",
        [ Alcotest.test_case "async device suspend" `Slow test_async_suspend;
          Alcotest.test_case "device-subset config" `Quick test_config_subset;
          Alcotest.test_case "no-chaining ablation correct" `Quick
            test_chain_off_correct;
          Alcotest.test_case "small translation blocks correct" `Quick
            test_small_blocks_correct ] );
      ( "fallback",
        [ Alcotest.test_case "wifi glitch migrates" `Quick
            (test_fallback_glitch Translator.Ark);
          Alcotest.test_case "wifi glitch migrates, mid" `Quick
            (test_fallback_glitch Translator.Mid);
          Alcotest.test_case "wifi glitch migrates, baseline" `Quick
            (test_fallback_glitch Translator.Baseline);
          Alcotest.test_case "migration stats" `Quick test_fallback_stats;
          Alcotest.test_case "small stress run" `Slow test_stress_small ] ) ]
