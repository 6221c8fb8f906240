(* Cycle-neutrality regression — the perf-PR guard.

   Host-side performance work on the two interpreters (pre-decoded
   instruction arrays, fast-path memory access, fused cycle charges)
   must never change the simulated timing model: it may change host
   wall-clock only. These goldens were captured from the seed
   implementation — one cold boot plus one suspend/resume cycle in each
   of the four execution arms — and pin busy cycles, instruction
   counts, cache hit/miss counts and DRAM traffic bit-exactly.

   Run the binary with TK_CAPTURE=1 to print fresh values. Re-capturing
   is only legitimate when the *model* intentionally changes (new cost
   knobs, different cache geometry), never for host-side optimization.

   The second half checks the chaining ablation: patching direct
   branches into the code cache must not change what the guest computes,
   only how many engine exits it costs — this guards the patch-time
   decode-array invalidation. *)

open Tk_machine
module Translator = Tk_dbt.Translator
module Native_run = Tk_harness.Native_run
module Ark_run = Tk_harness.Ark_run

type nums = {
  cpu_cycles : int;  (** A9 busy cycles since boot *)
  m3_cycles : int;  (** M3 busy cycles since boot *)
  instrs : int;  (** instructions retired on the arm's active core *)
  hits : int;  (** active core's cache hits *)
  misses : int;
  rd_bytes : int;  (** DRAM fill traffic of the active core's cache *)
  wr_bytes : int;  (** DRAM writeback traffic *)
}

let pp n =
  Printf.sprintf
    "{ cpu_cycles = %d; m3_cycles = %d; instrs = %d;\n\
    \    hits = %d; misses = %d; rd_bytes = %d; wr_bytes = %d }"
    n.cpu_cycles n.m3_cycles n.instrs n.hits n.misses n.rd_bytes n.wr_bytes

let of_soc (soc : Soc.t) ~(active : Core.t) =
  { cpu_cycles = soc.Soc.cpu.Core.busy_cycles;
    m3_cycles = soc.Soc.m3.Core.busy_cycles;
    instrs = active.Core.instructions;
    hits = active.Core.cache.Cache.hits;
    misses = active.Core.cache.Cache.misses;
    rd_bytes = active.Core.cache.Cache.rd_bytes;
    wr_bytes = active.Core.cache.Cache.wr_bytes }

let run_native () =
  let nat = Native_run.create () in
  ignore (Native_run.suspend_resume_cycle nat);
  let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.cpu

let run_mode mode =
  let ark = Ark_run.create ~mode () in
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.m3

(* ------------------- goldens (captured from seed) -------------------- *)

let golden_native =
  { cpu_cycles = 2219090; m3_cycles = 0; instrs = 1624350;
    hits = 2533188; misses = 4234; rd_bytes = 135488; wr_bytes = 192 }

let golden_ark =
  { cpu_cycles = 49415; m3_cycles = 4518853; instrs = 1546878;
    hits = 2415768; misses = 7733; rd_bytes = 247456; wr_bytes = 199264 }

let golden_mid =
  { cpu_cycles = 49415; m3_cycles = 6480514; instrs = 2333709;
    hits = 3983155; misses = 9132; rd_bytes = 292224; wr_bytes = 220960 }

let golden_baseline =
  { cpu_cycles = 49415; m3_cycles = 23175135; instrs = 9399843;
    hits = 14717963; misses = 19799; rd_bytes = 633568; wr_bytes = 316800 }

let check_nums label golden got =
  if got <> golden then
    Alcotest.failf "%s: simulated counters drifted from the seed model\n  golden: %s\n  got:    %s"
      label (pp golden) (pp got)

let test_native () = check_nums "native" golden_native (run_native ())
let test_ark () = check_nums "ARK" golden_ark (run_mode Translator.Ark)
let test_mid () = check_nums "Mid" golden_mid (run_mode Translator.Mid)

let test_baseline () =
  check_nums "Baseline" golden_baseline (run_mode Translator.Baseline)

(* ------------------- tracing neutrality ------------------------------ *)

(* The flight recorder must be simulation-neutral: a cycle run with
   tracing enabled has to reproduce the exact same goldens as one run
   with it disabled. Guards against any emission site accidentally
   charging simulated cycles or perturbing model state. *)

let run_native_traced () =
  let nat = Native_run.create () in
  Tk_stats.Trace.enable (Native_run.trace nat);
  ignore (Native_run.suspend_resume_cycle nat);
  let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.cpu

let run_mode_traced mode =
  let ark = Ark_run.create ~mode () in
  Tk_stats.Trace.enable (Ark_run.trace ark);
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.m3

let test_native_traced () =
  check_nums "native (tracing on)" golden_native (run_native_traced ())

let test_ark_traced () =
  check_nums "ARK (tracing on)" golden_ark (run_mode_traced Translator.Ark)

let test_baseline_traced () =
  check_nums "Baseline (tracing on)" golden_baseline
    (run_mode_traced Translator.Baseline)

(* ------------------- chaining on/off equivalence --------------------- *)

(* Architectural end state of a run: what the guest computed, independent
   of how many cycles it took. Timing-dependent words (jiffies, busy
   accounting) are deliberately excluded — chaining changes cycle counts,
   so wall-time-derived guest state legitimately differs. *)
let arch_state (ark : Ark_run.t) =
  let nat = ark.Ark_run.nat in
  ( Native_run.device_states nat,
    List.rev nat.Native_run.console,
    nat.Native_run.warns,
    nat.Native_run.last_exit_r0 )

let test_chaining_equivalence () =
  let run chain =
    let ark = Ark_run.create () in
    ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.chain <- chain;
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "fallback with chain=%b: %s" chain r);
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "fallback with chain=%b: %s" chain r);
    ark
  in
  let on = run true and off = run false in
  (* the chained run actually patched sites (else this test guards
     nothing), the unchained one did not *)
  Alcotest.(check bool) "chaining patched sites" true
    (on.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.patches > 0);
  Alcotest.(check int) "no patches with chaining off" 0
    off.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.patches;
  let s_on, c_on, w_on, r_on = arch_state on in
  let s_off, c_off, w_off, r_off = arch_state off in
  Alcotest.(check (list (pair string int))) "device states" s_off s_on;
  Alcotest.(check (list char)) "console output" c_off c_on;
  Alcotest.(check (list int)) "warn codes" w_off w_on;
  Alcotest.(check int) "final exit r0" r_off r_on

(* ------------------ allocation per retired instruction ----------------- *)

(* A warm cycle must allocate almost nothing per simulated instruction:
   the run loops, the memory model and the clock allocate nothing on
   their common paths, so what is left is per-phase bookkeeping. The
   bound is 0.1 minor words per retired instruction (both cores), over
   one cycle after two warm-up cycles. *)
let check_alloc label (soc : Soc.t) cycle =
  cycle ();
  cycle ();
  let instrs () =
    soc.Soc.cpu.Core.instructions + soc.Soc.m3.Core.instructions
  in
  let i0 = instrs () and w0 = Gc.minor_words () in
  cycle ();
  let words = Gc.minor_words () -. w0 and n = instrs () - i0 in
  let per = words /. float_of_int n in
  if n < 100_000 || per >= 0.1 then
    Alcotest.failf "%s: %.3f minor words per instruction over %d instructions \
                    (bound 0.1)" label per n

let test_alloc_native () =
  let nat = Native_run.create () in
  check_alloc "native" nat.Native_run.plat.Tk_drivers.Platform.soc (fun () ->
      ignore (Native_run.suspend_resume_cycle nat))

let test_alloc_dbt ~superblock label () =
  let ark = Ark_run.create ~superblock () in
  check_alloc label (Ark_run.plat ark).Tk_drivers.Platform.soc (fun () ->
      match Ark_run.suspend_resume_cycle ark with
      | `Ok -> ()
      | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r)

let () =
  if Sys.getenv_opt "TK_CAPTURE" <> None then begin
    Printf.printf "let golden_native =\n  %s\n" (pp (run_native ()));
    Printf.printf "let golden_ark =\n  %s\n" (pp (run_mode Translator.Ark));
    Printf.printf "let golden_mid =\n  %s\n" (pp (run_mode Translator.Mid));
    Printf.printf "let golden_baseline =\n  %s\n"
      (pp (run_mode Translator.Baseline));
    exit 0
  end;
  Alcotest.run "neutrality"
    [ ( "cycle-neutrality vs seed goldens",
        [ Alcotest.test_case "native arm" `Quick test_native;
          Alcotest.test_case "ARK arm" `Quick test_ark;
          Alcotest.test_case "Mid arm" `Quick test_mid;
          Alcotest.test_case "Baseline arm" `Quick test_baseline ] );
      ( "tracing neutrality",
        [ Alcotest.test_case "native arm (tracing on)" `Quick
            test_native_traced;
          Alcotest.test_case "ARK arm (tracing on)" `Quick test_ark_traced;
          Alcotest.test_case "Baseline arm (tracing on)" `Quick
            test_baseline_traced ] );
      ( "chaining ablation",
        [ Alcotest.test_case "on/off architectural equivalence" `Quick
            test_chaining_equivalence ] );
      ( "allocation",
        [ Alcotest.test_case "native warm cycle" `Quick test_alloc_native;
          Alcotest.test_case "ark-tier warm cycle" `Quick
            (test_alloc_dbt ~superblock:false "ark tier");
          Alcotest.test_case "superblock-tier warm cycle" `Quick
            (test_alloc_dbt ~superblock:true "superblock tier") ] ) ]
