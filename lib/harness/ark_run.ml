(** The offloaded execution arm: ARK on the peripheral core.

    This module plays the paper's small CPU-side kernel module: it is
    compiled "with the kernel" (so it may use {!Tk_kernel} internals to
    collect handoff data), builds the {!Transkernel.Manifest}, performs
    the handoff around each device phase, and — on fallback — receives
    migrated contexts back into native execution (§6).

    ARK itself ({!Transkernel.Ark}) sees none of the kernel's internals:
    the manifest carries the Table 2 ABI plus opaque pointers. *)

open Tk_isa
open Tk_machine
open Tk_kernel
open Tk_drivers
module Ark = Transkernel.Ark
module Manifest = Transkernel.Manifest
module Translator = Tk_dbt.Translator

type phase_event = {
  ev_code : int;
  ev_time_ns : int;
  ev_m3 : Core.activity;
}

type t = {
  nat : Native_run.t;  (** the booted platform (native side) *)
  ark : Ark.t;
  mutable events : phase_event list;
  mutable fallbacks : (string * int) list;  (** reason, time *)
  cache_dir : string option;
      (** persistent translation cache directory, when warm-starting *)
  mutable quantum : int;
      (** bounded-quantum lockstep: slice offloaded phases every this
          many ns (0 = the sequential scheduler). At [1] digests are
          byte-identical to sequential — larger quanta only batch the
          slicing, they never change architectural results. *)
  mutable ls_rounds : int;  (** lockstep rounds driven (cumulative) *)
  mutable ls_commits : int;  (** barrier commits applied (cumulative) *)
  mutable ls_max_skew_ns : int;
      (** widest cross-lane clock gap seen at any barrier *)
}

let plat t = t.nat.Native_run.plat

(* ------------------------ manifest (handoff) ------------------------ *)

let build_manifest (plat : Platform.t) : Manifest.t =
  let image = plat.built.Image.image in
  let lay = plat.built.Image.layout in
  let abi = plat.built.Image.abi in
  (* collect registered threaded IRQs: module-side code, entitled to walk
     its own kernel's structures *)
  let mem = plat.soc.Soc.mem in
  let descs = ref [] in
  let irq_desc = Asm.symbol image "irq_desc" in
  for line = 0 to Soc.nlines - 1 do
    let d = irq_desc + (line * lay.Layout.irqd_size) in
    if Mem.ram_read mem (d + lay.Layout.irqd_thread_fn) 4 <> 0 then
      descs := d :: !descs
  done;
  { Manifest.abi_addr_of = abi.Kabi.addr_of;
    abi_name_of = abi.Kabi.name_of_addr;
    jiffies_addr = abi.Kabi.jiffies_addr;
    entry_suspend = Asm.symbol image "dpm_suspend";
    entry_resume = Asm.symbol image "dpm_resume";
    workqueues =
      List.map (Asm.symbol image) [ "system_wq"; "pm_wq"; "wifi_wq" ];
    threaded_irqs = List.rev !descs;
    tick_ns = Layout.jiffy_ns;
    ms_ns = Layout.ms_ns;
    exit_to = Asm.symbol image "call_exit_stub" }

(** [create ?layout ?mode ?sleep_ms ()] boots the platform natively and
    prepares ARK. [mode] picks the DBT optimization level; [superblock]
    stacks the trace tier on top of [Ark]; [cache_dir] attaches a
    persistent translation cache keyed by the pristine image digest (a
    stale or missing file is an ordinary cold start). *)
let create ?layout ?built ?devices ?(mode = Translator.Ark)
    ?(superblock = false) ?cache_dir ?sleep_ms ?m3_cache_kb
    ?(quantum = 0) () =
  let plat = Platform.create ?layout ?built ?m3_cache_kb () in
  let nat = Native_run.create ?devices ?sleep_ms ~plat () in
  let man = build_manifest plat in
  let ark = Ark.create ~soc:plat.soc ~mode ~superblock ~man () in
  (match cache_dir with
  | Some dir when mode = Translator.Ark ->
    let image = plat.built.Image.image in
    let key =
      Tk_dbt.Cache_store.key_of_image ~base:image.Asm.base
        ~words:image.Asm.words
    in
    ark.Ark.engine.Tk_dbt.Engine.store <-
      Some
        (match Tk_dbt.Cache_store.load ~dir ~key with
        | Some st -> st
        | None -> Tk_dbt.Cache_store.create ~key)
  | Some _ | None -> ());
  let t =
    { nat; ark; events = []; fallbacks = []; cache_dir; quantum;
      ls_rounds = 0; ls_commits = 0; ls_max_skew_ns = 0 }
  in
  (* span-tracer attribution: fallbacks taken, from ARK's own counter *)
  Tk_stats.Substrate.gauge plat.soc.Soc.recorder.Tk_stats.Recorder.sub
    ~readers:Tk_stats.Substrate.spans_bit "fallbacks" (fun () ->
      Tk_stats.Counters.get ark.Ark.counters "fallback.hits");
  ark.Ark.on_hypercall <-
    (fun n cpu ->
      if n = Hyper.phase_mark then begin
        let code = Tk_dbt.Engine.guest_reg ark.Ark.engine cpu 0 in
        (* M3-side marks read the M3's own clock: the platform clock,
           or its private lane inside a lockstep concurrent segment *)
        t.events <-
          { ev_code = code;
            ev_time_ns = plat.soc.Soc.m3.Core.clock.Clock.now;
            ev_m3 = Core.activity plat.soc.Soc.m3 }
          :: t.events;
        Tk_stats.Recorder.phase plat.soc.Soc.recorder code
      end
      else if n = Hyper.warn_hit then
        t.nat.Native_run.warns <-
          Tk_dbt.Engine.guest_reg ark.Ark.engine cpu 0
          :: t.nat.Native_run.warns);
  t

(** [save_cache t] persists the engine's translation cache to the
    directory given at [create] time (no-op otherwise, or when the
    image self-modified and the store was dropped). *)
let save_cache t =
  match (t.cache_dir, t.ark.Ark.engine.Tk_dbt.Engine.store) with
  | Some dir, Some st -> Tk_dbt.Cache_store.save ~dir st
  | _ -> ()

(* resume a migrated context natively: the receiver-thread step of §6 *)
let receive_fallback t (st : Ark.guest_state) =
  let nat = t.nat in
  let cpu = nat.Native_run.interp.Interp.cpu in
  Array.blit st.Ark.g_regs 0 cpu.Exec.r 0 16;
  Exec.set_flags_word cpu st.Ark.g_flags;
  cpu.Exec.irq_on <- true;
  (try Interp.run nat.Native_run.interp ~fuel:200_000_000
   with Interp.Halt _ -> ());
  nat.Native_run.last_exit_r0

(* fold one lockstep run's stats into the cumulative [ls_*] fields *)
let add_lockstep_stats t (st : Lockstep.stats) =
  t.ls_rounds <- t.ls_rounds + st.Lockstep.rounds;
  t.ls_commits <- t.ls_commits + st.Lockstep.commits;
  t.ls_max_skew_ns <- max t.ls_max_skew_ns st.Lockstep.max_skew_ns

(* [offload_phase t which] — run one offloaded phase under the
   configured scheduler: sequential ([quantum = 0]) or sliced on the
   shared clock in bounded quanta, a one-lane lockstep run. The slicing
   pauses only at resumable points (instruction/probe boundaries, the
   idle loop), so every quantum produces the same architectural results
   — at [--quantum 1] this is CI-gated byte-identity. *)
let offload_phase t which : Ark.outcome =
  if t.quantum <= 0 then Ark.run_phase t.ark which
  else begin
    let ark = t.ark in
    (* the handoff prelude charges M3 time before the lane starts *)
    Ark.phase_begin ark which;
    Fun.protect
      ~finally:(fun () -> ark.Ark.tick_on <- false)
      (fun () ->
        let m3 =
          { Lockstep.l_name = "m3"; l_clock = (plat t).soc.Soc.m3.Core.clock;
            l_run = (fun ~deadline -> Ark.phase_step ark ~deadline) }
        in
        add_lockstep_stats t
          (Lockstep.run (Lockstep.create ~quantum:t.quantum [ m3 ]));
        Ark.phase_finish ark)
  end

let record t code =
  t.events <-
    { ev_code = code; ev_time_ns = (plat t).soc.Soc.clock.Clock.now;
      ev_m3 = Core.activity (plat t).soc.Soc.m3 }
    :: t.events;
  Tk_stats.Recorder.phase (plat t).soc.Soc.recorder code

(** [trace t] — the platform's flight recorder (enable/dump through
    {!Tk_stats.Trace}). *)
let trace t = (plat t).soc.Soc.trace

(* One full ephemeral-task cycle, with [offload] running each offloaded
   device phase: native freeze -> handoff -> suspend -> platform sleep
   -> resume -> handback -> native thaw. On fallback the CPU takes over
   the phase natively, its tick running meanwhile. *)
let cycle t ~prepare_traffic ~resume_native ~offload =
  let nat = t.nat in
  let soc = (plat t).soc in
  if prepare_traffic && List.mem "wifi" nat.Native_run.devices then
    ignore (Native_run.call nat "wifi_prepare_traffic" []);
  ignore (Native_run.call nat "freeze_processes" []);
  let result = ref `Ok in
  let phase which =
    match offload which with
    | Ark.Completed -> ()
    | Ark.Fell_back { fb_reason; fb_state } ->
      t.fallbacks <- (fb_reason, soc.Soc.clock.Clock.now) :: t.fallbacks;
      result := `Fell_back fb_reason;
      Timer.start_tick soc.Soc.cpu_timer Layout.jiffy_ns;
      ignore (receive_fallback t fb_state);
      Timer.stop_tick soc.Soc.cpu_timer
  in
  (* ---- handoff: the kernel shuts down the CPU and passes control ---- *)
  Timer.stop_tick soc.Soc.cpu_timer;
  record t Hyper.ph_suspend_begin;
  phase `Suspend;
  record t Hyper.ph_suspend_end;
  (* ---- platform deep sleep ---- *)
  record t 900;
  Clock.advance soc.Soc.clock nat.Native_run.sleep_ns;
  nat.Native_run.sleep_ns_total <-
    nat.Native_run.sleep_ns_total + nat.Native_run.sleep_ns;
  record t 901;
  (* ---- resume ---- *)
  record t Hyper.ph_resume_begin;
  (if resume_native then begin
     (* urgent wakeup: the kernel resumes on the CPU natively (§4) *)
     Timer.start_tick soc.Soc.cpu_timer Layout.jiffy_ns;
     ignore (Native_run.call nat "dpm_resume" []);
     Timer.stop_tick soc.Soc.cpu_timer
   end
   else phase `Resume);
  record t Hyper.ph_resume_end;
  (* ---- handback: CPU resumes, thaws user space ---- *)
  Timer.start_tick soc.Soc.cpu_timer Layout.jiffy_ns;
  ignore (Native_run.call nat "thaw_processes" []);
  !result

(** [suspend_resume_cycle t] runs one full ephemeral-task cycle with the
    device phases offloaded: native freeze -> handoff -> ARK dpm_suspend
    -> platform sleep -> ARK dpm_resume -> handback -> native thaw.
    Returns [`Ok] or [`Fell_back reason]. *)
let suspend_resume_cycle ?(prepare_traffic = true) ?(resume_native = false) t =
  cycle t ~prepare_traffic ~resume_native ~offload:(offload_phase t)

(* ---------------------- concurrent phases ------------------------- *)

(* scratch DRAM above the code cache: touched by nothing else in the
   platform, so the A9 can churn it while ARK owns the guest kernel *)
let workload_base = Soc.code_cache_base + Soc.code_cache_size

(* [concurrent_phase t which ~workload_bytes] — run one offloaded
   phase on the M3 *while* the A9 executes a guest CPU workload (an
   IRQ-masked [memset] over scratch DRAM), under the bounded-quantum
   lockstep scheduler:

   - the M3 gets a private clock lane (events already armed for devices
     move with it — devices are M3-owned during the segment, via
     [Soc.sched_clock]);
   - the A9 keeps the platform clock and runs with IRQs masked: no MMIO,
     no events, no shared guest state (it only touches the scratch and
     the boot thread's own stack);
   - the recorder is paused for the lanes, its writes done at the
     barriers (see [Tk_stats.Recorder]);
   - at the end the lane merges back into the platform clock preserving
     the global (at, seq) event order, and the platform returns to the
     sequential single-clock regime. *)
let concurrent_phase t which ~workload_bytes : Ark.outcome =
  let soc = (plat t).soc in
  let nat = t.nat in
  let quantum = if t.quantum > 0 then t.quantum else 20_000 in
  (* the handoff prelude runs in the single-clock regime: entry
     translation charges M3 time, and both lanes must observe it before
     they split (Lockstep.create requires a common start time) *)
  Ark.phase_begin t.ark which;
  (* split the M3 lane and move the pending events (device completions,
     traffic arrivals, the scheduler tick just armed) onto it: during
     the segment the devices complete in M3 time *)
  let main = soc.Soc.clock in
  let lane = Clock.lane main in
  let evs = Clock.pending main in
  Clock.restore_pending main ~now:main.Clock.now
    ~seq:(Clock.seq_value main) [];
  Clock.restore_pending lane ~now:lane.Clock.now
    ~seq:(Clock.seq_value lane) evs;
  Core.set_clock soc.Soc.m3 lane;
  Timer.set_clock soc.Soc.m3_timer lane;
  soc.Soc.sched_clock <- lane;
  (* A9 workload: staged, IRQ-masked, pure CPU + scratch DRAM, on the
     boot thread's stack. After a fallback the A9's SP still points into
     the migrated DBT context's stack slot, which the M3 reuses *)
  let cpu = nat.Native_run.interp.Interp.cpu in
  let irq_was = cpu.Exec.irq_on and sp_was = cpu.Exec.r.(Types.sp) in
  cpu.Exec.irq_on <- false;
  cpu.Exec.r.(Types.sp) <- Soc.stack_top Layout.thr_main;
  Native_run.start_call nat "memset" [ workload_base; 0x5A; workload_bytes ];
  let a9_done = ref false in
  let a9 =
    { Lockstep.l_name = "a9"; l_clock = main;
      l_run =
        (fun ~deadline ->
          if !a9_done then `Done
          else
            match Native_run.call_step nat ~deadline with
            | `Done _ ->
              a9_done := true;
              `Done
            | `Runnable -> `Runnable) }
  in
  let m3 =
    { Lockstep.l_name = "m3"; l_clock = lane;
      l_run = (fun ~deadline -> Ark.phase_step t.ark ~deadline) }
  in
  Fun.protect
    ~finally:(fun () ->
      (* back to the single-clock regime whatever happened: merge the
         lane's remaining events into the platform clock (global
         (at, seq) order preserved), restore the pointers and the A9's
         interrupt mask and SP *)
      Lockstep.merge_lane ~into:main lane;
      Core.set_clock soc.Soc.m3 main;
      Timer.set_clock soc.Soc.m3_timer main;
      soc.Soc.sched_clock <- main;
      cpu.Exec.irq_on <- irq_was;
      cpu.Exec.r.(Types.sp) <- sp_was;
      t.ark.Ark.tick_on <- false)
    (fun () ->
      let ls = Lockstep.create ~quantum [ a9; m3 ] in
      let rc = soc.Soc.recorder in
      (* the M3 is lane 1: its phase marks post to the next barrier *)
      Tk_stats.Recorder.pause rc
        (Some (Tk_stats.Trace.core_m3, Lockstep.post ls ~lane:1));
      let st =
        Fun.protect
          ~finally:(fun () -> Tk_stats.Recorder.pause rc None)
          (fun () ->
            Lockstep.run
              ~on_barrier:(fun () -> Tk_stats.Recorder.barrier rc)
              ls)
      in
      add_lockstep_stats t st;
      Ark.phase_finish t.ark)

(** [concurrent_cycle t] — one full ephemeral-task cycle with both
    device phases offloaded and a guest CPU workload riding on the A9
    concurrently with each ([workload_bytes] of scratch [memset] per
    phase). [domains] is vestigial (see the interface). Returns [`Ok]
    or [`Fell_back reason]. *)
let concurrent_cycle ?(prepare_traffic = true) ?(domains = false)
    ?(workload_bytes = 256 * 1024) t =
  if domains then
    invalid_arg "Ark_run.concurrent_cycle: the Domain driver is deleted";
  cycle t ~prepare_traffic ~resume_native:false ~offload:(fun which ->
      concurrent_phase t which ~workload_bytes)

(** Per-cycle phase events, oldest first (same shape as the native
    runner's). *)
let events_of_cycle t ~before = Native_run.events_since t.events ~before
