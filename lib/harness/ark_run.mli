(** The offloaded execution arm: ARK on the peripheral core.

    Plays the paper's small CPU-side kernel module: builds the handoff
    {!Transkernel.Manifest} (Table 2 ABI + opaque pointers), performs
    the handoff around each device phase, and receives migrated contexts
    back into native execution on fallback (§6). *)

open Tk_machine

type phase_event = { ev_code : int; ev_time_ns : int; ev_m3 : Core.activity }

type t = {
  nat : Native_run.t;  (** the booted platform (native side) *)
  ark : Transkernel.Ark.t;
  mutable events : phase_event list;  (** newest first *)
  mutable fallbacks : (string * int) list;  (** (reason, time) *)
  cache_dir : string option;
      (** persistent translation cache directory, when warm-starting *)
  mutable quantum : int;
      (** bounded-quantum lockstep: slice offloaded phases every this
          many ns (0 = the sequential scheduler). Any quantum produces
          the same architectural results; at [1] digests are CI-gated
          byte-identical to sequential. *)
  mutable ls_rounds : int;  (** lockstep rounds driven (cumulative) *)
  mutable ls_commits : int;
      (** M3 phase marks the recorder applied at lockstep barriers
          (cumulative; none while every recorder is off) *)
  mutable ls_max_skew_ns : int;
      (** widest cross-lane clock gap seen at any barrier *)
}

val plat : t -> Tk_drivers.Platform.t

val build_manifest : Tk_drivers.Platform.t -> Transkernel.Manifest.t
(** collect the handoff data the kernel module is entitled to: resolved
    Table 2 ABI, workqueue/threaded-IRQ pointers, tick configuration,
    handoff-return stub *)

val create :
  ?layout:Tk_kernel.Layout.t ->
  ?built:Tk_kernel.Image.built ->
  ?devices:string list ->
  ?mode:Tk_dbt.Translator.mode ->
  ?superblock:bool ->
  ?cache_dir:string ->
  ?sleep_ms:int ->
  ?m3_cache_kb:int ->
  ?quantum:int ->
  unit ->
  t
(** boot the platform natively and prepare ARK; [mode] picks the DBT
    optimization level (the Figure 6 bars). [superblock] stacks the
    trace-formation tier on top of [Ark] mode. [cache_dir] attaches a
    persistent translation cache keyed by the pristine image digest — a
    missing or stale cache file is an ordinary cold start. [built]
    reuses a pre-compiled kernel image (see
    {!Tk_drivers.Platform.create}) — the fleet layer compiles once and
    boots many shard worlds from the same immutable image. *)

val save_cache : t -> unit
(** persist the engine's translation cache to the [cache_dir] given at
    [create] time (no-op without one, or after the store was dropped by
    a self-modifying-code flush) *)

val receive_fallback : t -> Transkernel.Ark.guest_state -> int
(** resume a migrated context natively on the CPU (the receiver step of
    §6); returns the shim's final r0 *)

val suspend_resume_cycle :
  ?prepare_traffic:bool -> ?resume_native:bool -> t ->
  [ `Ok | `Fell_back of string ]
(** one full ephemeral-task cycle with the device phases offloaded:
    native freeze -> handoff -> ARK dpm_suspend -> deep sleep -> ARK
    dpm_resume -> handback -> native thaw. [resume_native] models the
    urgent-wakeup path (§4): resume runs on the CPU instead. *)

val concurrent_cycle :
  ?prepare_traffic:bool ->
  ?domains:bool ->
  ?workload_bytes:int ->
  t ->
  [ `Ok | `Fell_back of string ]
(** one full ephemeral-task cycle with both device phases offloaded and
    a guest CPU workload ([workload_bytes] of IRQ-masked scratch
    [memset]) riding on the A9 {e concurrently} with each, under the
    bounded-quantum lockstep scheduler (quantum from [t.quantum],
    default 20 us when unset). The two cores run in one deterministic
    interleave on the calling thread: the A9 on a private clock lane,
    the M3 and every device on the platform clock.

    [domains] is vestigial: it once ran the cores on separate host
    domains, a driver deleted because it was slower than the
    interleave. [~domains:true] raises [Invalid_argument]; the
    argument stays only for the benchmark's [~domains:false] caller,
    and ROADMAP item 6 deletes it together with that caller. *)

val events_of_cycle : t -> before:int -> phase_event list
(** the phase events recorded since [before] (a prior length of
    [t.events]), oldest first *)

val trace : t -> Tk_stats.Trace.t
(** the platform's flight recorder; phase markers from both the runner
    and offloaded guest code are mirrored into it as [ev_phase] marks *)
