(** The native execution arm: minikern on the simulated Cortex-A9 — the
    baseline the paper compares ARK against.

    The runner stands in for user space: it invokes guest entry points
    through a call shim (LR pointed at the kernel's [call_exit_stub])
    and services the guest's hypercalls (halt, platform-off, phase
    markers, console, WARN). *)

open Tk_machine

(** A benchmark phase-boundary event: marker code, platform time, and
    the CPU's activity snapshot at that instant. *)
type phase_event = { ev_code : int; ev_time_ns : int; ev_cpu : Core.activity }

type t = {
  plat : Tk_drivers.Platform.t;
  interp : Interp.t;
  devices : string list;  (** registered subset (a "kernel config") *)
  mutable events : phase_event list;  (** newest first *)
  mutable warns : int list;  (** WARN codes, newest first *)
  mutable console : char list;
  mutable sleep_ns_total : int;
  mutable sleep_ns : int;  (** deep-sleep time per cycle *)
  mutable last_exit_r0 : int;
}

exception Guest_panic of int

val create :
  ?layout:Tk_kernel.Layout.t ->
  ?devices:string list ->
  ?sleep_ms:int ->
  ?plat:Tk_drivers.Platform.t ->
  unit ->
  t
(** [create ()] builds a platform and boots minikern (kernel_main +
    driver inits). [devices] selects the registered subset (the image
    always contains every driver); [layout] picks the kernel release. *)

val call : ?fuel:int -> t -> string -> int list -> int
(** [call t fn args] invokes guest function [fn] (up to 4 args) on the
    boot thread and runs until it returns. Returns guest r0. *)

val start_call : t -> string -> int list -> unit
(** [start_call t fn args] stages [fn] on the boot thread without
    executing anything; drive it in bounded-quantum slices with
    {!call_step} (the lockstep scheduler's A9 lane) *)

val call_step : ?fuel:int -> t -> deadline:int -> [ `Done of int | `Runnable ]
(** advance a staged call until the A9 clock reaches absolute time
    [deadline] or the call returns ([`Done r0]) *)

val events_since : 'a list -> before:int -> 'a list
(** [events_since events ~before] — the entries added to a newest-first
    event list since it had [before] entries, oldest first *)

val suspend_resume_cycle :
  ?prepare_traffic:bool -> t -> phase_event list
(** one full ephemeral-task kernel cycle (freeze -> dpm_suspend -> deep
    sleep -> dpm_resume -> thaw), natively; returns the cycle's phase
    events, oldest first *)

val set_async : t -> string -> bool -> unit
(** mark a device for asynchronous suspend/resume (Linux's parallelized
    power transitions) *)

val runtime_pm : t -> string -> [ `Suspend | `Resume ] -> int
(** runtime power management for one device while the system stays
    awake (the complementary mechanism of the paper's §8) *)

val device_states : t -> (string * int) list
(** each registered device's kernel-side power state (1 = on), read out
    of guest memory *)

val read_sym : t -> string -> int
(** read a word-sized guest kernel variable by symbol name *)

val trace : t -> Tk_stats.Trace.t
(** the platform's flight recorder; phase-marker hypercalls are mirrored
    into it as [ev_phase] marks (enable/dump through {!Tk_stats.Trace}) *)
