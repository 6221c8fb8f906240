(** The native execution arm: boot minikern on the simulated A9 and drive
    suspend/resume cycles — the baseline the paper compares ARK against.

    The runner stands in for user space: it invokes guest entry points
    through a call shim (LR pointed at [call_exit_stub]) and services the
    guest's hypercalls (halt, platform-off, phase markers, console). *)

open Tk_isa
open Tk_machine
open Tk_drivers
module Hyper = Tk_kernel.Hyper

type phase_event = {
  ev_code : int;
  ev_time_ns : int;
  ev_cpu : Core.activity;
}

type t = {
  plat : Platform.t;
  interp : Interp.t;
  devices : string list;  (** registered subset (a "kernel config") *)
  mutable events : phase_event list;  (** newest first *)
  mutable warns : int list;  (** warn codes, newest first *)
  mutable console : char list;
  mutable sleep_ns_total : int;
  (* how long the platform stays in deep sleep per cycle (the ephemeral
     task interval, scaled) *)
  mutable sleep_ns : int;
  mutable last_exit_r0 : int;
}

exception Guest_panic of int

let record t code =
  t.events <-
    { ev_code = code; ev_time_ns = t.plat.soc.Soc.clock.Clock.now;
      ev_cpu = Core.activity t.plat.soc.Soc.cpu }
    :: t.events;
  Tk_stats.Recorder.phase t.plat.soc.Soc.recorder code

(** [trace t] — the platform's flight recorder (enable/dump through
    {!Tk_stats.Trace}). *)
let trace t = t.plat.soc.Soc.trace

let handle_svc t (cpu : Exec.cpu) n =
  let r0 = cpu.Exec.r.(0) in
  if n = Hyper.exit_call then begin
    t.last_exit_r0 <- r0;
    raise (Interp.Halt "call-complete")
  end
  else if n = Hyper.platform_off then begin
    (* deep sleep: everything is off; fast-forward. The tick is paused
       like Linux's timekeeping_suspend. *)
    record t 900;
    Timer.stop_tick t.plat.soc.Soc.cpu_timer;
    Clock.advance t.plat.soc.Soc.clock t.sleep_ns;
    t.sleep_ns_total <- t.sleep_ns_total + t.sleep_ns;
    Timer.start_tick t.plat.soc.Soc.cpu_timer Tk_kernel.Layout.jiffy_ns;
    record t 901
  end
  else if n = Hyper.console_putc then t.console <- Char.chr (r0 land 0x7F) :: t.console
  else if n = Hyper.phase_mark then record t r0
  else if n = Hyper.warn_hit then t.warns <- r0 :: t.warns
  else if n = Hyper.panic then raise (Guest_panic r0)
  else raise (Interp.Fault (Printf.sprintf "unknown hypercall %d" n))

(** [start_call t fn args] stages guest function [fn] on the boot thread
    without executing anything: registers loaded, LR at the exit stub,
    pc at the entry. Drive it with {!call_step} (the lockstep scheduler's
    A9 lane) or let {!call} run it to completion. *)
let start_call t fn args =
  let image = t.plat.built.Tk_kernel.Image.image in
  let cpu = t.interp.Interp.cpu in
  List.iteri (fun i a -> if i < 4 then cpu.Exec.r.(i) <- a) args;
  cpu.Exec.r.(Types.lr) <- Asm.symbol image "call_exit_stub";
  Interp.set_pc t.interp (Asm.symbol image fn)

(** [call_step t ~deadline] advances a staged call until the A9 clock
    reaches absolute time [deadline] ([`Runnable] — call again with a
    later deadline) or the call returns ([`Done r0]). *)
let call_step ?(fuel = 200_000_000) t ~deadline =
  match Interp.run_until t.interp ~deadline ~fuel with
  | () -> `Runnable
  | exception Interp.Halt _ -> `Done t.last_exit_r0

(** [call t fn args] invokes guest function [fn] on the boot thread and
    runs until it returns (via the exit stub). Returns guest r0. *)
let call ?(fuel = 200_000_000) t fn args =
  start_call t fn args;
  (try Interp.run t.interp ~fuel with Interp.Halt _ -> ());
  t.last_exit_r0

(** [create ?layout ?devices ?sleep_ms ()] builds a platform and boots
    minikern: kernel_main + driver inits. [devices] selects the
    registered subset (a "kernel configuration" in the §7.2 sense — the
    image always contains every driver, like a defconfig vs yes-to-all
    build pair sharing sources). *)
let create ?layout ?devices ?(sleep_ms = 50) ?(plat : Platform.t option) () =
  let plat =
    match plat with Some p -> p | None -> Platform.create ?layout ()
  in
  let devices =
    match devices with
    | Some d -> List.filter (fun n -> List.mem n d) Platform.registration_order
    | None -> Platform.registration_order
  in
  let interp = Interp.create ~soc:plat.soc () in
  let t =
    { plat; interp; devices; events = []; warns = []; console = [];
      sleep_ns_total = 0; sleep_ns = sleep_ms * 1_000_000; last_exit_r0 = 0 }
  in
  t.interp.Interp.on_svc <- (fun _ cpu n -> handle_svc t cpu n);
  t.interp.Interp.irq_vector <-
    Asm.symbol plat.built.Tk_kernel.Image.image "irq_entry";
  (* boot thread entry state *)
  interp.Interp.cpu.Exec.r.(Types.sp) <- Soc.stack_top Tk_kernel.Layout.thr_main;
  ignore (call t "kernel_main" []);
  List.iter (fun name -> ignore (call t (name ^ "_init") [])) t.devices;
  t

(** [events_since events ~before] — the entries added to a newest-first
    event list since it had [before] entries, oldest first. *)
let events_since events ~before =
  let n = List.length events - before in
  List.rev (List.filteri (fun i _ -> i < n) events)

(** [suspend_resume_cycle t] runs one full ephemeral-task kernel cycle
    (freeze -> dpm_suspend -> sleep -> dpm_resume -> thaw) natively.
    Returns the phase events of this cycle, oldest first. *)
let suspend_resume_cycle ?(prepare_traffic = true) t =
  let before = List.length t.events in
  if prepare_traffic && List.mem "wifi" t.devices then
    ignore (call t "wifi_prepare_traffic" []);
  ignore (call t "pm_suspend" []);
  events_since t.events ~before

(** [device_states t] reads each device's kernel-side power state out of
    guest memory (for end-state differential tests). *)
let device_states t =
  let image = t.plat.built.Tk_kernel.Image.image in
  let lay = t.plat.built.Tk_kernel.Image.layout in
  List.map
    (fun name ->
      let addr = Asm.symbol image ("dev_" ^ name) in
      ( name,
        Mem.ram_read t.plat.soc.Soc.mem
          (addr + lay.Tk_kernel.Layout.dev_state) 4 ))
    t.devices

(** [set_async t name on] marks device [name] for asynchronous
    suspend/resume (the PM core then runs its callbacks through
    [async_schedule], Linux's parallelized power transitions [50]). *)
let set_async t name on =
  let image = t.plat.built.Tk_kernel.Image.image in
  let dev = Asm.symbol image ("dev_" ^ name) in
  ignore (call t "dpm_set_async" [ dev; (if on then 1 else 0) ])

(** [runtime_pm t name `Suspend|`Resume] drives runtime power
    management for one device while the system stays awake ([90], §8 —
    complementary to, and co-existing with, the offloaded phases). *)
let runtime_pm t name dir =
  let image = t.plat.built.Tk_kernel.Image.image in
  let dev = Asm.symbol image ("dev_" ^ name) in
  let fn =
    match dir with
    | `Suspend -> "pm_runtime_suspend"
    | `Resume -> "pm_runtime_resume"
  in
  call t fn [ dev ]

(** [read_sym t name] reads a word-sized guest variable. *)
let read_sym t name =
  let image = t.plat.built.Tk_kernel.Image.image in
  Mem.ram_read t.plat.soc.Soc.mem (Asm.symbol image name) 4
