(** ARK — the transkernel runtime (paper §3-§6).

    A lightweight virtual executor for the peripheral core: it runs the
    unmodified guest kernel's device suspend/resume phases through the
    cross-ISA DBT engine, underpins them with a small set of stateless
    emulated services, and falls back to native CPU execution off the
    hot path. Its only knowledge of the guest kernel is the Table 2 ABI
    plus the opaque runtime pointers of the handoff {!Manifest}.

    Typical use (the CPU-side kernel module's view):
    {[
      let ark = Ark.create ~soc ~man () in
      (* CPU shuts down, control passes to the peripheral core *)
      match Ark.run_phase ark `Suspend with
      | Ark.Completed -> (* platform sleeps; later: run_phase `Resume *)
      | Ark.Fell_back { fb_reason; fb_state } ->
        (* resume fb_state natively on the CPU *)
    ]} *)

(** {1 The ABI contract ARK is compiled against} *)

(** Downcalls ARK emulates (the stateless services of Table 2 plus the
    core-specific spinlock entries). *)
val emulated_services : string list

(** Calls ARK observes (to wake the right DBT context) and then lets the
    translated body execute — deferred work is stateful (§4.3). *)
val hooked_services : string list

val classify_target :
  (int -> string option) -> int -> Tk_dbt.Translator.target_class
(** [classify_target name_of addr] — how ARK translates a call to
    [addr], given the ABI's reverse lookup [name_of]: an emulated or a
    hooked service, a cold path ({!Tk_kernel.Kabi.cold}, taken by
    falling back to the CPU) or a plain call. The engine, [arksim
    disasm] and the offline certifier all classify with it. *)

(** {1 Costs} (peripheral-core cycles / nanoseconds, reported by the
    §7.3 benches) *)

val cost_early_irq : int
(** emulated v7m-specific early interrupt stage, per interrupt *)

val ns_stack_rewrite : int
(** fallback: rewriting code-cache addresses on the guest stack (§5.3) *)

val ns_cache_flush : int
val ns_ipi : int

(** {1 Exceptions} *)

exception Switch
(** raised inside emulated services to return control to the context
    scheduler (the current context's state has already been updated) *)

exception Ark_error of string
(** internal invariant violation (simulation bug, not guest behaviour) *)

(** {1 Types} *)

(** A migrated context's guest-visible state: 16 registers (PC holding
    the guest resume address after stack/register rewriting) and the
    NZCV flags word. *)
type guest_state = { g_regs : int array; g_flags : int }

type outcome =
  | Completed
  | Fell_back of { fb_reason : string; fb_state : guest_state }

type t = {
  soc : Tk_machine.Soc.t;
  engine : Tk_dbt.Engine.t;
  man : Manifest.t;
  mutable contexts : Context.t list;
  mutable current : Context.t option;
  mutable in_irq : bool;
  mutable rr : int;  (** round-robin cursor over contexts (§4.1) *)
  mutable draining : bool;
  mutable tick_on : bool;
  mutable on_hypercall : int -> Tk_isa.Exec.cpu -> unit;
      (** forwarded guest SVCs (benchmark phase markers, WARN counts) *)
  counters : Tk_stats.Counters.t;
  mutable emu_cycles : int;  (** cycles booked to emulated services *)
  mutable fell_back : (string * guest_state) option;
  mutable paused : Context.t option;
      (** bounded-quantum lockstep: the context whose engine run raised
          {!Tk_dbt.Engine.Quantum} mid-slice; {!phase_step} resumes it
          first, without re-dispatching through the scheduler *)
}

(** {1 API} *)

val create :
  soc:Tk_machine.Soc.t ->
  ?mode:Tk_dbt.Translator.mode ->
  ?superblock:bool ->
  man:Manifest.t ->
  unit ->
  t
(** [create ~soc ~man ()] prepares ARK on the platform's peripheral
    core. [mode] selects the DBT optimization level (default
    {!Tk_dbt.Translator.Ark}; [Mid]/[Baseline] are the Figure 6
    comparison engines). [superblock] (default false) stacks the
    trace-formation tier on top of [Ark] — it requires [mode = Ark]
    ({!Ark_error} otherwise) and is cycle-{e accounted} rather than
    cycle-neutral: it gates through the differential fuzz battery and
    [arksim report], not the seed goldens. *)

val run_phase : t -> [ `Suspend | `Resume ] -> outcome
(** [run_phase t which] executes one offloaded device phase to
    completion or fallback. The handoff has already shut the CPU down;
    deferred-work contexts start ready so work queued on the CPU before
    handoff is drained (§4.3). On [Fell_back], the stack rewrite, cache
    flush and IPI of §6 have been performed and [fb_state] is ready to
    resume natively. *)

(** {1 The phase in pieces} ({!run_phase} is [phase_begin], one
    [phase_step] with no deadline, then [phase_finish]; the lockstep
    scheduler calls [phase_step] once per quantum) *)

val phase_begin : t -> [ `Suspend | `Resume ] -> unit
(** the handoff prelude of {!run_phase}: reset per-phase context state,
    mirror the CPU's interrupt-enable state into the NVIC, stage the
    primary context at the phase entry, arm the scheduler tick *)

val phase_step : t -> deadline:int -> [ `Blocked | `Done | `Runnable ]
(** the ARK scheduler: dispatch contexts until the M3 clock reaches
    absolute time [deadline] ([`Runnable] — call again with a later
    deadline), the phase completes or falls back ([`Done]), or nothing
    is runnable and no event is pending ([`Blocked] — nothing can make
    progress). With [deadline = max_int] it is the sequential scheduler;
    at any other, the dispatch sequence over a whole phase is that one
    cut at quantum boundaries, so at [--quantum 1] digests are
    byte-identical to {!run_phase}. *)

val phase_finish : t -> outcome
(** stop the scheduler tick and collect the phase outcome *)
