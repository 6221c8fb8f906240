(** ARK — the transkernel runtime (§3, §4).

    A lightweight virtual executor on the peripheral core: it runs the
    unmodified guest kernel's device suspend/resume through the DBT
    engine, underpinned by a small set of {e stateless} emulated services
    (scheduler of DBT contexts, spinlocks, delays and timekeeping, the
    early interrupt stage, the CPU interrupt controller), and falls back
    to native CPU execution when leaving the hot path (§6).

    ARK's only knowledge of the guest kernel is the narrow Table 2 ABI
    (12 functions + jiffies, plus the spinlock entries) and the opaque
    runtime pointers in the handoff {!Manifest}. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt
module Counters = Tk_stats.Counters

(* The Table 2 contract ARK is compiled against (names must match the
   guest's exported symbols — that is the whole point). *)
let emulated_services =
  [ "schedule"; "msleep"; "udelay"; "ktime_get"; "spin_lock"; "spin_unlock" ]

let hooked_services = [ "queue_work_on"; "tasklet_schedule"; "async_schedule" ]
let upcall_worker = "worker_thread"
let upcall_irq_thread = "irq_thread"
let upcall_softirq = "do_softirq"
let upcall_timers = "run_local_timers"
let upcall_irq = "generic_handle_irq"

(* emulated-service costs, in peripheral-core cycles (measured in §7.3
   as ~1% of busy execution) *)
let cost_schedule = 90
let cost_spin = 12
let cost_msleep = 160
let cost_ktime = 20
let cost_hook = 25
let cost_early_irq = 1200  (* the v7m-specific early interrupt stage *)
let cost_tick = 40
let ns_stack_rewrite = 20_000  (* §7.3: ~20us *)
let ns_cache_flush = 17_000
let ns_ipi = 2_000

exception Switch
(* carries (reason, guest pc, faulting context) *)
exception Fallback_exc of string * int * Context.t

(* a context hit a terminal untranslatable site while draining *)
exception Abandon
exception Ark_error of string

(** A migrated context's guest-visible state, handed back to the CPU. *)
type guest_state = { g_regs : int array; g_flags : int }

type outcome =
  | Completed
  | Fell_back of { fb_reason : string; fb_state : guest_state }

type t = {
  soc : Soc.t;
  engine : Engine.t;
  man : Manifest.t;
  mutable contexts : Context.t list;
  mutable current : Context.t option;
  mutable in_irq : bool;
  mutable rr : int;  (** round-robin cursor over contexts (§4.1) *)
  mutable draining : bool;
  mutable tick_on : bool;
  mutable on_hypercall : int -> Exec.cpu -> unit;
  counters : Counters.t;
  mutable emu_cycles : int;  (** cycles booked to emulated services *)
  (* virtual-GIC mask state is the real (shared) GIC object; ARK applies
     guest masking to both controllers *)
  mutable fell_back : (string * guest_state) option;
  mutable paused : Context.t option;
      (** bounded-quantum lockstep: the context whose engine run raised
          {!Engine.Quantum} mid-slice. {!phase_step} resumes it (without
          re-dispatching through the scheduler or recharging the tick)
          before considering any other context, so the dispatch sequence
          is exactly the sequential one cut at quantum boundaries. *)
}

let charge_emu t cycles =
  t.emu_cycles <- t.emu_cycles + cycles;
  Core.charge t.soc.Soc.m3 cycles

(* Nested context runs — IRQ delivery at a block boundary, draining
   contexts to their parking points during a fallback — must finish
   indivisibly even under a lockstep quantum: a pause inside them would
   leave two contexts mid-flight. Suppress the engine deadline around
   them; the outer run loop re-checks it at its next resumable point. *)
let with_deadline_suppressed t f =
  let eng = t.engine in
  let d = eng.Engine.deadline_ns in
  if d = max_int then f ()
  else begin
    eng.Engine.deadline_ns <- max_int;
    Fun.protect ~finally:(fun () -> eng.Engine.deadline_ns <- d) f
  end

let env_words = 36 (* saved engine env block: 0x00..0x8C; env_save is 64 *)

let sync_in t (ctx : Context.t) =
  for i = 0 to env_words - 1 do
    Mem.ram_write t.soc.Soc.mem (Layout.env_base + (4 * i)) 4 ctx.env_save.(i)
  done;
  if t.engine.Engine.mode <> Translator.Ark then
    ctx.cpu.Exec.r.(11) <- Layout.env_base

let sync_out t (ctx : Context.t) =
  for i = 0 to env_words - 1 do
    ctx.env_save.(i) <- Mem.ram_read t.soc.Soc.mem (Layout.env_base + (4 * i)) 4
  done

let find_ctx t pred = List.find_opt pred t.contexts

let wake (ctx : Context.t) =
  match ctx.state with
  | Context.Parked | Context.Idle -> ctx.state <- Context.Ready
  | Context.Ready | Context.Sleeping | Context.Done -> ()

(* ------------------------- emulated services ------------------------ *)

let cur t =
  match t.current with
  | Some c -> c
  | None -> raise (Ark_error "no current context")

let emu_service t name (cpu : Exec.cpu) =
  let arg n = Engine.guest_reg t.engine cpu n in
  Counters.incr t.counters ("emu." ^ name);
  match name with
  | "spin_lock" ->
    charge_emu t cost_spin;
    t.engine.Engine.irq_dispatch <- false
  | "spin_unlock" ->
    charge_emu t cost_spin;
    t.engine.Engine.irq_dispatch <- true
  | "ktime_get" ->
    charge_emu t cost_ktime;
    Engine.set_guest_reg t.engine cpu 0
      (t.soc.Soc.clock.Clock.now land 0xFFFFFFFF)
  | "udelay" ->
    (* busy wait, converted to the peripheral core's own timer (§4.6):
       same wall time as native, but at 200 MHz *)
    let us = arg 0 in
    Counters.add t.counters "emu.udelay_us" us;
    charge_emu t (us * t.soc.Soc.m3.Core.p.Core.freq_mhz)
  | "msleep" ->
    let ms = arg 0 in
    let ctx = cur t in
    charge_emu t cost_msleep;
    ctx.state <- Context.Sleeping;
    let ns = (ms * t.man.Manifest.ms_ns) + t.man.Manifest.tick_ns in
    Clock.after_ t.soc.Soc.m3.Core.clock ns (fun () ->
        if ctx.state = Context.Sleeping then ctx.state <- Context.Ready);
    raise Switch
  | "schedule" ->
    let ctx = cur t in
    charge_emu t cost_schedule;
    (match ctx.kind with
    | Context.Primary ->
      (* cooperative yield: the syscall context stays ready *)
      ctx.state <- Context.Ready;
      raise Switch
    | Context.Worker _ | Context.Irq_thread _ ->
      (* a daemon main ran dry: park until its wake hook *)
      ctx.state <- Context.Parked;
      raise Switch
    | Context.Softirq | Context.Timerd | Context.Irq ->
      ctx.state <- Context.Idle;
      raise Switch)
  | other -> raise (Ark_error ("unknown emulated service " ^ other))

let hook t name (cpu : Exec.cpu) =
  charge_emu t cost_hook;
  Counters.incr t.counters ("hook." ^ name);
  match name with
  | "queue_work_on" ->
    let wq = Engine.guest_reg t.engine cpu 1 in
    (match
       find_ctx t (fun c ->
           match c.Context.kind with
           | Context.Worker w -> w = wq
           | _ -> false)
     with
    | Some c -> wake c
    | None ->
      (* unknown workqueue: wake every worker, they re-check and re-park *)
      List.iter
        (fun (c : Context.t) ->
          match c.kind with Context.Worker _ -> wake c | _ -> ())
        t.contexts)
  | "tasklet_schedule" -> (
    match find_ctx t (fun c -> c.Context.kind = Context.Softirq) with
    | Some c -> wake c
    | None -> ())
  | "async_schedule" ->
    (* the translated body queues onto a workqueue, whose hook fires *)
    ()
  | other -> raise (Ark_error ("unknown hook " ^ other))

(* ----------------------------- contexts ----------------------------- *)

(* DBT-context stack slots live above the kernel threads' slots. The
   slot cursor is per-create local state: a module-level ref here would
   be shared mutable state across every ARK instance — a data race (and
   a determinism leak) once the campaign runner builds worlds on
   concurrent domains. *)
let ctx_slot_first = 8

let classify_target name_of addr =
  match name_of addr with
  | Some n when List.mem n emulated_services -> Translator.T_emu n
  | Some n when List.mem n hooked_services -> Translator.T_hook n
  | Some n when List.mem n Tk_kernel.Kabi.cold -> Translator.T_cold n
  | Some _ | None -> Translator.T_normal

(* an interrupt ARK would deliver now. O(1): it is polled at every
   translation-block boundary *)
let irq_deliverable t =
  (not t.in_irq) && t.engine.Engine.irq_dispatch
  && Intc.deliverable t.soc.Soc.fabric.Intc.nvic

(** [create ~soc ~mode ~manifest ()] prepares ARK on the peripheral core.
    [mode] selects the DBT optimization level (the Figure 6 bars);
    [superblock] stacks the trace-formation tier on top of [Ark]. *)
let rec create ~(soc : Soc.t) ?(mode = Translator.Ark) ?(superblock = false)
    ~(man : Manifest.t) () =
  let engine = Engine.create ~soc ~mode () in
  (* the superblock tier is an optimization level above Ark: it relies
     on Ark's register/flag passthrough and r10 slot discipline (guest
     r10 in env_r10, host r12 dead between blocks), neither of which
     holds for Mid/Baseline *)
  if superblock then begin
    if mode <> Translator.Ark then
      raise (Ark_error "superblock tier requires the Ark mode");
    engine.Engine.superblock <- true
  end;
  engine.Engine.classify_target <- classify_target man.Manifest.abi_name_of;
  let t =
    { soc; engine; man; contexts = []; current = None; in_irq = false;
      rr = 0; draining = false; tick_on = false;
      on_hypercall = (fun _ _ -> ()); counters = Counters.create ();
      emu_cycles = 0; fell_back = None; paused = None }
  in
  let ctx_stack_slot = ref ctx_slot_first in
  let fresh_stack () =
    let s = !ctx_stack_slot in
    incr ctx_stack_slot;
    Soc.stack_top s
  in
  let mk kind =
    let id = List.length t.contexts in
    let c = Context.create ~id ~kind ~stack_top:(fresh_stack ()) in
    t.contexts <- t.contexts @ [ c ];
    c
  in
  let _primary = mk Context.Primary in
  List.iter (fun wq -> ignore (mk (Context.Worker wq))) man.workqueues;
  List.iter (fun d -> ignore (mk (Context.Irq_thread d))) man.threaded_irqs;
  ignore (mk Context.Softirq);
  ignore (mk Context.Timerd);
  ignore (mk Context.Irq);
  (* engine callbacks *)
  t.engine.Engine.cb.Engine.on_emu <- (fun name cpu -> emu_service t name cpu);
  t.engine.Engine.cb.Engine.on_hook <- (fun name cpu -> hook t name cpu);
  t.engine.Engine.cb.Engine.on_guest_svc <-
    (fun n cpu -> t.on_hypercall n cpu);
  t.engine.Engine.cb.Engine.on_fallback <-
    (fun reason ~guest_pc ~skippable cpu ->
      ignore cpu;
      Counters.incr t.counters "fallback.hits";
      let ctx =
        match t.current with
        | Some c -> c
        | None -> raise (Ark_error "fallback with no context")
      in
      match ctx.Context.kind with
      | Context.Primary when not t.draining ->
        raise (Fallback_exc (reason, guest_pc, ctx))
      | _ ->
        (* secondary context (or drain mode): diagnostic calls are
           emulated and stepped over so the context reaches its parking
           point; terminal sites abandon the context (see DESIGN.md) *)
        if skippable then Counters.incr t.counters "fallback.cold_skipped"
        else begin
          Counters.incr t.counters "fallback.abandoned";
          raise Abandon
        end);
  t.engine.Engine.cb.Engine.on_gic_access <-
    (fun ~write addr value -> gic_access t ~write addr value);
  t.engine.Engine.cb.Engine.on_irq_window <- (fun _ -> irq_window t);
  t

(* guest-kernel interrupt-controller emulation (§4.2): translated code
   faults on the GIC's registers; ARK applies the operation to both the
   (virtual) GIC state and the NVIC *)
and gic_access t ~write off_addr value =
  let fab = t.soc.Soc.fabric in
  let off = off_addr - Soc.gic_base in
  Counters.incr t.counters "emu.gic_access";
  if write then begin
    (if off = Intc.enable_set_off then begin
       Intc.enable fab.Intc.gic value true;
       match fab.Intc.route value with
       | Some n -> Intc.enable fab.Intc.nvic n true
       | None -> ()
     end
     else if off = Intc.enable_clr_off then begin
       Intc.enable fab.Intc.gic value false;
       match fab.Intc.route value with
       | Some n -> Intc.enable fab.Intc.nvic n false
       | None -> ()
     end
     else if off = Intc.eoi_off then Intc.eoi fab.Intc.gic value
     else if off = Intc.pending_clr_off then
       Intc.clear_pending fab.Intc.gic value);
    0
  end
  else if off = Intc.iar_off then 1023 (* never used by translated code *)
  else 0

(* interrupt delivery at a translation-block boundary (§4.2) *)
and irq_window t = if not t.in_irq then ignore (deliver_pending_irq t)

and deliver_pending_irq t =
  if not (irq_deliverable t) then false
  else begin
    let fab = t.soc.Soc.fabric in
    let nline = Intc.ack fab.Intc.nvic in
    Intc.eoi fab.Intc.nvic nline;
    let pline = fab.Intc.reverse_route nline in
    (* the CPU-side view must not see it again after handback *)
    Intc.clear_pending fab.Intc.gic pline;
    charge_emu t cost_early_irq;
    Counters.incr t.counters "emu.early_irq";
    let irq_ctx =
      match find_ctx t (fun c -> c.Context.kind = Context.Irq) with
      | Some c -> c
      | None -> raise (Ark_error "no irq context")
    in
    irq_ctx.Context.pending <- irq_ctx.Context.pending @ [ pline ];
    irq_ctx.Context.state <- Context.Ready;
    t.in_irq <- true;
    let saved = t.current in
    (match saved with Some c -> sync_out t c | None -> ());
    with_deadline_suppressed t (fun () -> run_ctx t irq_ctx);
    (match saved with Some c -> sync_in t c | None -> ());
    t.current <- saved;
    t.in_irq <- false;
    (* kick threaded-irq daemons: they re-check their flag (guest
       state) and re-park if spurious *)
    List.iter
      (fun (c : Context.t) ->
        match c.kind with Context.Irq_thread _ -> wake c | _ -> ())
      t.contexts;
    true
  end

(* ------------------------- context slices --------------------------- *)

and setup_entry t (ctx : Context.t) entry_name arg =
  let cpu = ctx.Context.cpu in
  Array.fill cpu.Exec.r 0 16 0;
  cpu.Exec.n <- false; cpu.Exec.z <- false; cpu.Exec.c <- false;
  cpu.Exec.v <- false;
  let entry = t.man.Manifest.abi_addr_of entry_name in
  let host = Engine.entry_host t.engine entry in
  (match t.engine.Engine.mode with
  | Translator.Ark ->
    cpu.Exec.r.(0) <- arg;
    cpu.Exec.r.(sp) <- ctx.stack_top;
    cpu.Exec.r.(lr) <- Layout.exit_magic
  | Translator.Mid | Translator.Baseline ->
    cpu.Exec.r.(11) <- Layout.env_base;
    Engine.set_guest_reg t.engine cpu 0 arg;
    Engine.set_guest_reg t.engine cpu sp ctx.stack_top;
    Engine.set_guest_reg t.engine cpu lr Layout.exit_magic);
  cpu.Exec.r.(pc) <- host

and entry_of (ctx : Context.t) =
  match ctx.Context.kind with
  | Context.Primary -> None (* set explicitly by run_phase *)
  | Context.Worker wq ->
    if ctx.started then None else Some (upcall_worker, wq)
  | Context.Irq_thread d ->
    if ctx.started then None else Some (upcall_irq_thread, d)
  | Context.Softirq -> Some (upcall_softirq, 0)
  | Context.Timerd -> Some (upcall_timers, 0)
  | Context.Irq -> (
    match ctx.pending with
    | l :: rest ->
      ctx.pending <- rest;
      Some (upcall_irq, l)
    | [] -> None)

and run_ctx ?(resume = false) t (ctx : Context.t) =
  t.current <- Some ctx;
  (* a quantum-paused context resuming is the same scheduler slice
     continuing: no fresh slice count, and no entry setup — the engine
     picks up at the saved host pc in the context's register file *)
  if not resume then begin
    ctx.slices <- ctx.slices + 1
  end;
  sync_in t ctx;
  (if not resume then
     match entry_of ctx with
     | Some (name, arg) ->
       setup_entry t ctx name arg;
       ctx.started <- true
     | None -> ());
  (try
     Engine.run t.engine ctx.cpu ~fuel:200_000_000;
     raise (Ark_error "engine run returned")
   with
  | Abandon -> ctx.state <- Context.Done
  | Engine.Quantum -> t.paused <- Some ctx
  | Engine.Context_exit -> (
    match ctx.kind with
    | Context.Primary -> ctx.state <- Context.Done
    | Context.Worker _ | Context.Irq_thread _ -> ctx.state <- Context.Done
    | Context.Softirq | Context.Timerd ->
      ctx.state <- Context.Idle
    | Context.Irq ->
      ctx.state <- (if ctx.pending = [] then Context.Idle else Context.Ready))
  | Switch -> ());
  sync_out t ctx;
  t.current <- None

(* ----------------------------- scheduler ---------------------------- *)

(* simple round-robin over the runnable contexts (§4.1), so a yielding
   primary cannot starve the deferred-work contexts *)
let schedulable (c : Context.t) =
  Context.is_runnable c && c.Context.kind <> Context.Irq

let pick_ready t =
  let cs = Array.of_list t.contexts in
  let n = Array.length cs in
  let rec go i =
    if i >= n then None
    else
      let c = cs.((t.rr + i) mod n) in
      if schedulable c then begin
        t.rr <- (t.rr + i + 1) mod n;
        Some c
      end
      else go (i + 1)
  in
  go 0

let rec arm_tick t =
  Clock.after_ t.soc.Soc.m3.Core.clock t.man.Manifest.tick_ns (fun () ->
      if t.tick_on then begin
        (* §4.6: ARK directly updates jiffies from its own timer *)
        let j = Mem.ram_read t.soc.Soc.mem t.man.Manifest.jiffies_addr 4 in
        Mem.ram_write t.soc.Soc.mem t.man.Manifest.jiffies_addr 4 (j + 1);
        (match find_ctx t (fun c -> c.Context.kind = Context.Timerd) with
        | Some c -> wake c
        | None -> ());
        arm_tick t
      end)

let primary t =
  match find_ctx t (fun c -> c.Context.kind = Context.Primary) with
  | Some c -> c
  | None -> raise (Ark_error "no primary context")

(* --------------------------- fallback (§6) -------------------------- *)

let guest_state_of t (ctx : Context.t) ~guest_pc =
  sync_in t ctx;
  let regs = Array.make 16 0 in
  for i = 0 to 14 do
    regs.(i) <- Engine.guest_reg t.engine ctx.cpu i
  done;
  regs.(pc) <- guest_pc;
  let flags =
    match t.engine.Engine.mode with
    | Translator.Ark | Translator.Mid -> Exec.flags_word ctx.Context.cpu
    | Translator.Baseline ->
      Mem.ram_read t.soc.Soc.mem Layout.env_guest_flags 4
  in
  (* registers holding code-cache addresses (LR after a host BL) map
     back to guest addresses; the context's entry LR maps to the handoff
     return stub *)
  for i = 0 to 14 do
    if regs.(i) = Layout.exit_magic then regs.(i) <- t.man.Manifest.exit_to
    else if Engine.in_cache t.engine regs.(i) then
      match Engine.guest_point_of_host t.engine regs.(i) with
      | Some g -> regs.(i) <- g
      | None -> ()
  done;
  { g_regs = regs; g_flags = flags }

let rewrite_stack t (ctx : Context.t) =
  (* §5.3: rewrite all code-cache addresses on the guest stack. Mid
     and Baseline keep the guest SP in the env block, not in host r13 *)
  sync_in t ctx;
  let sp_v = Engine.guest_reg t.engine ctx.Context.cpu sp in
  let rewritten = ref 0 in
  let a = ref (sp_v land lnot 3) in
  while !a < ctx.stack_top do
    let w = Mem.ram_read t.soc.Soc.mem !a 4 in
    (if w = Layout.exit_magic then begin
       Mem.ram_write t.soc.Soc.mem !a 4 t.man.Manifest.exit_to;
       incr rewritten
     end
     else if Engine.in_cache t.engine w then
       match Engine.guest_point_of_host t.engine w with
       | Some g ->
         Mem.ram_write t.soc.Soc.mem !a 4 g;
         incr rewritten
       | None -> ());
    a := !a + 4
  done;
  !rewritten

let perform_fallback t (ctx : Context.t) ~reason ~guest_pc =
  with_deadline_suppressed t @@ fun () ->
  Counters.incr t.counters "fallback.migrations";
  (* drain the other contexts to their parking points on the peripheral
     core (receiver-thread equivalent; see DESIGN.md) *)
  t.draining <- true;
  let budget = ref 500 in
  let rec drain () =
    match
      find_ctx t (fun c ->
          c != ctx && Context.is_runnable c && c.Context.kind <> Context.Irq)
    with
    | Some c when !budget > 0 ->
      decr budget;
      run_ctx t c;
      drain ()
    | _ -> ()
  in
  drain ();
  t.draining <- false;
  (* stack rewrite, cache flush, IPI — the §7.3 cost sequence *)
  let m3 = t.soc.Soc.m3 in
  ignore (rewrite_stack t ctx);
  Core.charge m3 (ns_stack_rewrite * m3.Core.p.Core.freq_mhz / 1000);
  ignore (Cache.flush m3.Core.cache);
  Core.charge m3 (ns_cache_flush * m3.Core.p.Core.freq_mhz / 1000);
  let st = guest_state_of t ctx ~guest_pc in
  Intc.raise_line t.soc.Soc.fabric Soc.irq_ipi_cpu;
  Core.charge m3 (ns_ipi * m3.Core.p.Core.freq_mhz / 1000);
  t.fell_back <- Some (reason, st)

(* ------------------------------ phases ------------------------------ *)

(** [phase_begin t which] — the handoff prelude of a phase: reset the
    per-phase context states, mirror the CPU's interrupt-enable state
    into the NVIC, stage the primary context at the phase entry and arm
    the scheduler tick. Drive it with {!phase_step}, to completion (no
    deadline, as {!run_phase} does) or in bounded-quantum slices, then
    collect the {!outcome} with {!phase_finish}. *)
let phase_begin t (which : [ `Suspend | `Resume ]) =
  let entry =
    match which with
    | `Suspend -> t.man.Manifest.entry_suspend
    | `Resume -> t.man.Manifest.entry_resume
  in
  (* reset per-phase context states; contexts for deferred work start
     Ready so work queued on the CPU before handoff gets drained (§4.3) *)
  t.fell_back <- None;
  t.paused <- None;
  t.engine.Engine.span_cut <- -1;
  List.iter
    (fun (c : Context.t) ->
      c.Context.started <- false;
      c.Context.pending <- [];
      Array.fill c.Context.env_save 0 env_words 0;
      c.Context.state <-
        (match c.Context.kind with
        | Context.Primary | Context.Worker _ | Context.Irq_thread _
        | Context.Softirq ->
          Context.Ready
        | Context.Timerd | Context.Irq -> Context.Idle))
    t.contexts;
  (* mirror the CPU's interrupt-enable state into the NVIC (handoff) *)
  let fab = t.soc.Soc.fabric in
  for line = 0 to Soc.nlines - 1 do
    if fab.Intc.gic.Intc.enabled.(line) then
      match fab.Intc.route line with
      | Some n -> Intc.enable fab.Intc.nvic n true
      | None -> ()
  done;
  (* primary context enters at the phase entry *)
  let p = primary t in
  let cpu = p.Context.cpu in
  Array.fill cpu.Exec.r 0 16 0;
  let host = Engine.entry_host t.engine entry in
  (match t.engine.Engine.mode with
  | Translator.Ark ->
    cpu.Exec.r.(sp) <- p.stack_top;
    cpu.Exec.r.(lr) <- Layout.exit_magic
  | Translator.Mid | Translator.Baseline ->
    cpu.Exec.r.(11) <- Layout.env_base;
    sync_in t p;
    Engine.set_guest_reg t.engine cpu sp p.stack_top;
    Engine.set_guest_reg t.engine cpu lr Layout.exit_magic;
    sync_out t p);
  cpu.Exec.r.(pc) <- host;
  p.Context.started <- true;
  t.tick_on <- true;
  arm_tick t

(** [phase_finish t] — stop the scheduler tick and collect the phase
    outcome. Pairs with {!phase_begin}. *)
let phase_finish t : outcome =
  t.tick_on <- false;
  match t.fell_back with
  | Some (reason, st) -> Fell_back { fb_reason = reason; fb_state = st }
  | None -> Completed

(** [phase_step t ~deadline] — the ARK scheduler: dispatch contexts
    (resuming a quantum-paused one first, without recharging the
    scheduler tick) until the M3 clock reaches absolute time [deadline],
    the phase completes or falls back ([`Done]), or nothing is runnable
    and no event is pending ([`Blocked]: nothing can wake a context, a
    deadlock). With no deadline ([max_int]) it is the sequential
    scheduler; at any other, the dispatch sequence over a whole phase is
    that one cut at quantum boundaries, which makes [--quantum 1]
    digest-identical. *)
let phase_step t ~deadline : [ `Runnable | `Blocked | `Done ] =
  let p = primary t in
  let m3 = t.soc.Soc.m3 in
  let m3clock = m3.Core.clock in
  let eng = t.engine in
  let run ?resume ctx =
    try run_ctx t ?resume ctx
    with Fallback_exc (reason, guest_pc, fctx) ->
      sync_out t fctx;
      t.current <- None;
      perform_fallback t fctx ~reason ~guest_pc
  in
  let guard = ref 0 in
  let blocked = ref false in
  while
    p.Context.state <> Context.Done
    && t.fell_back = None
    && m3clock.Clock.now < deadline
    && not !blocked
  do
    incr guard;
    if !guard > 5_000_000 then raise (Ark_error "scheduler livelock");
    eng.Engine.deadline_ns <- deadline;
    match t.paused with
    | Some ctx ->
      t.paused <- None;
      run ~resume:true ctx
    | None -> (
      match pick_ready t with
      | Some ctx ->
        (* emulated scheduler tick *)
        charge_emu t cost_tick;
        run ctx
      | None ->
        (* an interrupt may be pending with every context asleep *)
        if not (deliver_pending_irq t) then
          blocked := not (Core.idle_until m3 ~limit:deadline))
  done;
  eng.Engine.deadline_ns <- max_int;
  if p.Context.state = Context.Done || t.fell_back <> None then `Done
  else if !blocked then `Blocked
  else `Runnable

(** [run_phase t which] executes one offloaded device phase
    ([`Suspend] or [`Resume]) to completion or fallback: {!phase_step}
    with no deadline. The handoff has already shut down the CPU; on
    return the caller (the CPU-side module) resumes native execution. *)
let run_phase t (which : [ `Suspend | `Resume ]) : outcome =
  phase_begin t which;
  Fun.protect
    ~finally:(fun () -> t.tick_on <- false)
    (fun () ->
      match phase_step t ~deadline:max_int with
      | `Done -> phase_finish t
      | `Blocked | `Runnable ->
        raise (Ark_error "ARK deadlock: nothing runnable and no events"))
