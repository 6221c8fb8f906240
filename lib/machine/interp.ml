(** Guest-native interpreter: the CPU executing V7A kernel code directly.

    This is the paper's "native execution" arm: the monolithic kernel
    running device suspend/resume on the Cortex-A9. The loop fetches
    encoded words from DRAM (through the A9's cache model), decodes them
    (memoized), executes via {!Tk_isa.Exec} and charges cycles; pending
    GIC interrupts vector to the kernel's IRQ entry stub between
    instructions.

    Decode memoization is a {e dense pre-decoded array} over the guest
    kernel image span ([Soc.kernel_base ..), grown on fetch to cover the
    highest word executed: each slot holds the instruction and its
    {!Exec.compile}d closure, so fetch-decode is one array load and
    execution one closure call, and the self-modifying-store
    invalidation is an O(1) array write (covering {e both} words touched
    by a store that straddles a word boundary). A fetch outside the
    image span, or an unaligned one (none in practice), is decoded
    afresh each time, so it has nothing to invalidate. All of this is
    host-side speed only: the simulated cycle/traffic counters are
    bit-identical to the lazy hashtable scheme (pinned by
    test/test_neutrality.ml).

    Guest [SVC] is used as a simulation hypercall (halt / platform-off /
    console), dispatched to the embedding runner through [on_svc]. *)

open Tk_isa

exception Halt of string  (** raised by hypercalls to end a run *)

exception Fault of string  (** simulation bug: deadlock, bad fetch, ... *)

(* The dense decode array covers where kernel code lives: the image
   region below the page pool. It starts empty and grows to the highest
   word fetched, so a platform holds slots for the few thousand words of
   code it runs, not for all 2M words of the span. *)
let dense_base = Soc.kernel_base
let dense_top = Soc.page_pool_base
let dense_words = (dense_top - dense_base) / 4

type t = {
  soc : Soc.t;
  core : Core.t;
  rc : Tk_stats.Recorder.t;  (** the platform recorder, cached *)
  cpu : Exec.cpu;
  mutable decode : Exec.decoded array;
      (** dense, indexed by image word, grown on fetch; empty slots hold
          {!Exec.undecoded} *)
  mutable env : Exec.env;
      (** memory closures test the flight recorder's flag inline *)
  mutable irq_vector : int;  (** guest address of the IRQ entry stub *)
  mutable irq_saved : (int * int) list;  (** (return pc, flags) *)
  mutable on_svc : t -> Exec.cpu -> int -> unit;
}

let dummy_env : Exec.env =
  { load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
    svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
    undef = (fun _ _ -> ()) }

let in_dense = Soc.in_kernel_image

let create ~(soc : Soc.t) () =
  let core = soc.cpu in
  let rc = soc.recorder in
  let t =
    { soc; core; rc; cpu = Exec.make_cpu ();
      decode = [||];
      env = dummy_env; irq_vector = 0;
      irq_saved = [];
      on_svc = (fun _ _ _ -> ()) }
  in
  let mem = soc.mem in
  let sub = rc.Tk_stats.Recorder.sub in
  let tcore = Tk_stats.Trace.core_cpu in
  let cpu_ev kind a b = Tk_stats.Recorder.event rc ~core:tcore kind a b in
  let load addr nbytes = Core.load core mem rc ~tcore addr nbytes in
  (* self-modifying code safety: after a RAM store, drop any stale
     decode for a word the store touched. A store may straddle a word
     boundary (e.g. a 4-byte store at an unaligned address), so both
     affected words are invalidated. A span word past the dense array
     was never fetched, and nothing outside the span is memoized. The
     flight recorder hears of the invalidations that drop a decoded
     word. *)
  let invalidate_word w =
    if in_dense w then begin
      let idx = (w - dense_base) asr 2 in
      if idx < Array.length t.decode then begin
        if
          sub.Tk_stats.Substrate.tracing
          && Array.unsafe_get t.decode idx != Exec.undecoded
        then cpu_ev Tk_stats.Trace.ev_invalidate w 0;
        Array.unsafe_set t.decode idx Exec.undecoded
      end
    end
  in
  let store addr nbytes v =
    if Core.store core mem rc ~tcore addr nbytes v then begin
      let w0 = addr land lnot 3 in
      invalidate_word w0;
      let w1 = (addr + nbytes - 1) land lnot 3 in
      if w1 <> w0 then invalidate_word w1
    end
  in
  (* WFI and hypercalls read and move time, so owed cycles are applied
     first and charges inside them apply at once *)
  let wfi _cpu =
    let outer = Core.enter core min_int in
    if not (Core.idle_until core ~limit:max_int) then
      raise (Fault "WFI with no pending event: platform deadlock");
    Core.leave core outer
  in
  let irq_ret cpu =
    match t.irq_saved with
    | [] -> raise (Fault "IRQ return with empty saved-context stack")
    | (ret_pc, flags) :: rest ->
      t.irq_saved <- rest;
      cpu.Exec.r.(Types.pc) <- ret_pc;
      Exec.set_flags_word cpu flags;
      cpu.Exec.irq_on <- true
  in
  let undef _cpu inst =
    raise (Fault (Printf.sprintf "undefined instruction: %s" (Types.to_string inst)))
  in
  let svc cpu n =
    let outer = Core.enter core min_int in
    t.on_svc t cpu n;
    Core.leave core outer
  in
  t.env <- { load; store; svc; wfi; irq_ret; undef };
  t

(** [set_pc t addr] positions the next fetch. *)
let set_pc t addr = t.cpu.Exec.r.(Types.pc) <- addr

let decode_word t addr =
  let w = Mem.ram_read32 t.soc.mem addr in
  match V7a.decode w with
  | i -> Exec.decoded i
  | exception (V7a.Decode_error _ | Invalid_argument _) ->
    raise (Fault (Printf.sprintf "bad fetch at 0x%x (word 0x%x)" addr w))

(* grow the dense array to cover word [idx], at least doubling it *)
let grow t idx =
  let old = t.decode in
  let n = min dense_words (max (idx + 1024) (2 * Array.length old)) in
  let a = Array.make n Exec.undecoded in
  Array.blit old 0 a 0 (Array.length old);
  t.decode <- a

(* the common case, an aligned fetch inside the grown array, costs two
   bounds compares; a span word past the array grows it first, and any
   other fetch decodes afresh *)
let rec fetch_decode t addr =
  let idx = (addr - dense_base) asr 2 in
  if idx >= 0 && idx < Array.length t.decode && addr land 3 = 0 then begin
    let d = Array.unsafe_get t.decode idx in
    if d != Exec.undecoded then d
    else begin
      let d = decode_word t addr in
      Array.unsafe_set t.decode idx d;
      d
    end
  end
  else if in_dense addr && addr land 3 = 0 then begin
    grow t idx;
    fetch_decode t addr
  end
  else decode_word t addr

let deliver_irq t =
  let cpu = t.cpu in
  t.irq_saved <- (cpu.Exec.r.(Types.pc), Exec.flags_word cpu) :: t.irq_saved;
  cpu.Exec.irq_on <- false;
  cpu.Exec.r.(Types.pc) <- t.irq_vector

(* one step with the recording decision precomputed: [run_until] hoists
   it out of its loop entirely (recording never toggles while guest code
   is executing), so the disabled path tests only an immutable
   register-resident bool *)
let step_env t recording env =
  let cpu = t.cpu in
  if cpu.Exec.irq_on && Intc.deliverable t.soc.fabric.gic then
    deliver_irq t;
  let addr = Array.unsafe_get cpu.Exec.r Types.pc in
  if not (Mem.in_ram t.soc.mem addr) then
    raise (Fault (Printf.sprintf "PC outside RAM: 0x%x" addr));
  let d = fetch_decode t addr in
  Core.retire t.core addr ~fused:false;
  if recording && t.rc.Tk_stats.Recorder.sub.Tk_stats.Substrate.tracing
  then
    Tk_stats.Recorder.event t.rc ~core:Tk_stats.Trace.core_cpu
      Tk_stats.Trace.ev_retire addr 0;
  match d.Exec.run cpu env addr with
  | Exec.Next -> Array.unsafe_set cpu.Exec.r Types.pc (addr + 4)
  | Exec.Branched -> ()

(** [step t] executes one instruction (delivering a pending enabled IRQ
    first). *)
let step t =
  let recording = Tk_stats.Recorder.recording t.rc in
  step_env t recording t.env;
  if recording then Tk_stats.Recorder.tick t.rc

let fuel_exhausted fuel =
  Fault (Printf.sprintf "fuel exhausted after %d instructions" fuel)

(** [run_until t ~deadline ~fuel] — bounded-quantum slice of {!run}:
    step until the core's clock reaches absolute time [deadline], then
    return normally (the next call resumes at the saved pc — between
    instructions every interpreter state is a resume point). {!Halt}
    still propagates when the guest finishes inside the slice. The core
    defers its charges up to [deadline] ({!Core.enter}), so the loop's
    clock test is exact: the charge that reaches [deadline] applies. *)
let run_until t ~deadline ~fuel =
  let n = ref 0 in
  let env = t.env in
  let recording = Tk_stats.Recorder.recording t.rc in
  let sub = t.rc.Tk_stats.Recorder.sub in
  let core = t.core in
  let clock = core.Core.clock in
  let outer = Core.enter core deadline in
  match
    while clock.Clock.now < deadline do
      if !n >= fuel then raise (fuel_exhausted fuel);
      incr n;
      step_env t recording env;
      if recording && sub.Tk_stats.Substrate.sampling then
        Tk_stats.Recorder.tick t.rc
    done
  with
  | () -> Core.leave core outer
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Core.leave core outer;
    Printexc.raise_with_backtrace e bt

(** [run t ~fuel] steps until a hypercall raises {!Halt} (or [fuel]
    instructions elapse, which raises {!Fault} — a runaway guest): the
    slice whose deadline never comes. *)
let run t ~fuel =
  let go () =
    run_until t ~deadline:max_int ~fuel;
    raise (fuel_exhausted fuel)
  in
  (* one execution-burst span per call; [run] only ever exits by
     exception (Halt / Fault), so the close rides in [~finally] *)
  let core = Tk_stats.Trace.core_cpu in
  let tok = Tk_stats.Recorder.burst_open t.rc ~core Tk_stats.Span.sk_run 0 in
  if tok < 0 then go ()
  else
    Fun.protect
      ~finally:(fun () -> Tk_stats.Recorder.burst_close t.rc ~core tok)
      go
