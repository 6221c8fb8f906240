(** Generic device hardware model.

    Every benchmark device (Table in §7.1) is an instance of this model:
    an MMIO register file, a power state machine with {e real transition
    latencies} (the physical factor that makes suspend/resume idle-bound,
    §2.1), an optional DMA engine, a firmware FIFO and an IRQ line.

    Latencies are scaled down ~20x from typical hardware so a full
    9-device suspend/resume executes ~1-3M guest instructions (see
    DESIGN.md §4.3); all reported results are ratios, which scaling
    preserves.

    Register map (offsets from the device's MMIO base):
    {v
    0x00 R  STATUS   bit0 power_on, bit1 busy, bit2 cmd_done, bit3 error,
                     bit4 dma_busy, bit5 dma_done, bit6 fifo_busy
    0x04 W  CMD      1 power_off, 2 power_on, 3 ack (clear done bits),
                     4 config txn (I2C-style: busy for cfg_latency)
    0x08 W  IRQ_EN   bit0 enables the device's IRQ line
    0x0C W  DMA_SRC  0x10 W DMA_DST  0x14 W DMA_LEN
    0x18 W  DMA_CTRL 1 = mem->dev (drain), 2 = dev->mem (fill)
    0x1C W  FIFO     firmware word; 0x20 R FIFO_SPACE
    0x24+   RW       8 scratch/config words
    v} *)

open Tk_machine

type t = {
  name : string;
  index : int;  (** SoC device slot: MMIO base + IRQ line *)
  soc : Soc.t;
  suspend_ns : int;
  resume_ns : int;
  cfg_ns : int;  (** latency of a CMD=4 config transaction *)
  dma_ns_per_kb : int;
  fw_words : int;  (** firmware words expected before fifo completes *)
  mutable power_on : bool;
  mutable busy : bool;
  mutable cmd_done : bool;
  mutable error : bool;
  mutable dma_busy : bool;
  mutable dma_done : bool;
  mutable fifo_busy : bool;
  mutable irq_en : bool;
  mutable dma_src : int;
  mutable dma_dst : int;
  mutable dma_len : int;
  mutable fifo_count : int;
  mutable fifo_sum : int;
  scratch : int array;
  (* fault injection: swallow the next power-on command (the paper's WiFi
     firmware glitch, §7.3) *)
  mutable glitch_next_resume : bool;
  mutable glitches_hit : int;
  (* stats *)
  mutable cmds : int;
  mutable irqs_raised : int;
}

let status t =
  Bool.to_int t.power_on
  lor (Bool.to_int t.busy lsl 1)
  lor (Bool.to_int t.cmd_done lsl 2)
  lor (Bool.to_int t.error lsl 3)
  lor (Bool.to_int t.dma_busy lsl 4)
  lor (Bool.to_int t.dma_done lsl 5)
  lor (Bool.to_int t.fifo_busy lsl 6)

let raise_irq t =
  if t.irq_en then begin
    t.irqs_raised <- t.irqs_raised + 1;
    Intc.raise_line t.soc.Soc.fabric (Soc.dev_irq t.index)
  end

let finish_power t on =
  t.busy <- false;
  t.power_on <- on;
  t.cmd_done <- true;
  (* the rail event also closes the span tracer's power-ramp span *)
  Tk_stats.Recorder.event t.soc.Soc.recorder ~core:Tk_stats.Trace.core_none
    Tk_stats.Trace.ev_power t.index (Bool.to_int on);
  raise_irq t

let ramp_begin t =
  ignore
    (Tk_stats.Recorder.burst_open t.soc.Soc.recorder
       ~core:Tk_stats.Trace.core_none Tk_stats.Span.sk_power_ramp t.index)

let cmd t v =
  t.cmds <- t.cmds + 1;
  match v with
  | 1 ->
    (* power off after the hardware transition latency *)
    t.busy <- true;
    ramp_begin t;
    Clock.after_ t.soc.Soc.sched_clock t.suspend_ns (fun () ->
        finish_power t false)
  | 2 ->
    t.busy <- true;
    if t.glitch_next_resume then begin
      (* firmware wedged: never completes, never interrupts *)
      t.glitch_next_resume <- false;
      t.glitches_hit <- t.glitches_hit + 1
    end
    else begin
      ramp_begin t;
      Clock.after_ t.soc.Soc.sched_clock t.resume_ns (fun () ->
          finish_power t true)
    end
  | 3 ->
    t.cmd_done <- false;
    t.dma_done <- false;
    t.error <- false
  | 4 ->
    t.busy <- true;
    Clock.after_ t.soc.Soc.sched_clock t.cfg_ns (fun () ->
        t.busy <- false;
        t.cmd_done <- true;
        raise_irq t)
  | _ -> t.error <- true

let dma_start t dir =
  if t.dma_len > 0 then begin
    t.dma_busy <- true;
    let ns = max 2_000 (t.dma_len * t.dma_ns_per_kb / 1024) in
    Clock.after_ t.soc.Soc.sched_clock ns (fun () ->
        let mem = t.soc.Soc.mem in
        (match dir with
        | 1 -> ignore (Mem.dma_read mem t.dma_src t.dma_len)
        | _ ->
          Mem.dma_write mem t.dma_dst
            (List.init t.dma_len (fun i -> (i * 7) land 0xFF)));
        t.dma_busy <- false;
        t.dma_done <- true;
        raise_irq t)
  end

let fifo_write t w =
  t.fifo_count <- t.fifo_count + 1;
  t.fifo_sum <- (t.fifo_sum + w) land 0xFFFFFFFF;
  if t.fifo_count >= t.fw_words then begin
    t.fifo_busy <- true;
    t.fifo_count <- 0;
    (* firmware boot time *)
    Clock.after_ t.soc.Soc.sched_clock 30_000 (fun () ->
        t.fifo_busy <- false;
        t.cmd_done <- true;
        raise_irq t)
  end

let mmio_region t : Mem.region =
  { rbase = Soc.dev_base t.index; rsize = Soc.dev_mmio_stride;
    rname = t.name;
    rread =
      (fun off _ ->
        match off with
        | 0x00 -> status t
        | 0x20 -> if t.fifo_busy then 0 else 16
        | o when o >= 0x24 && o < 0x44 -> t.scratch.((o - 0x24) / 4)
        | _ -> 0);
    rwrite =
      (fun off _ v ->
        match off with
        | 0x04 -> cmd t v
        | 0x08 -> t.irq_en <- v land 1 = 1
        | 0x0C -> t.dma_src <- v
        | 0x10 -> t.dma_dst <- v
        | 0x14 -> t.dma_len <- v
        | 0x18 -> dma_start t v
        | 0x1C -> fifo_write t v
        | o when o >= 0x24 && o < 0x44 -> t.scratch.((o - 0x24) / 4) <- v
        | _ -> ()) }

(** [create soc ~name ~index ~suspend_us ~resume_us ...] builds a device
    and maps its MMIO region. Devices start powered on. *)
let create soc ~name ~index ~suspend_us ~resume_us ?(cfg_us = 25)
    ?(dma_ns_per_kb = 8_000) ?(fw_words = 0) () =
  let t =
    { name; index; soc; suspend_ns = suspend_us * 1000;
      resume_ns = resume_us * 1000; cfg_ns = cfg_us * 1000; dma_ns_per_kb;
      fw_words; power_on = true; busy = false; cmd_done = false;
      error = false; dma_busy = false; dma_done = false; fifo_busy = false;
      irq_en = false; dma_src = 0; dma_dst = 0; dma_len = 0; fifo_count = 0;
      fifo_sum = 0; scratch = Array.make 8 0; glitch_next_resume = false;
      glitches_hit = 0; cmds = 0; irqs_raised = 0 }
  in
  Mem.add_region soc.Soc.mem (mmio_region t);
  t

(* ----------------------- snapshot support --------------------------- *)

(** Flat copy of a device's mutable state, for the world-snapshot
    layer. Only valid at quiescence (no transition/DMA/firmware event
    pending): an in-flight completion is a clock closure that a
    snapshot could not re-create, and {!Tk_machine.World.fork} refuses
    to capture while one is pending. *)
type saved = {
  v_power_on : bool;
  v_busy : bool;
  v_cmd_done : bool;
  v_error : bool;
  v_dma_busy : bool;
  v_dma_done : bool;
  v_fifo_busy : bool;
  v_irq_en : bool;
  v_dma_src : int;
  v_dma_dst : int;
  v_dma_len : int;
  v_fifo_count : int;
  v_fifo_sum : int;
  v_scratch : int array;
  v_glitch_next_resume : bool;
  v_glitches_hit : int;
  v_cmds : int;
  v_irqs_raised : int;
}

let capture t =
  { v_power_on = t.power_on; v_busy = t.busy; v_cmd_done = t.cmd_done;
    v_error = t.error; v_dma_busy = t.dma_busy; v_dma_done = t.dma_done;
    v_fifo_busy = t.fifo_busy; v_irq_en = t.irq_en; v_dma_src = t.dma_src;
    v_dma_dst = t.dma_dst; v_dma_len = t.dma_len;
    v_fifo_count = t.fifo_count; v_fifo_sum = t.fifo_sum;
    v_scratch = Array.copy t.scratch;
    v_glitch_next_resume = t.glitch_next_resume;
    v_glitches_hit = t.glitches_hit; v_cmds = t.cmds;
    v_irqs_raised = t.irqs_raised }

let restore t s =
  t.power_on <- s.v_power_on;
  t.busy <- s.v_busy;
  t.cmd_done <- s.v_cmd_done;
  t.error <- s.v_error;
  t.dma_busy <- s.v_dma_busy;
  t.dma_done <- s.v_dma_done;
  t.fifo_busy <- s.v_fifo_busy;
  t.irq_en <- s.v_irq_en;
  t.dma_src <- s.v_dma_src;
  t.dma_dst <- s.v_dma_dst;
  t.dma_len <- s.v_dma_len;
  t.fifo_count <- s.v_fifo_count;
  t.fifo_sum <- s.v_fifo_sum;
  Array.blit s.v_scratch 0 t.scratch 0 (Array.length s.v_scratch);
  t.glitch_next_resume <- s.v_glitch_next_resume;
  t.glitches_hit <- s.v_glitches_hit;
  t.cmds <- s.v_cmds;
  t.irqs_raised <- s.v_irqs_raised

(* Register offsets, shared with the guest drivers. *)
let r_status = 0x00
let r_cmd = 0x04
let r_irq_en = 0x08
let r_dma_src = 0x0C
let r_dma_dst = 0x10
let r_dma_len = 0x14
let r_dma_ctrl = 0x18
let r_fifo = 0x1C
let r_fifo_space = 0x20
let r_scratch = 0x24
