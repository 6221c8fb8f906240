(** The simulated SoC: an OMAP4460-like platform (Table 6).

    One Cortex-A9-class CPU (1.2 GHz, 1 MB LLC, 630/80 mW busy/idle) and
    one Cortex-M3-class peripheral core (200 MHz, 32 KB LLC, 17/1 mW), in
    separate power domains, sharing DRAM and devices; heterogeneous
    interrupt controllers with a partial routing table. *)

(* ------------------------- memory map ------------------------------- *)

let ram_base = 0x10000000
let ram_size = 24 * 1024 * 1024

(** Where the guest kernel image is linked — shifted low so the
    peripheral core can address it, the paper's §7.5 workaround for the
    Cortex-M3 addressing limit. *)
let kernel_base = 0x10010000

(** Buddy-allocator page pool managed by the guest kernel. *)
let page_pool_base = 0x10800000

let page_pool_size = 4 * 1024 * 1024

(** Kernel stacks (one per kthread / DBT context). *)
let stacks_base = 0x10C00000

let stack_size = 64 * 1024

(** DBT code cache lives in DRAM on the peripheral-core side. *)
let code_cache_base = 0x11000000

let code_cache_size = 2 * 1024 * 1024

(** GIC distributor — mapped for the CPU only; peripheral-core accesses
    fault and are emulated by ARK (§4.2). *)
let gic_base = 0x48240000

let gic_size = 0x100
let cpu_timer_base = 0x48032000
let m3_timer_base = 0x48034000
let dev_mmio_base = 0x4A000000
let dev_mmio_stride = 0x10000

(** [is_cpu_private addr] — true for regions the peripheral core's MPU
    does not map (currently the GIC register file). *)
let is_cpu_private addr = addr >= gic_base && addr < gic_base + gic_size

(** [in_kernel_image addr] — inside the span where guest kernel code can
    live: the region the interpreter pre-decodes densely and the DBT's
    superblock tier covers with its store-invalidation map. *)
let in_kernel_image addr = addr >= kernel_base && addr < page_pool_base

(* ------------------------- IRQ lines -------------------------------- *)

let nlines = 102
(* peripheral core -> CPU (fallback / resume done) *)
let irq_ipi_cpu = 1
let irq_cpu_timer = 37
let irq_m3_timer = 38
(* device i uses line irq_dev_first + i *)
let irq_dev_first = 40

(* ------------------------- core parameters -------------------------- *)

let a9_params : Core.params =
  { cname = "cortex-a9"; freq_mhz = 1200; busy_mw = 630.0; idle_mw = 80.0;
    mmio_penalty = 24; cpi_num = 0; cpi_den = 1 }

let m3_params : Core.params =
  { cname = "cortex-m3"; freq_mhz = 200; busy_mw = 17.0; idle_mw = 1.0;
    mmio_penalty = 4; cpi_num = 4; cpi_den = 3 }

let a9_cache_kb = 1024
let m3_cache_kb = 32
(* same ~100ns DRAM, counted in each core's own cycles *)
let a9_miss_penalty = 110
let m3_miss_penalty = 20

type t = {
  clock : Clock.t;
      (** the platform clock: devices, timers and the M3 arm every
          event on it. Only the A9 ever leaves it, for a private lane
          inside a lockstep concurrent segment ({!Clock.lane}). *)
  mem : Mem.t;
  fabric : Intc.fabric;
  cpu : Core.t;
  m3 : Core.t;
  cpu_timer : Timer.t;
  m3_timer : Timer.t;
  recorder : Tk_stats.Recorder.t;
      (** the recorder substrate: every component of this SoC reports
          through it, and gauges over every counter of the SoC are
          registered in it *)
  trace : Tk_stats.Trace.t;
      (** the recorder's flight recorder (disabled by default): point
          events from every component, counter snapshots at phase marks *)
  sampler : Tk_stats.Timeseries.t;
      (** the recorder's cycle-domain sampler (disabled by default); the
          run loops tick it on the sampling period *)
  spans : Tk_stats.Span.t;
      (** the recorder's causal span tracer (disabled by default); the
          harness marks phase frames into it and the interrupt
          controllers, devices and DBT engine record latency and burst
          spans, each snapshotting the attribution gauges *)
}

(** [create ?m3_cache_kb ()] builds a fresh platform. [m3_cache_kb]
    defaults to the OMAP4460's 32 KB; §7.5's "enlarge the LLC modestly"
    recommendation is explored by overriding it. *)
let create ?(m3_cache_kb = m3_cache_kb) () =
  let clock = Clock.create () in
  let mem = Mem.create ~ram_base ~ram_size in
  (* Route device lines and the M3 timer to the NVIC; leave the rest
     (GPIO banks etc.) CPU-only, mirroring OMAP4460's 39/102. *)
  let routed =
    irq_m3_timer :: List.init 30 (fun i -> irq_dev_first + i)
  in
  let fabric = Intc.make_fabric ~nlines ~routed in
  let cpu =
    Core.create ~clock
      ~cache:(Cache.create ~name:"a9-llc" ~size_kb:a9_cache_kb
                ~miss_penalty:a9_miss_penalty)
      a9_params
  in
  let m3 =
    Core.create ~clock
      ~cache:(Cache.create ~name:"m3-llc" ~size_kb:m3_cache_kb
                ~miss_penalty:m3_miss_penalty)
      m3_params
  in
  let cpu_timer = Timer.create ~clock ~fabric ~irq_line:irq_cpu_timer in
  let m3_timer = Timer.create ~clock ~fabric ~irq_line:irq_m3_timer in
  Mem.add_region mem (Intc.mmio_region fabric.gic ~base:gic_base);
  Mem.add_region mem (Timer.mmio_region cpu_timer ~base:cpu_timer_base);
  Mem.add_region mem (Timer.mmio_region m3_timer ~base:m3_timer_base);
  (* the recorder substrate: one per platform, on the A9's clock — the
     platform clock, or the A9's lane inside a concurrent segment, where
     the recorder is paused and reads time only at the barriers.
     Gauges over the core counters feed the sampler's columns (and, for
     busy cycles, instructions and misses, the flight recorder's phase
     probes); higher layers (DBT engine, device drivers) wire their own
     on top. *)
  (* Whatever reads time or a core's busy counters mid-run applies that
     core's owed cycles first, quietly: owed cycles never reach an
     event ({!Core.settle}) *)
  let recorder =
    Tk_stats.Recorder.create
      ~now:(fun () ->
        if cpu.Core.owed lor m3.Core.owed <> 0 then begin
          Core.settle cpu;
          Core.settle m3
        end;
        cpu.Core.clock.Clock.now)
      ()
  in
  let gauge = Tk_stats.Substrate.gauge recorder.Tk_stats.Recorder.sub in
  let sampled = Tk_stats.Substrate.sampler_bit in
  let probed = sampled lor Tk_stats.Substrate.trace_bit in
  let core_gauges prefix core (c : Core.t) =
    let g readers name f = gauge ~core ~readers (prefix ^ name) f in
    g sampled "_busy_ps" (fun () -> Core.busy_ps c);
    g sampled "_idle_ps" (fun () -> c.Core.idle_ps);
    g probed "_busy_cy" (fun () ->
        Core.settle c;
        c.Core.busy_cycles);
    g probed "_instrs" (fun () -> c.Core.instructions);
    g sampled "_hits" (fun () -> c.Core.cache.Cache.hits);
    g probed "_miss" (fun () -> c.Core.cache.Cache.misses);
    g sampled "_rd_bytes" (fun () -> c.Core.cache.Cache.rd_bytes);
    g sampled "_wr_bytes" (fun () -> c.Core.cache.Cache.wr_bytes)
  in
  core_gauges "a9" Tk_stats.Trace.core_cpu cpu;
  core_gauges "m3" Tk_stats.Trace.core_m3 m3;
  gauge ~readers:sampled "dma_rd_bytes" (fun () -> mem.Mem.dma_read_bytes);
  gauge ~readers:sampled "dma_wr_bytes" (fun () -> mem.Mem.dma_write_bytes);
  (* span attribution gauges are monotone counters, so sibling span
     deltas telescope into their parent's (Span.reconcile audits the
     0.1% bar). Energy is integrated in integer nJ from the same
     busy/idle-ps figures the power model uses — truncation of a
     nondecreasing float keeps it monotone. *)
  let core_energy_nj (c : Core.t) =
    int_of_float
      (((float_of_int (Core.busy_ps c) *. c.Core.p.Core.busy_mw)
       +. (float_of_int c.Core.idle_ps *. c.Core.p.Core.idle_mw))
      /. 1e6)
  in
  let spanned = Tk_stats.Substrate.spans_bit in
  gauge ~readers:spanned "instructions" (fun () ->
      cpu.Core.instructions + m3.Core.instructions);
  gauge ~readers:spanned "stall_cycles" (fun () ->
      cpu.Core.stall_cycles + m3.Core.stall_cycles);
  gauge ~readers:spanned "energy_nj" (fun () ->
      core_energy_nj cpu + core_energy_nj m3);
  fabric.Intc.gic.Intc.rc <- recorder;
  fabric.Intc.gic.Intc.rc_core <- Tk_stats.Trace.core_cpu;
  fabric.Intc.nvic.Intc.rc <- recorder;
  fabric.Intc.nvic.Intc.rc_core <- Tk_stats.Trace.core_m3;
  { clock; mem; fabric; cpu; m3; cpu_timer; m3_timer;
    recorder; trace = recorder.Tk_stats.Recorder.trace;
    sampler = recorder.Tk_stats.Recorder.sampler;
    spans = recorder.Tk_stats.Recorder.spans }

(** [dev_base i] is the MMIO base address of device slot [i]. *)
let dev_base i = dev_mmio_base + (i * dev_mmio_stride)

(** [dev_irq i] is the platform IRQ line of device slot [i]. *)
let dev_irq i = irq_dev_first + i

(** [stack_top i] is the initial SP for kthread / DBT-context slot [i]
    (full-descending stacks). *)
let stack_top i = stacks_base + ((i + 1) * stack_size) - 16
