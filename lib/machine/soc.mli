(** The simulated SoC: an OMAP4460-like platform (Table 6).

    One Cortex-A9-class CPU (1.2 GHz, 1 MB LLC, 630/80 mW busy/idle) and
    one Cortex-M3-class peripheral core (200 MHz, 32 KB LLC, 17/1 mW), in
    separate power domains, sharing DRAM and devices; heterogeneous
    interrupt controllers with a partial routing table. *)

(* ------------------------- memory map ------------------------------- *)

val ram_base : int

(** Where the guest kernel image is linked — shifted low so the
    peripheral core can address it, the paper's §7.5 workaround for the
    Cortex-M3 addressing limit. *)
val kernel_base : int

(** Buddy-allocator page pool managed by the guest kernel. *)
val page_pool_base : int

val page_pool_size : int

(** Kernel stacks (one per kthread / DBT context). *)
val stacks_base : int

(** Per-thread stack budget in bytes (checked statically by
    [arksim analyze --cfg]). *)
val stack_size : int

(** DBT code cache lives in DRAM on the peripheral-core side. *)
val code_cache_base : int

val code_cache_size : int

(** GIC distributor — mapped for the CPU only; peripheral-core accesses
    fault and are emulated by ARK (§4.2). *)
val gic_base : int

val cpu_timer_base : int

(** [is_cpu_private addr] — true for regions the peripheral core's MPU
    does not map (currently the GIC register file). *)
val is_cpu_private : int -> bool

(** [in_kernel_image addr] — inside the span where guest kernel code can
    live ([kernel_base, page_pool_base)): the interpreter's dense-decode
    span and the superblock tier's store-invalidation cover. *)
val in_kernel_image : int -> bool

(* ------------------------- IRQ lines -------------------------------- *)

val nlines : int

(** Peripheral core -> CPU doorbell (fallback / resume done). *)
val irq_ipi_cpu : int

val irq_cpu_timer : int

(* ------------------------- core parameters -------------------------- *)

val a9_params : Core.params
val m3_params : Core.params
val a9_cache_kb : int
val m3_cache_kb : int

type t = {
  clock : Clock.t;
  mutable sched_clock : Clock.t;
      (** the queue device completions and DMA events arm on: the
          platform clock, except inside a lockstep concurrent segment,
          where it is the lane of the core driving the device — so a
          device poked by the M3 completes in M3 time, deterministically,
          whatever the other core is doing. Aliases [clock] otherwise. *)
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
val create : ?m3_cache_kb:int -> unit -> t

(** [dev_base i] is the MMIO base address of device slot [i]. *)
val dev_base : int -> int

(** MMIO stride between device slots. *)
val dev_mmio_stride : int

(** [dev_irq i] is the platform IRQ line of device slot [i]. *)
val dev_irq : int -> int

(** [stack_top i] is the initial SP for kthread / DBT-context slot [i]
    (full-descending stacks). *)
val stack_top : int -> int
