(** Snapshotable SoC worlds: [fork] / [restore] over a live {!Soc.t}.

    The fleet layer hosts thousands of device-instances per worker
    domain. Building a fresh [Soc] per instance (image compile, kernel
    boot, translation warm-up) would cost far more than the wakeup it
    serves; instead one live world per shard is multiplexed across
    instances, each restored from a snapshot of the warmed world:

    - {b RAM} — {!Mem}'s 4 KiB pages are copy-on-write, so a snapshot
      is the page array itself, taken by reference ({!Mem.share}); the
      live world copies a page only when it next stores to it. Restore
      puts the snapshot's pages back by reference ({!Mem.reload}).
    - {b caches} — tag and dirty arrays, copied.
    - {b cores, interrupt controllers, clock, timers} — small flat
      state, copied verbatim. Timers are special: a pending tick is an
      event-queue closure, so capture records its [(period, next_at)]
      and restore re-arms at the exact absolute instant.

    Snapshots are taken with the periodic ticks paused (their events
    pulled off the queue and re-armed at the exact absolute instant on
    restore). Whatever one-shot events remain queued — a device
    completion in flight, ARK's conditional tick — close only over
    state this snapshot restores, so the event list itself is captured
    and replayed verbatim: replaying it against restored state is
    deterministic. Callers still snapshot between suspend/resume
    cycles, where nothing structurally novel is pending.

    State outside the machine layer (devices, ARK contexts, harness
    accumulators) is captured through registered hooks: each hook
    returns a restore thunk closing over whatever it captured, keeping
    this module ignorant of upper-layer types. *)

type core_state = {
  w_cpi_acc : int;
  w_frac_ps : int;
  w_busy_cycles : int;
  w_idle_ps : int;
  w_instructions : int;
  w_stall_cycles : int;
}

type cache_state = {
  w_hits : int;
  w_misses : int;
  w_rd_bytes : int;
  w_wr_bytes : int;
  w_tags : int array;
  w_dirty : bool array;
}

type intc_state = {
  w_enabled : bool array;
  w_pending : bool array;
  w_in_service : int option;
  w_live : int;
}

type mach_state = {
  w_now : int;
  w_seq : int;
  w_cpu : core_state;
  w_m3 : core_state;
  w_cpu_cache : cache_state;
  w_m3_cache : cache_state;
  w_gic : intc_state;
  w_nvic : intc_state;
  w_cpu_tick : (int * int) option;  (** (period, next_at) *)
  w_m3_tick : (int * int) option;
  w_events : Clock.event list;
      (** non-tick events pending at the snapshot instant. Their
          closures only reference world state this snapshot restores
          (device completions, ARK's self-checking tick), so replaying
          the list verbatim is sound and deterministic. *)
  w_dma_rd : int;
  w_dma_wr : int;
}

type snap = {
  s_pages : Bytes.t array;  (** DRAM by reference, from {!Mem.share} *)
  s_mach : mach_state;
  s_ext : (unit -> unit) list;  (** hook restore thunks, hook order *)
}

(** Host-side accounting (never part of any digest). *)
type stats = {
  mutable forks : int;
  mutable restores : int;
  mutable pages_loaded : int;  (** pages whose bytes a restore changed *)
}

type t = {
  soc : Soc.t;
  shared : Bytes.t;
      (** '\001' for pages exempt from restore: state owned by a
          process-wide component (the DBT code cache) that must stay
          consistent with host-side structures shared across instances
          (block map, host-decode array) rather than follow any one
          instance's timeline *)
  mutable hooks : (unit -> unit -> unit) list;  (** reverse order *)
  stats : stats;
}

(* ----------------------- component capture -------------------------- *)

let capture_core (c : Core.t) =
  { w_cpi_acc = c.Core.cpi_acc; w_frac_ps = c.Core.frac_ps;
    w_busy_cycles = c.Core.busy_cycles;
    w_idle_ps = c.Core.idle_ps; w_instructions = c.Core.instructions;
    w_stall_cycles = c.Core.stall_cycles }

let restore_core (c : Core.t) s =
  c.Core.cpi_acc <- s.w_cpi_acc;
  c.Core.frac_ps <- s.w_frac_ps;
  c.Core.busy_cycles <- s.w_busy_cycles;
  c.Core.idle_ps <- s.w_idle_ps;
  c.Core.instructions <- s.w_instructions;
  c.Core.stall_cycles <- s.w_stall_cycles

let capture_cache (cache : Cache.t) =
  { w_hits = cache.Cache.hits; w_misses = cache.Cache.misses;
    w_rd_bytes = cache.Cache.rd_bytes; w_wr_bytes = cache.Cache.wr_bytes;
    w_tags = Array.copy cache.Cache.tags;
    w_dirty = Array.copy cache.Cache.dirty }

let restore_cache (cache : Cache.t) s =
  Array.blit s.w_tags 0 cache.Cache.tags 0 cache.Cache.nsets;
  Array.blit s.w_dirty 0 cache.Cache.dirty 0 cache.Cache.nsets;
  cache.Cache.hits <- s.w_hits;
  cache.Cache.misses <- s.w_misses;
  cache.Cache.rd_bytes <- s.w_rd_bytes;
  cache.Cache.wr_bytes <- s.w_wr_bytes

let capture_intc (i : Intc.t) =
  { w_enabled = Array.copy i.Intc.enabled;
    w_pending = Array.copy i.Intc.pending;
    w_in_service = i.Intc.in_service; w_live = i.Intc.live }

let restore_intc (i : Intc.t) s =
  Array.blit s.w_enabled 0 i.Intc.enabled 0 (Array.length s.w_enabled);
  Array.blit s.w_pending 0 i.Intc.pending 0 (Array.length s.w_pending);
  i.Intc.in_service <- s.w_in_service;
  i.Intc.live <- s.w_live

(* --------------------------- lifecycle ------------------------------- *)

(** [create ?shared_ranges soc] — a snapshot layer over the live world
    [soc] (typically: booted and warmed, between cycles). It captures
    nothing; {!fork} does. [shared_ranges] are address ranges
    [(lo, hi)] (hi exclusive) whose pages restore leaves alone — they
    belong to process-wide state (e.g. the DBT code cache, which must
    stay consistent with the engine's shared block map). *)
let create ?(shared_ranges = []) (soc : Soc.t) =
  let mem = soc.Soc.mem in
  let shared = Bytes.make (Mem.npages mem) '\000' in
  List.iter
    (fun (lo, hi) ->
      let p0 = max 0 ((lo - mem.Mem.ram_base) asr Mem.page_bits) in
      let p1 =
        min (Mem.npages mem - 1)
          ((hi - 1 - mem.Mem.ram_base) asr Mem.page_bits)
      in
      for i = p0 to p1 do
        Bytes.set shared i '\001'
      done)
    shared_ranges;
  { soc; shared; hooks = [];
    stats = { forks = 0; restores = 0; pages_loaded = 0 } }

(** [add_hook t hook] — register an upper-layer capture hook: called at
    each fork, must return a thunk that restores whatever it captured.
    Thunks run (in registration order) at each restore. *)
let add_hook t hook = t.hooks <- hook :: t.hooks

let soc t = t.soc
let stats t = t.stats

(* pause both ticks (pulling their events off the queue), run [f],
   resume. The tick state is returned so captures can embed it in the
   snap; whatever events remain queued are one-shot machine events
   (device completions, ARK's conditional tick) and are captured as a
   list — see [mach_state.w_events]. *)
let with_quiesced t f =
  let cpu_tick = Timer.pause_tick t.soc.Soc.cpu_timer in
  let m3_tick = Timer.pause_tick t.soc.Soc.m3_timer in
  let out = f ~cpu_tick ~m3_tick in
  Option.iter (Timer.resume_tick t.soc.Soc.cpu_timer) cpu_tick;
  Option.iter (Timer.resume_tick t.soc.Soc.m3_timer) m3_tick;
  out

let capture_mach t ~cpu_tick ~m3_tick =
  let soc = t.soc in
  { w_now = soc.Soc.clock.Clock.now;
    w_seq = Clock.seq_value soc.Soc.clock;
    w_cpu = capture_core soc.Soc.cpu; w_m3 = capture_core soc.Soc.m3;
    w_cpu_cache = capture_cache soc.Soc.cpu.Core.cache;
    w_m3_cache = capture_cache soc.Soc.m3.Core.cache;
    w_gic = capture_intc soc.Soc.fabric.Intc.gic;
    w_nvic = capture_intc soc.Soc.fabric.Intc.nvic;
    w_cpu_tick = cpu_tick; w_m3_tick = m3_tick;
    w_events = Clock.pending soc.Soc.clock;
    w_dma_rd = soc.Soc.mem.Mem.dma_read_bytes;
    w_dma_wr = soc.Soc.mem.Mem.dma_write_bytes }

(** [fork t] — snapshot the live world as an independently-restorable
    fork point. RAM is taken by reference, so no page is copied here;
    the live world copies a page when it next stores to it. *)
let fork t =
  t.stats.forks <- t.stats.forks + 1;
  with_quiesced t (fun ~cpu_tick ~m3_tick ->
      let pages = Mem.share t.soc.Soc.mem in
      let ext = List.rev_map (fun hook -> hook ()) t.hooks in
      { s_pages = pages; s_mach = capture_mach t ~cpu_tick ~m3_tick;
        s_ext = ext })

(** [restore t ?on_page snap] — rewrite the live world to [snap].
    [on_page i ~old] fires once the page is back for every page index
    whose bytes changed, with the prior page, so callers can invalidate
    derived host-side state precisely (the native interpreter's dense
    pre-decode span; the DBT cover — flushing only if a covered word
    really changed, not merely data sharing its page). *)
let restore t ?(on_page = fun _ ~old:_ -> ()) snap =
  t.stats.restores <- t.stats.restores + 1;
  let soc = t.soc in
  Timer.stop_tick soc.Soc.cpu_timer;
  Timer.stop_tick soc.Soc.m3_timer;
  Mem.reload soc.Soc.mem ~exempt:t.shared snap.s_pages
    ~on_page:(fun i ~old ->
      t.stats.pages_loaded <- t.stats.pages_loaded + 1;
      on_page i ~old);
  let m = snap.s_mach in
  Clock.restore_pending soc.Soc.clock ~now:m.w_now ~seq:m.w_seq m.w_events;
  restore_core soc.Soc.cpu m.w_cpu;
  restore_core soc.Soc.m3 m.w_m3;
  restore_cache soc.Soc.cpu.Core.cache m.w_cpu_cache;
  restore_cache soc.Soc.m3.Core.cache m.w_m3_cache;
  restore_intc soc.Soc.fabric.Intc.gic m.w_gic;
  restore_intc soc.Soc.fabric.Intc.nvic m.w_nvic;
  soc.Soc.mem.Mem.dma_read_bytes <- m.w_dma_rd;
  soc.Soc.mem.Mem.dma_write_bytes <- m.w_dma_wr;
  List.iter (fun thunk -> thunk ()) snap.s_ext;
  Option.iter (Timer.resume_tick soc.Soc.cpu_timer) m.w_cpu_tick;
  Option.iter (Timer.resume_tick soc.Soc.m3_timer) m.w_m3_tick
