(** Snapshotable SoC worlds: [fork] / [restore] over a live {!Soc.t}.

    The fleet layer hosts thousands of device-instances per worker
    domain. Building a fresh [Soc] per instance (image compile, kernel
    boot, translation warm-up) would cost far more than the wakeup it
    serves; instead one live world per shard is multiplexed across
    instances, and each instance's divergence from a shared baseline is
    captured as a sparse, structurally-shared snapshot:

    - {b RAM} — at {!Mem}'s 4 KiB page granularity. {!Mem} marks
      touched pages on every store; [fork] compares only touched pages
      against the baseline and interns the diverging ones in a
      content-addressed store, so the many instances that follow the
      same execution path share one copy of each page. The baseline
      holds never-written pages as {!Mem.zero_page} itself, by
      reference.
    - {b caches} — tag/dirty arrays diffed against the baseline in
      fixed chunks, interned the same way.
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
  w_busy_ps : int;
  w_idle_ps : int;
  w_instructions : int;
  w_stall_cycles : int;
}

(* cache tag/dirty arrays are diffed in chunks of this many sets:
   1 MB A9 cache = 32768 sets -> 128 chunks, 32 KB M3 = 1024 sets -> 4 *)
let chunk_sets = 256

type cache_chunk = {
  k_idx : int;
  k_tags : int array;
  k_dirty : bool array;
}

type cache_state = {
  w_hits : int;
  w_misses : int;
  w_rd_bytes : int;
  w_wr_bytes : int;
  w_chunks : cache_chunk list;  (** chunks diverging from baseline *)
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
  s_pages : (int * Bytes.t) list;  (** pages differing from baseline,
                                       ascending index, interned *)
  s_mach : mach_state;
  s_ext : (unit -> unit) list;  (** hook restore thunks, hook order *)
}

(** Host-side accounting (never part of any digest: intern-hit counts
    depend on instance scheduling order). *)
type stats = {
  mutable forks : int;
  mutable restores : int;
  mutable pages_captured : int;  (** diverging pages seen across forks *)
  mutable pages_interned : int;  (** of those, new to the intern store *)
  mutable pages_loaded : int;  (** pages rewritten by restores *)
  mutable chunks_captured : int;
  mutable chunks_interned : int;
  mutable false_dirty : int;  (** touched pages equal to baseline *)
}

type t = {
  soc : Soc.t;
  shared : Bytes.t;
      (** '\001' for pages exempt from snapshot/restore: state owned by
          a process-wide component (the DBT code cache) that must stay
          consistent with host-side structures shared across instances
          (block map, host-decode array) rather than follow any one
          instance's timeline *)
  base_pages : Bytes.t array;
  base_cpu_tags : int array;
  base_cpu_dirty : bool array;
  base_m3_tags : int array;
  base_m3_dirty : bool array;
  page_intern : (int, Bytes.t list ref) Hashtbl.t;
  chunk_intern : (int, cache_chunk list ref) Hashtbl.t;
  mutable hooks : (unit -> unit -> unit) list;  (** reverse order *)
  stats : stats;
}

(* ----------------------- content interning -------------------------- *)

let fnv_bytes b =
  let h = ref 0xcbf29ce484222 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h land max_int

let intern_page t (b : Bytes.t) =
  let h = fnv_bytes b in
  match Hashtbl.find_opt t.page_intern h with
  | None ->
    Hashtbl.add t.page_intern h (ref [ b ]);
    t.stats.pages_interned <- t.stats.pages_interned + 1;
    b
  | Some bucket ->
    (match List.find_opt (fun p -> Bytes.equal p b) !bucket with
    | Some p -> p
    | None ->
      bucket := b :: !bucket;
      t.stats.pages_interned <- t.stats.pages_interned + 1;
      b)

let chunk_eq a b =
  a.k_idx = b.k_idx && a.k_tags = b.k_tags && a.k_dirty = b.k_dirty

let fnv_chunk (c : cache_chunk) =
  let h = ref (0xcbf29ce484222 lxor c.k_idx) in
  Array.iter (fun tg -> h := (!h lxor (tg land 0xFFFFFF)) * 0x100000001b3)
    c.k_tags;
  Array.iter
    (fun d -> h := (!h lxor (if d then 1 else 0)) * 0x100000001b3)
    c.k_dirty;
  !h land max_int

let intern_chunk t c =
  let h = fnv_chunk c in
  match Hashtbl.find_opt t.chunk_intern h with
  | None ->
    Hashtbl.add t.chunk_intern h (ref [ c ]);
    t.stats.chunks_interned <- t.stats.chunks_interned + 1;
    c
  | Some bucket ->
    (match List.find_opt (chunk_eq c) !bucket with
    | Some c' -> c'
    | None ->
      bucket := c :: !bucket;
      t.stats.chunks_interned <- t.stats.chunks_interned + 1;
      c)

(* ----------------------- component capture -------------------------- *)

let capture_core (c : Core.t) =
  { w_cpi_acc = c.Core.cpi_acc; w_frac_ps = c.Core.frac_ps;
    w_busy_cycles = c.Core.busy_cycles; w_busy_ps = c.Core.busy_ps;
    w_idle_ps = c.Core.idle_ps; w_instructions = c.Core.instructions;
    w_stall_cycles = c.Core.stall_cycles }

let restore_core (c : Core.t) s =
  c.Core.cpi_acc <- s.w_cpi_acc;
  c.Core.frac_ps <- s.w_frac_ps;
  c.Core.busy_cycles <- s.w_busy_cycles;
  c.Core.busy_ps <- s.w_busy_ps;
  c.Core.idle_ps <- s.w_idle_ps;
  c.Core.instructions <- s.w_instructions;
  c.Core.stall_cycles <- s.w_stall_cycles

let capture_cache t (cache : Cache.t) ~base_tags ~base_dirty =
  let nsets = cache.Cache.nsets in
  let chunks = ref [] in
  let c = ref ((nsets - 1) / chunk_sets) in
  while !c >= 0 do
    let lo = !c * chunk_sets in
    let len = min chunk_sets (nsets - lo) in
    let differs = ref false in
    let i = ref lo in
    while (not !differs) && !i < lo + len do
      if
        cache.Cache.tags.(!i) <> base_tags.(!i)
        || cache.Cache.dirty.(!i) <> base_dirty.(!i)
      then differs := true;
      incr i
    done;
    if !differs then begin
      t.stats.chunks_captured <- t.stats.chunks_captured + 1;
      chunks :=
        intern_chunk t
          { k_idx = !c; k_tags = Array.sub cache.Cache.tags lo len;
            k_dirty = Array.sub cache.Cache.dirty lo len }
        :: !chunks
    end;
    decr c
  done;
  { w_hits = cache.Cache.hits; w_misses = cache.Cache.misses;
    w_rd_bytes = cache.Cache.rd_bytes; w_wr_bytes = cache.Cache.wr_bytes;
    w_chunks = !chunks }

let restore_cache (cache : Cache.t) s ~base_tags ~base_dirty =
  Array.blit base_tags 0 cache.Cache.tags 0 cache.Cache.nsets;
  Array.blit base_dirty 0 cache.Cache.dirty 0 cache.Cache.nsets;
  List.iter
    (fun k ->
      let lo = k.k_idx * chunk_sets in
      Array.blit k.k_tags 0 cache.Cache.tags lo (Array.length k.k_tags);
      Array.blit k.k_dirty 0 cache.Cache.dirty lo (Array.length k.k_dirty))
    s.w_chunks;
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

(** [create ?shared_ranges soc] — capture the shared baseline from a
    {e quiescent} live world (typically: booted and warmed, between
    cycles). All subsequent forks and restores diff against this
    baseline. [shared_ranges] are address ranges [(lo, hi)] (hi
    exclusive) whose pages are exempt from capture and restore — they
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
  let t =
    { soc; shared;
      base_pages = Array.make (Mem.npages mem) Mem.zero_page;
      base_cpu_tags = Array.copy soc.Soc.cpu.Core.cache.Cache.tags;
      base_cpu_dirty = Array.copy soc.Soc.cpu.Core.cache.Cache.dirty;
      base_m3_tags = Array.copy soc.Soc.m3.Core.cache.Cache.tags;
      base_m3_dirty = Array.copy soc.Soc.m3.Core.cache.Cache.dirty;
      page_intern = Hashtbl.create 4096; chunk_intern = Hashtbl.create 256;
      hooks = [];
      stats =
        { forks = 0; restores = 0; pages_captured = 0; pages_interned = 0;
          pages_loaded = 0; chunks_captured = 0; chunks_interned = 0;
          false_dirty = 0 } }
  in
  (* the baseline pages are canonical content: seed the intern store so
     a page that diverges and later reverts re-shares the baseline copy.
     Never-written pages stay the shared zero page, interned once. *)
  ignore (intern_page t Mem.zero_page);
  for i = 0 to Mem.npages mem - 1 do
    if Mem.page_allocated mem i then
      t.base_pages.(i) <- intern_page t (Mem.page_snapshot mem i)
  done;
  t.stats.pages_interned <- 0;
  (* every page now matches the baseline by construction *)
  for i = 0 to Mem.npages mem - 1 do
    Mem.set_page_touched mem i false
  done;
  t

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
  let resume () =
    (match cpu_tick with
    | Some s -> Timer.resume_tick t.soc.Soc.cpu_timer s
    | None -> ());
    match m3_tick with
    | Some s -> Timer.resume_tick t.soc.Soc.m3_timer s
    | None -> ()
  in
  let out = f ~cpu_tick ~m3_tick in
  resume ();
  out

let capture_mach t ~cpu_tick ~m3_tick =
  let soc = t.soc in
  { w_now = soc.Soc.clock.Clock.now;
    w_seq = Clock.seq_value soc.Soc.clock;
    w_cpu = capture_core soc.Soc.cpu; w_m3 = capture_core soc.Soc.m3;
    w_cpu_cache =
      capture_cache t soc.Soc.cpu.Core.cache ~base_tags:t.base_cpu_tags
        ~base_dirty:t.base_cpu_dirty;
    w_m3_cache =
      capture_cache t soc.Soc.m3.Core.cache ~base_tags:t.base_m3_tags
        ~base_dirty:t.base_m3_dirty;
    w_gic = capture_intc soc.Soc.fabric.Intc.gic;
    w_nvic = capture_intc soc.Soc.fabric.Intc.nvic;
    w_cpu_tick = cpu_tick; w_m3_tick = m3_tick;
    w_events = Clock.pending soc.Soc.clock;
    w_dma_rd = soc.Soc.mem.Mem.dma_read_bytes;
    w_dma_wr = soc.Soc.mem.Mem.dma_write_bytes }

(** [fork t] — snapshot the live world as an independently-restorable
    fork point. O(diverged state): only pages touched since the last
    fork/restore are compared against the baseline, and page content is
    structurally shared between snapshots via the intern store. *)
let fork t =
  t.stats.forks <- t.stats.forks + 1;
  let mem = t.soc.Soc.mem in
  with_quiesced t (fun ~cpu_tick ~m3_tick ->
      let pages = ref [] in
      for i = Mem.npages mem - 1 downto 0 do
        if Mem.page_touched mem i then
          if Bytes.get t.shared i <> '\000' then
            (* shared page: never captured; unmark so later forks skip *)
            Mem.set_page_touched mem i false
          else if Mem.page_equal mem i t.base_pages.(i) then begin
            (* touched but reverted (or spuriously marked): clean it so
               future forks skip the compare *)
            Mem.set_page_touched mem i false;
            t.stats.false_dirty <- t.stats.false_dirty + 1
          end
          else begin
            t.stats.pages_captured <- t.stats.pages_captured + 1;
            pages := (i, intern_page t (Mem.page_snapshot mem i)) :: !pages
          end
      done;
      let ext = List.rev_map (fun hook -> hook ()) t.hooks in
      { s_pages = !pages; s_mach = capture_mach t ~cpu_tick ~m3_tick;
        s_ext = ext })

(** [restore t ?on_page snap] — rewrite the live world to [snap].
    [on_page i ~old] fires for every page index whose bytes were
    rewritten, with the page's prior content, so callers can invalidate
    derived host-side state precisely (the native interpreter's dense
    pre-decode span; the DBT cover — flushing only if a covered word
    really changed, not merely data sharing its page). *)
let restore t ?(on_page = fun _ ~old:_ -> ()) snap =
  t.stats.restores <- t.stats.restores + 1;
  let mem = t.soc.Soc.mem in
  with_quiesced t (fun ~cpu_tick:_ ~m3_tick:_ ->
      (* pages present in the snap, for the touched-page walk below *)
      let want = Hashtbl.create (List.length snap.s_pages * 2) in
      List.iter (fun (i, p) -> Hashtbl.replace want i p) snap.s_pages;
      (* pass 1: every page that may differ from baseline right now
         either gets its snap content or reverts to baseline *)
      for i = 0 to Mem.npages mem - 1 do
        if Mem.page_touched mem i then
          if Bytes.get t.shared i <> '\000' then
            (* shared page (e.g. DBT code cache): content is owned by
               machinery common to all instances — leave it alone *)
            Mem.set_page_touched mem i false
          else
          match Hashtbl.find_opt want i with
          | Some p ->
            Hashtbl.remove want i;
            if not (Mem.page_equal mem i p) then begin
              let old = Mem.page_snapshot mem i in
              Mem.page_load mem i p;
              t.stats.pages_loaded <- t.stats.pages_loaded + 1;
              on_page i ~old
            end
          | None ->
            if not (Mem.page_equal mem i t.base_pages.(i)) then begin
              let old = Mem.page_snapshot mem i in
              Mem.page_load mem i t.base_pages.(i);
              t.stats.pages_loaded <- t.stats.pages_loaded + 1;
              on_page i ~old
            end;
            Mem.set_page_touched mem i false
      done;
      (* pass 2: snap pages whose live copy was still at baseline *)
      Hashtbl.iter
        (fun i p ->
          Mem.page_load mem i p;
          Mem.set_page_touched mem i true;
          t.stats.pages_loaded <- t.stats.pages_loaded + 1;
          on_page i ~old:t.base_pages.(i))
        want;
      let soc = t.soc in
      let m = snap.s_mach in
      Clock.restore_pending soc.Soc.clock ~now:m.w_now ~seq:m.w_seq
        m.w_events;
      restore_core soc.Soc.cpu m.w_cpu;
      restore_core soc.Soc.m3 m.w_m3;
      restore_cache soc.Soc.cpu.Core.cache m.w_cpu_cache
        ~base_tags:t.base_cpu_tags ~base_dirty:t.base_cpu_dirty;
      restore_cache soc.Soc.m3.Core.cache m.w_m3_cache
        ~base_tags:t.base_m3_tags ~base_dirty:t.base_m3_dirty;
      restore_intc soc.Soc.fabric.Intc.gic m.w_gic;
      restore_intc soc.Soc.fabric.Intc.nvic m.w_nvic;
      soc.Soc.mem.Mem.dma_read_bytes <- m.w_dma_rd;
      soc.Soc.mem.Mem.dma_write_bytes <- m.w_dma_wr;
      List.iter (fun thunk -> thunk ()) snap.s_ext);
  (* with_quiesced resumed the ticks the *live* world had; replace them
     with the snap's tick state *)
  Timer.stop_tick t.soc.Soc.cpu_timer;
  Timer.stop_tick t.soc.Soc.m3_timer;
  (match snap.s_mach.w_cpu_tick with
  | Some s -> Timer.resume_tick t.soc.Soc.cpu_timer s
  | None -> ());
  match snap.s_mach.w_m3_tick with
  | Some s -> Timer.resume_tick t.soc.Soc.m3_timer s
  | None -> ()
