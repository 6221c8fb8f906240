(** The DBT execution engine running on the peripheral core.

    Owns the code cache (a region of shared DRAM), the guest->host block
    map, the site table (engine trap points emitted by {!Translator}),
    direct-branch patching ("chaining"), and the host execution loop —
    a V7M interpreter charged against the M3 core model, fetching emitted
    words through the M3's 32 KB cache (whose thrashing is the DRAM story
    of §7.3) and running each as the closure {!Exec.compile} built when
    it was emitted.

    The engine is policy-free: ARK (the [transkernel] library) supplies
    callbacks for emulated services, hooks, guest hypercalls, interrupt
    windows and fallback. Callbacks may raise to take control; the
    engine always leaves the context's host pc at the correct resume
    point before invoking them. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine

type callbacks = {
  mutable on_emu : string -> Exec.cpu -> unit;
  mutable on_hook : string -> Exec.cpu -> unit;
  mutable on_guest_svc : int -> Exec.cpu -> unit;
  mutable on_fallback :
    string -> guest_pc:int -> skippable:bool -> Exec.cpu -> unit;
      (** returning normally skips the cold call (drain mode) *)
  mutable on_irq_window : Exec.cpu -> unit;  (** at block starts *)
  mutable on_gic_access : write:bool -> int -> int -> int;
      (** MPU-fault emulation of the CPU interrupt controller (§4.2):
          [on_gic_access ~write addr value] returns the read value *)
}

exception Context_exit
exception Host_error of string

exception Quantum
(** The M3 clock reached [deadline_ns] (bounded-quantum lockstep): the
    run loop unwound at its next probe point — after a control transfer
    or a callback pc override, before the next instruction touches any
    state — with the context's pc saved, so a later [run] with the same
    cpu resumes exactly where it stopped. Never raised while
    [deadline_ns = max_int] (the default). *)

type t = {
  soc : Soc.t;
  mode : Translator.mode;
  tr : Tk_stats.Trace.t;  (** the platform flight recorder, cached *)
  mutable classify_target : int -> Translator.target_class;
  cb : callbacks;
  (* code cache *)
  mutable cursor : int;
  block_map : (int, int) Hashtbl.t;  (** guest block start -> host addr *)
  block_starts : (int, int) Hashtbl.t;  (** host block start -> guest start *)
  sites : (int, Translator.site_info) Hashtbl.t;  (** host addr -> site *)
  host_points : (int, int) Hashtbl.t;
      (** host addr -> guest addr, for every host point that can appear
          in a saved context or on the stack (call return sites, svc
          resume points, block starts) — the map fallback migration uses
          to rewrite code-cache addresses (§5.3) *)
  host_decode : Exec.decoded array;
      (** dense pre-decoded code cache, indexed by
          [(addr - Soc.code_cache_base) / 4]: each slot holds the host
          instruction and its {!Exec.compile}d closure, populated at
          [write_host] time (so patching a site re-decodes it in place)
          and read by the hot loop as one array load. Empty slots hold
          the physically distinguished {!Exec.undecoded} sentinel rather
          than an option, so the per-instruction fetch is a pointer
          compare with no [Some] indirection. Host-side speed only — the
          simulated charges are unchanged. *)
  block_start : bool array;
      (** dense membership set mirroring [block_starts], same indexing
          as [host_decode] — the hot loop's IRQ-window probe *)
  mutable cur_pc : int;
  mutable pc_overridden : bool;
  mutable chain : bool;
      (** patch direct branch/call sites into host branches (on by
          default; the no-chaining ablation turns it off) *)
  mutable block_limit : int;  (** guest instructions per block *)
  mutable irq_dispatch : bool;  (** ARK spinlock emulation pauses this *)
  mutable env : Exec.env;
  mutable env_traced : Exec.env;
      (** same host environment with flight-recorder emission on memory
          accesses; the run loop selects it only while tracing is
          enabled, keeping the disabled path free of trace branches *)
  (* statistics *)
  mutable guest_translated : int;
  mutable host_emitted : int;
  mutable blocks : int;
  mutable engine_exits : int;
  mutable patches : int;
  mutable host_executed : int;
  mutable translate_cycles : int;
      (** simulated M3 cycles charged for translation / trace formation
          (the [cost_translate_per_guest] charges); a monotone
          attribution gauge for the span tracer *)
  (* hot-block profiler (host-side observability; simulated charges are
     unaffected whether it is on or off) *)
  mutable profile : bool;
  block_exec : int array;
      (** per-block execution count, same dense indexing as
          [block_start]; bumped when the hot loop enters a block start *)
  block_dispatch : (int, int) Hashtbl.t;
      (** host block start -> entries through the dispatch slow path
          (i.e. not via a chained direct branch) *)
  block_size : (int, int * int) Hashtbl.t;
      (** host block start -> (guest instruction count, host words) *)
  (* superblock tier (above Ark; cycle-accounted, not cycle-neutral) *)
  mutable superblock : bool;
      (** the superblock tier: gates trace formation over hot block
          chains, the macro-op fusion marks and the store-invalidation
          probe (whole-trace invalidation) — the run loop is shared.
          Only meaningful with [mode = Ark]. *)
  mutable sb_threshold : int;
      (** block executions before its chain is considered for formation *)
  mutable sb_max_blocks : int;  (** max constituent blocks per trace *)
  block_succ : (int, int) Hashtbl.t;
      (** guest block start -> always-taken successor (AL tail/jump
          terminal) — the chain statistics trace formation walks *)
  formed : (int, unit) Hashtbl.t;
      (** guest heads already considered for formation (one-shot) *)
  fuse_next : bool array;
      (** same dense indexing as [host_decode]: host word at [i] issues
          fused with the word at [i+1] (Table 4 macro-op idioms) *)
  guest_cover : Bytes.t;
      (** per guest kernel-image word ([Soc.in_kernel_image] span):
          non-zero if some translation consumed it — the multi-block
          store-invalidation map *)
  mutable pending_flush : bool;
      (** a guest store hit covered code; the whole cache is evicted at
          the next block/trace boundary *)
  mutable store : Cache_store.t option;
      (** persistent translation cache (lazy warm replay) *)
  mutable traces_formed : int;
  mutable fusions_applied : int;
  mutable cache_warm_hits : int;
      (** deliberately {e not} a telemetry gauge: warm and cold runs must
          produce byte-identical manifests, and this is the one counter
          that differs between them *)
  mutable invalidations : int;  (** covered words hit by guest stores *)
  mutable flushes : int;  (** whole-cache evictions performed *)
  (* static-analysis products consumed by the tier (certify + absint) *)
  mutable sb_certify : (Superblock.plan -> bool) option;
      (** online trace certifier hook: a formed (or warm-loaded) plan is
          admitted only if the hook proves it equivalent to its
          constituent blocks; [None] (default) admits everything *)
  mutable certify_rejects : int;
      (** plans refused by [sb_certify] (warm or fresh) *)
  mutable smc_map : Bytes.t option;
      (** SMC-clean map, same per-guest-word indexing as [guest_cover]:
          non-zero marks code proven (by whole-image abstract
          interpretation) to never store into translated code ranges.
          Derived from the {e pristine} image, so a whole-cache flush —
          which only ever follows guest self-modification — drops it. *)
  probe_exempt : bool array;
      (** same dense host-word indexing as [host_decode]: translated
          code emitted entirely from SMC-clean guest words; its stores
          skip the cover-map probe *)
  mutable probes_elided : int;
      (** image-span stores that skipped the probe via [probe_exempt] *)
  mutable deadline_ns : int;
      (** bounded-quantum lockstep: the run loop raises {!Quantum} at
          its next probe point once the M3 clock reaches this
          absolute time. [max_int] (default) = run to completion. The
          scheduler clears it around nested context runs (IRQ delivery,
          fallback draining), which must finish indivisibly. *)
  mutable span_cut : int;
      (** slot of an execution-burst span cut by {!Quantum} ([-1] =
          none); the next {!run} reopens that exact frame instead of
          opening a fresh one, so span telemetry — counts and durations
          both — is identical at every quantum, slicing included *)
}

(* cost knobs, in M3 cycles *)
(* the prediction-less M3 refills its pipeline on every taken branch,
   unlike the branch-predicting A9 — this is what makes control-dense
   drivers (USB) the worst DBT cases in Figure 6 *)
let cost_taken_branch = 3
let cost_translate_per_guest = 60
let cost_dispatch = 28  (* svc trap + table lookup *)
let cost_patch = 30
let cost_exit_pc = 150  (* map lookup on an engine exit *)
let cost_gic_fault = 150  (* MPU fault + controller emulation *)

let charge t cycles = Core.charge t.soc.Soc.m3 cycles

let dummy_cb () =
  { on_emu = (fun _ _ -> ());
    on_hook = (fun _ _ -> ());
    on_guest_svc = (fun _ _ -> ());
    on_fallback =
      (fun r ~guest_pc:_ ~skippable:_ _ -> raise (Host_error ("fallback: " ^ r)));
    on_irq_window = (fun _ -> ());
    on_gic_access = (fun ~write:_ _ _ -> 0) }

let in_cache t addr =
  addr >= Soc.code_cache_base && addr < t.cursor

let dummy_env : Exec.env =
  { Exec.load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
    svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
    undef = (fun _ _ -> ()) }

let rec create ~(soc : Soc.t) ~mode () =
  let tr = soc.Soc.trace in
  let t =
    { soc; mode; tr; classify_target = (fun _ -> Translator.T_normal);
      cb = dummy_cb (); cursor = Soc.code_cache_base;
      block_map = Hashtbl.create 1024; block_starts = Hashtbl.create 1024;
      sites = Hashtbl.create 1024; host_points = Hashtbl.create 4096;
      host_decode = Array.make (Soc.code_cache_size / 4) Exec.undecoded;
      block_start = Array.make (Soc.code_cache_size / 4) false;
      cur_pc = 0; pc_overridden = false;
      chain = true; block_limit = Translator.default_block_limit;
      irq_dispatch = true; env = dummy_env; env_traced = dummy_env;
      guest_translated = 0;
      host_emitted = 0; blocks = 0; engine_exits = 0; patches = 0;
      host_executed = 0; translate_cycles = 0; profile = false;
      block_exec = Array.make (Soc.code_cache_size / 4) 0;
      block_dispatch = Hashtbl.create 1024;
      block_size = Hashtbl.create 1024;
      superblock = false; sb_threshold = 16; sb_max_blocks = 8;
      block_succ = Hashtbl.create 1024; formed = Hashtbl.create 64;
      fuse_next = Array.make (Soc.code_cache_size / 4) false;
      guest_cover =
        Bytes.make ((Soc.page_pool_base - Soc.kernel_base) / 4) '\000';
      pending_flush = false; store = None;
      traces_formed = 0; fusions_applied = 0; cache_warm_hits = 0;
      invalidations = 0; flushes = 0;
      sb_certify = None; certify_rejects = 0; smc_map = None;
      probe_exempt = Array.make (Soc.code_cache_size / 4) false;
      probes_elided = 0; deadline_ns = max_int; span_cut = -1 }
  in
  let m3 = soc.Soc.m3 in
  let mem = soc.Soc.mem in
  (* the untraced closures are the seed's hot path, byte for byte: the
     run loop only hands [env_traced] to the executor while the flight
     recorder is enabled, so tracing costs nothing when it is off *)
  let load addr nbytes =
    if Soc.is_cpu_private addr then begin
      charge t cost_gic_fault;
      t.cb.on_gic_access ~write:false addr 0
    end
    else if Mem.in_ram mem addr then begin
      Core.charge_stall m3 (Cache.access m3.Core.cache ~write:false addr);
      if nbytes = 4 then Mem.ram_read32 mem addr
      else Mem.ram_read mem addr nbytes
    end
    else begin
      Core.charge m3 m3.Core.p.Core.mmio_penalty;
      Mem.read mem addr nbytes
    end
  in
  let store addr nbytes v =
    if Soc.is_cpu_private addr then begin
      charge t cost_gic_fault;
      ignore (t.cb.on_gic_access ~write:true addr v)
    end
    else if Mem.in_ram mem addr then begin
      Core.charge_stall m3 (Cache.access m3.Core.cache ~write:true addr);
      if nbytes = 4 then Mem.ram_write32 mem addr v
      else Mem.ram_write mem addr nbytes v;
      (* superblock store-invalidation probe: host-only (no simulated
         charges), so the seed tiers' timelines are untouched. The
         image-span gate is inline so the overwhelmingly common
         data-region store pays two compares, not a call; the widened
         lower bound covers a store whose tail word straddles into the
         image. *)
      if
        t.superblock
        && addr + nbytes > Soc.kernel_base
        && addr < Soc.page_pool_base
      then sb_store_check t addr nbytes
    end
    else begin
      Core.charge m3 m3.Core.p.Core.mmio_penalty;
      Mem.write mem addr nbytes v
    end
  in
  let load_traced addr nbytes =
    if Soc.is_cpu_private addr then begin
      (* gic-private accesses surface as controller events, not reads *)
      charge t cost_gic_fault;
      t.cb.on_gic_access ~write:false addr 0
    end
    else if Mem.in_ram mem addr then begin
      let stall = Cache.access m3.Core.cache ~write:false addr in
      Core.charge_stall m3 stall;
      Tk_stats.Trace.emit tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_read addr stall;
      if nbytes = 4 then Mem.ram_read32 mem addr
      else Mem.ram_read mem addr nbytes
    end
    else begin
      Core.charge m3 m3.Core.p.Core.mmio_penalty;
      Tk_stats.Trace.emit tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_read addr m3.Core.p.Core.mmio_penalty;
      Mem.read mem addr nbytes
    end
  in
  let store_traced addr nbytes v =
    if Soc.is_cpu_private addr then begin
      charge t cost_gic_fault;
      ignore (t.cb.on_gic_access ~write:true addr v)
    end
    else if Mem.in_ram mem addr then begin
      let stall = Cache.access m3.Core.cache ~write:true addr in
      Core.charge_stall m3 stall;
      Tk_stats.Trace.emit tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_write addr stall;
      if nbytes = 4 then Mem.ram_write32 mem addr v
      else Mem.ram_write mem addr nbytes v;
      if
        t.superblock
        && addr + nbytes > Soc.kernel_base
        && addr < Soc.page_pool_base
      then sb_store_check t addr nbytes
    end
    else begin
      Core.charge m3 m3.Core.p.Core.mmio_penalty;
      Tk_stats.Trace.emit tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_write addr m3.Core.p.Core.mmio_penalty;
      Mem.write mem addr nbytes v
    end
  in
  let svc cpu n = dispatch t cpu n in
  let wfi _ = raise (Host_error "host wfi in translated code") in
  let irq_ret _ = raise (Host_error "host exception return in translated code") in
  let undef _ i =
    raise (Host_error ("host undef: " ^ Types.to_string i))
  in
  t.env <- { Exec.load; store; svc; wfi; irq_ret; undef };
  t.env_traced <-
    { Exec.load = load_traced; store = store_traced; svc; wfi; irq_ret;
      undef };
  (* telemetry gauges: translation-cache occupancy and engine work.
     add_gauge replaces by name, so a second engine on the same SoC
     re-binds these columns instead of duplicating them. *)
  let gauge = Tk_stats.Timeseries.add_gauge soc.Soc.sampler in
  gauge "dbt_blocks" (fun () -> t.blocks);
  gauge "dbt_host_words" (fun () -> (t.cursor - Soc.code_cache_base) asr 2);
  gauge "dbt_patches" (fun () -> t.patches);
  gauge "dbt_exits" (fun () -> t.engine_exits);
  gauge "dbt_host_retired" (fun () -> t.host_executed);
  (* superblock counters (warm hits intentionally absent: warm and cold
     manifests must stay byte-identical) *)
  gauge "dbt_traces" (fun () -> t.traces_formed);
  gauge "dbt_fusions" (fun () -> t.fusions_applied);
  (* span-tracer attribution gauges ride on Span, not the sampler: the
     golden manifest digests pin the sampler's column set *)
  Tk_stats.Span.add_gauge soc.Soc.spans "translate_cycles" (fun () ->
      t.translate_cycles);
  t

(* --------------------- superblock store probe ------------------------ *)

(* A guest store into code some translation consumed: a single store can
   straddle two words, and the consumed span can belong to the middle of
   a formed trace, so the probe checks both words against the dense
   cover map and schedules a whole-cache eviction (consumed at the next
   block/trace boundary — the translated-code analogue of the
   interpreter's invalidate-on-store / take-effect-on-next-fetch).
   Stores issued from code proven SMC-clean (the executing word is
   marked in [probe_exempt]) skip the probe entirely — clean code cannot
   hit covered words by construction. *)
and sb_check_word t w =
  if Soc.in_kernel_image w
     && Bytes.unsafe_get t.guest_cover ((w - Soc.kernel_base) asr 2) <> '\000'
  then begin
    t.pending_flush <- true;
    t.invalidations <- t.invalidations + 1;
    if t.tr.Tk_stats.Trace.enabled then
      Tk_stats.Trace.emit t.tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_invalidate w 0
  end

and sb_store_check t addr nbytes =
  if Array.unsafe_get t.probe_exempt ((t.cur_pc - Soc.code_cache_base) asr 2)
  then t.probes_elided <- t.probes_elided + 1
  else begin
    let w0 = addr land lnot 3 in
    sb_check_word t w0;
    let w1 = (addr + nbytes - 1) land lnot 3 in
    if w1 <> w0 then sb_check_word t w1
  end

(* ------------------------- code emission ---------------------------- *)

and write_host t addr (i : inst) =
  let w = V7m.encode_exn i in
  (* emitting through the M3 cache: translation produces real traffic *)
  Core.charge t.soc.Soc.m3
    (Cache.access t.soc.Soc.m3.Core.cache ~write:true addr);
  Mem.ram_write32 t.soc.Soc.mem addr w;
  (* pre-decode the freshly written word; a word that does not decode
     (impossible for encode_exn output, but kept equivalent to the lazy
     seed path) is left for decode_host to report at execution time *)
  t.host_decode.((addr - Soc.code_cache_base) asr 2) <-
    (match V7m.decode w with
    | i -> Exec.decoded i
    | exception _ -> Exec.undecoded)

(* Install a translation under guest [gpc] — a block, or a formed trace
   under its head: charge the simulated translation cost, emit it at the
   cursor and register its host start in every map. The superblock tier
   also marks the new code's fusable pairs. Returns the host start. *)
and install t gpc (b : Translator.block) =
  let cost = cost_translate_per_guest * b.Translator.b_guest_count in
  t.translate_cycles <- t.translate_cycles + cost;
  charge t cost;
  let h = t.cursor in
  List.iter
    (fun e ->
      let a = t.cursor in
      (match e with
      | Translator.E_inst i -> write_host t a i
      | Translator.E_site (cond, info, code) ->
        write_host t a (at ~cond (Svc code));
        Hashtbl.replace t.sites a info;
        (match info with
        | Translator.S_call { ret_guest; _ }
        | Translator.S_indirect { ret_guest; _ } ->
          Hashtbl.replace t.host_points (a + 4) ret_guest
        | Translator.S_emu { resume_guest; _ }
        | Translator.S_hook { resume_guest; _ }
        | Translator.S_guest_svc { resume_guest; _ } ->
          Hashtbl.replace t.host_points (a + 4) resume_guest
        | Translator.S_jump _ | Translator.S_tail _ | Translator.S_exit_pc
        | Translator.S_fallback _ -> ()));
      t.cursor <- t.cursor + 4;
      t.host_emitted <- t.host_emitted + 1)
    b.Translator.b_emits;
  if t.cursor >= Soc.code_cache_base + Soc.code_cache_size then
    raise (Host_error "code cache full");
  Hashtbl.replace t.block_map gpc h;
  Hashtbl.replace t.block_starts h gpc;
  t.block_start.((h - Soc.code_cache_base) asr 2) <- true;
  Hashtbl.replace t.host_points h gpc;
  Hashtbl.replace t.block_size h
    (b.Translator.b_guest_count, (t.cursor - h) asr 2);
  if t.superblock then sb_mark_fusions t h t.cursor;
  h

and read_guest t a =
  if not (Mem.in_ram t.soc.Soc.mem a) then
    raise (Host_error (Printf.sprintf "guest fetch outside RAM: 0x%x" a));
  V7a.decode (Mem.ram_read t.soc.Soc.mem a 4)

and translate_block t gpc =
  match Hashtbl.find_opt t.block_map gpc with
  | Some h -> h
  | None ->
    (* lazy warm replay: the store is consulted at the very instant a
       cold run would translate, and the simulated translation cost is
       still charged, so the warm timeline (and manifest digest) is
       byte-identical — only the host-side translation work is skipped *)
    let warm =
      match t.store with
      | None -> None
      | Some st -> Cache_store.find_block st gpc
    in
    let b =
      match warm with
      | Some b ->
        t.cache_warm_hits <- t.cache_warm_hits + 1;
        b
      | None ->
        let ctx =
          { Translator.mode = t.mode; classify_target = t.classify_target;
            block_limit = t.block_limit; read_guest = read_guest t;
            legalize = Translator.default_legalize }
        in
        let b = Translator.translate ctx ~gpc in
        (match t.store with
        | Some st -> Cache_store.record_block st gpc b
        | None -> ());
        b
    in
    (* span: the translation burst covers the simulated translation
       charge; back-to-back misses coalesce into one burst span *)
    let sp = t.soc.Soc.spans in
    let stok =
      if sp.Tk_stats.Span.enabled then
        Tk_stats.Span.enter_coalesced sp ~core:Tk_stats.Trace.core_m3
          Tk_stats.Span.sk_dbt_translate b.Translator.b_guest_count
      else 0
    in
    let h = install t gpc b in
    t.blocks <- t.blocks + 1;
    t.guest_translated <- t.guest_translated + b.Translator.b_guest_count;
    if t.superblock then begin
      sb_mark_cover t gpc b.Translator.b_guest_count;
      sb_record_succ t b;
      if sb_span_clean t gpc b.Translator.b_guest_count then
        sb_mark_exempt t h t.cursor
    end;
    if t.tr.Tk_stats.Trace.enabled then
      Tk_stats.Trace.emit t.tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_translate gpc b.Translator.b_guest_count;
    if sp.Tk_stats.Span.enabled then Tk_stats.Span.leave sp stok;
    h

(* --------------------- superblock bookkeeping ----------------------- *)

and sb_mark_cover t gpc count =
  for k = 0 to count - 1 do
    let a = gpc + (4 * k) in
    if Soc.in_kernel_image a then
      Bytes.unsafe_set t.guest_cover ((a - Soc.kernel_base) asr 2) '\001'
  done

(* is every guest word of the span proven SMC-clean? (vacuously false
   with no map installed, and for any word outside the image span) *)
and sb_span_clean t gpc count =
  match t.smc_map with
  | None -> false
  | Some map ->
    let clean = ref true in
    for k = 0 to count - 1 do
      let a = gpc + (4 * k) in
      if
        not
          (Soc.in_kernel_image a
          && Bytes.unsafe_get map ((a - Soc.kernel_base) asr 2) <> '\000')
      then clean := false
    done;
    !clean

and sb_mark_exempt t lo hi =
  Array.fill t.probe_exempt
    ((lo - Soc.code_cache_base) asr 2)
    ((hi - lo) asr 2) true

(* chain statistics: a block whose terminal is an always-taken direct
   transfer has a statically-known successor *)
and sb_record_succ t (b : Translator.block) =
  match List.rev b.Translator.b_emits with
  | Translator.E_site
      (AL, (Translator.S_tail { target } | Translator.S_jump { target }), _)
    :: _ ->
    Hashtbl.replace t.block_succ b.Translator.b_guest_start target
  | _ -> ()

(* Table 4 macro-op idioms over the emitted host stream: compare +
   conditional control, load + dependent ALU, movw + movt. The second
   element of a marked pair executes in the same issue slot as the
   first: it keeps its instruction count and cache traffic but the base
   CPI is waived (see the superblock run loop). Pair shapes survive
   patching — the first element is never a site, and a patched site only
   turns an SVC into a branch, which stays in the control class. *)
and sb_pair_fusable (a : inst) (b : inst) =
  match a.op, b.op with
  | Dp ((CMP | CMN | TST | TEQ), _, _, _, _), (B _ | Bl _ | Svc _) -> true
  | Mem { ld = true; rt; _ }, Dp (_, _, rd, rn, op2) when rt <> pc && rd <> pc
    ->
    rn = rt
    || (match op2 with
       | Reg r | Sreg (r, _, _) -> r = rt
       | Sregreg (r, _, rs) -> r = rt || rs = rt
       | Imm _ -> false)
  | Movw (rd, _), Movt (rd', _) -> rd = rd' && rd <> pc
  | _ -> false

and sb_mark_fusions t lo hi =
  let i0 = (lo - Soc.code_cache_base) asr 2 in
  let i1 = (hi - Soc.code_cache_base) asr 2 in
  let k = ref i0 in
  (* greedy non-overlapping pairing, left to right *)
  while !k < i1 - 1 do
    let fusable =
      let a = Array.unsafe_get t.host_decode !k in
      let b = Array.unsafe_get t.host_decode (!k + 1) in
      a != Exec.undecoded && b != Exec.undecoded
      && sb_pair_fusable a.Exec.inst b.Exec.inst
    in
    if fusable then begin
      Array.unsafe_set t.fuse_next !k true;
      t.fusions_applied <- t.fusions_applied + 1;
      k := !k + 2
    end
    else incr k
  done

(* whole-cache eviction: the translated-code invalidation granularity.
   Blocks, traces, chain links, fusion marks and the cover map all go;
   counters survive. The persistent store is dropped too — a
   self-modified image no longer matches its on-disk key. *)
and flush_cache t =
  t.cursor <- Soc.code_cache_base;
  Hashtbl.reset t.block_map;
  Hashtbl.reset t.block_starts;
  Hashtbl.reset t.sites;
  Hashtbl.reset t.host_points;
  Hashtbl.reset t.block_dispatch;
  Hashtbl.reset t.block_size;
  Hashtbl.reset t.block_succ;
  Hashtbl.reset t.formed;
  Array.fill t.host_decode 0 (Array.length t.host_decode) Exec.undecoded;
  Array.fill t.block_start 0 (Array.length t.block_start) false;
  Array.fill t.block_exec 0 (Array.length t.block_exec) 0;
  Array.fill t.fuse_next 0 (Array.length t.fuse_next) false;
  Array.fill t.probe_exempt 0 (Array.length t.probe_exempt) false;
  Bytes.fill t.guest_cover 0 (Bytes.length t.guest_cover) '\000';
  t.pending_flush <- false;
  t.flushes <- t.flushes + 1;
  t.store <- None;
  (* the clean map was proven over the pristine image; after guest
     self-modification it no longer describes what will be fetched *)
  t.smc_map <- None

(* ----------------------- superblock formation ----------------------- *)

(* walk the always-taken chain from [head] through already-translated,
   distinct blocks *)
and sb_chain_of t head =
  let chain = ref [ head ] and len = ref 1 in
  let cur = ref head in
  (try
     while !len < t.sb_max_blocks do
       match Hashtbl.find_opt t.block_succ !cur with
       | Some next
         when Hashtbl.mem t.block_map next && not (List.mem next !chain) ->
         chain := next :: !chain;
         incr len;
         cur := next
       | _ -> raise Exit
     done
   with Exit -> ());
  List.rev !chain

and sb_try_form t head =
  let chain = sb_chain_of t head in
  if List.length chain >= 2 then begin
    let certified p =
      match t.sb_certify with
      | None -> true
      | Some ok ->
        ok p
        ||
        (t.certify_rejects <- t.certify_rejects + 1;
         false)
    in
    match
      let warm =
        match t.store with
        | None -> None
        | Some st -> Cache_store.find_trace st head
      in
      let fresh () =
        let p =
          Superblock.plan ~read_guest:(read_guest t)
            ~classify_target:t.classify_target ~block_limit:t.block_limit
            ~chain
        in
        (* a fresh plan failing certification aborts formation outright:
           no charge, no emission, and [formed] one-shots the head so
           the rejected chain is never retried *)
        if not (certified p) then raise (Superblock.Abort "certify");
        (match t.store with
        | Some st -> Cache_store.record_trace st p
        | None -> ());
        p
      in
      match warm with
      | Some p when List.map fst p.Superblock.p_blocks = chain ->
        if certified p then begin
          t.cache_warm_hits <- t.cache_warm_hits + 1;
          p
        end
        else begin
          (* warm plan refused: evict it from the store and re-derive
             from the guest stream (cache_store certificate gating) *)
          (match t.store with
          | Some st -> Hashtbl.remove st.Cache_store.traces head
          | None -> ());
          fresh ()
        end
      | _ -> fresh ()
    with
    | exception Superblock.Abort _ -> ()
    | p ->
      (* forming re-derives every constituent's translation *)
      let sp = t.soc.Soc.spans in
      let stok =
        if sp.Tk_stats.Span.enabled then
          Tk_stats.Span.enter_coalesced sp ~core:Tk_stats.Trace.core_m3
            Tk_stats.Span.sk_dbt_form p.Superblock.p_guest_count
        else 0
      in
      let old_h = Hashtbl.find t.block_map head in
      let h =
        install t head
          { Translator.b_guest_start = head;
            b_guest_count = p.Superblock.p_guest_count;
            b_emits = p.Superblock.p_emits }
      in
      t.traces_formed <- t.traces_formed + 1;
      if
        List.for_all
          (fun (g, c) -> sb_span_clean t g c)
          p.Superblock.p_blocks
      then sb_mark_exempt t h t.cursor;
      (* redirect the old head into the trace: its first word becomes a
         branch, so chained predecessors and saved resume points all
         land in the trace from now on *)
      patch t old_h (at (B (h - old_h)));
      if t.tr.Tk_stats.Trace.enabled then
        Tk_stats.Trace.emit t.tr ~core:Tk_stats.Trace.core_m3
          Tk_stats.Trace.ev_form head p.Superblock.p_guest_count;
      if sp.Tk_stats.Span.enabled then Tk_stats.Span.leave sp stok
  end

(* Block-boundary work for the run loop, out of line so the loop body
   stays register-tight: consume a pending whole-cache flush (landing on
   the retranslated head — itself a block start, hence the
   self-recursion), bump the block's execution count, fire the
   superblock tier's one-shot trace formation when the count reaches
   the threshold, and open the IRQ window. Returns the host pc to
   execute at (different from [pcv] only after a flush redirect). *)
and block_boundary t (cpu : Exec.cpu) pcv idx =
  if t.pending_flush then begin
    (* read the guest mapping before the flush wipes it *)
    let gpc = Hashtbl.find t.block_starts pcv in
    flush_cache t;
    let h = translate_block t gpc in
    cpu.Exec.r.(pc) <- h;
    block_boundary t cpu h ((h - Soc.code_cache_base) asr 2)
  end
  else begin
    let c = Array.unsafe_get t.block_exec idx + 1 in
    Array.unsafe_set t.block_exec idx c;
    if t.superblock && c = t.sb_threshold then begin
      let gpc = Hashtbl.find t.block_starts pcv in
      if not (Hashtbl.mem t.formed gpc) then begin
        Hashtbl.replace t.formed gpc ();
        sb_try_form t gpc
        (* no manual redirect: the old head's first word is now a
           branch into the trace, picked up by this very fetch *)
      end
    end;
    if t.irq_dispatch then t.cb.on_irq_window cpu;
    pcv
  end

(* patch a resolved direct branch/call site *)
and patch t site_addr (i : inst) =
  write_host t site_addr i;
  Hashtbl.remove t.sites site_addr;
  t.patches <- t.patches + 1;
  charge t cost_patch;
  if t.tr.Tk_stats.Trace.enabled then
    Tk_stats.Trace.emit t.tr ~core:Tk_stats.Trace.core_m3
      Tk_stats.Trace.ev_chain site_addr 0

and set_pc t (cpu : Exec.cpu) v =
  cpu.Exec.r.(pc) <- v;
  t.pc_overridden <- true

(* jump to a translated block through the dispatch slow path; the
   profiler counts these to compute each block's chain hit rate *)
and goto_block t (cpu : Exec.cpu) h =
  if t.profile then
    Hashtbl.replace t.block_dispatch h
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.block_dispatch h));
  set_pc t cpu h

(* --------------------------- dispatch ------------------------------- *)

and dispatch t cpu _code =
  charge t cost_dispatch;
  t.engine_exits <- t.engine_exits + 1;
  let site_addr = t.cur_pc in
  match Hashtbl.find_opt t.sites site_addr with
  | None -> raise (Host_error (Printf.sprintf "stray svc at 0x%x" site_addr))
  | Some info -> (
    match info with
    | Translator.S_call { target; ret_guest = _ } ->
      let h = translate_block t target in
      let off = h - site_addr in
      let cond = (decode_host t site_addr).Exec.inst.cond in
      if t.chain && Result.is_ok (V7m.encode (at ~cond (Bl off))) then
        patch t site_addr (at ~cond (Bl off));
      cpu.Exec.r.(lr) <- site_addr + 4;
      goto_block t cpu h
    | Translator.S_jump { target } ->
      let h = translate_block t target in
      let cond = (decode_host t site_addr).Exec.inst.cond in
      let off = h - site_addr in
      if t.chain && Result.is_ok (V7m.encode (at ~cond (B off))) then
        patch t site_addr (at ~cond (B off));
      goto_block t cpu h
    | Translator.S_tail { target } ->
      let h = translate_block t target in
      let off = h - site_addr in
      if t.chain && Result.is_ok (V7m.encode (at (B off))) then
        patch t site_addr (at (B off));
      goto_block t cpu h
    | Translator.S_emu { name; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_emu name cpu
    | Translator.S_hook { name; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_hook name cpu
    | Translator.S_indirect { reg; ret_guest = _ } ->
      charge t cost_exit_pc;
      let target = guest_reg t cpu reg in
      let h = translate_block t target in
      cpu.Exec.r.(lr) <- site_addr + 4;
      goto_block t cpu h
    | Translator.S_exit_pc ->
      charge t cost_exit_pc;
      let gtarget = Mem.ram_read t.soc.Soc.mem Layout.env_next_pc 4 in
      if gtarget = Layout.exit_magic then begin
        set_pc t cpu Layout.exit_magic
      end
      else begin
        let h = translate_block t gtarget in
        goto_block t cpu h
      end
    | Translator.S_guest_svc { n; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_guest_svc n cpu
    | Translator.S_fallback { reason; gpc; skippable } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_fallback reason ~guest_pc:gpc ~skippable cpu)

and decode_host t addr =
  let cached = t.host_decode.((addr - Soc.code_cache_base) asr 2) in
  if cached != Exec.undecoded then cached
  else begin
    let w = Mem.ram_read32 t.soc.Soc.mem addr in
    let d =
      match V7m.decode w with
      | i -> Exec.decoded i
      | exception (V7m.Decode_error _ | Invalid_argument _) ->
        raise (Host_error (Printf.sprintf "bad host fetch at 0x%x (0x%x)" addr w))
    in
    t.host_decode.((addr - Soc.code_cache_base) asr 2) <- d;
    d
  end

(* -------------------- guest-state accessors ------------------------- *)

(** [guest_reg t cpu i] reads guest register [i] for the current mode
    (pass-through, scratch-emulated or env-emulated). *)
and guest_reg t (cpu : Exec.cpu) i =
  match t.mode with
  | Translator.Ark ->
    if i = Rules.scratch then Mem.ram_read32 t.soc.Soc.mem Layout.env_r10
    else cpu.Exec.r.(i)
  | Translator.Mid ->
    if i = 10 || i = 11 || i = sp || i = lr then
      Mem.ram_read32 t.soc.Soc.mem (Layout.env_reg i)
    else cpu.Exec.r.(i)
  | Translator.Baseline -> Mem.ram_read32 t.soc.Soc.mem (Layout.env_reg i)

let set_guest_reg t (cpu : Exec.cpu) i v =
  match t.mode with
  | Translator.Ark ->
    if i = Rules.scratch then Mem.ram_write32 t.soc.Soc.mem Layout.env_r10 v
    else cpu.Exec.r.(i) <- Bits.mask32 v
  | Translator.Mid ->
    if i = 10 || i = 11 || i = sp || i = lr then
      Mem.ram_write32 t.soc.Soc.mem (Layout.env_reg i) v
    else cpu.Exec.r.(i) <- Bits.mask32 v
  | Translator.Baseline ->
    Mem.ram_write32 t.soc.Soc.mem (Layout.env_reg i) v

(* ----------------------- SMC-clean region map ------------------------ *)

(** [set_smc_map t ranges] installs the SMC-clean map from proven guest
    address intervals [\[lo, hi)] (kernel-image addresses, word-aligned):
    translations emitted entirely from clean words skip the per-word
    store-invalidation probe. The map describes the pristine image — it
    is dropped (with the whole cache) if the guest self-modifies. *)
let set_smc_map t ranges =
  let map = Bytes.make ((Soc.page_pool_base - Soc.kernel_base) / 4) '\000' in
  List.iter
    (fun (lo, hi) ->
      let lo = max lo Soc.kernel_base and hi = min hi Soc.page_pool_base in
      for k = (lo - Soc.kernel_base) asr 2 to ((hi - Soc.kernel_base) asr 2) - 1
      do
        Bytes.unsafe_set map k '\001'
      done)
    ranges;
  t.smc_map <- Some map

(* ----------------------------- run ---------------------------------- *)

(* The engine's one run loop, for every mode (Ark, Mid, Baseline) and
   both tiers.

   - The loop-head probe (quantum deadline, exit sentinel, cache bounds,
     block start) only runs after a control transfer or a callback pc
     override. Every translated block and formed trace ends in an
     unconditional control transfer — an engine site or a pc-writing
     host instruction (test_dbt pins this) — so straight-line
     fall-through can never reach the exit sentinel, leave the cache,
     or cross into another block's head. {!Quantum} is raised only
     there, before the iteration touches any state.
   - A pending whole-cache flush (self-modifying guest) is consumed at
     the probe, before the block's fetch — the next-boundary semantics
     matching the interpreter's next-fetch granularity.
   - The boundary work lives out of line in {!block_boundary}, and the
     per-instruction retire accounting ([Core.retire] and its
     [charge]/[Clock.advance] call chain) is inlined, keeping the loop
     body register-tight. The body itself allocates nothing, but a
     retired instruction is not allocation-free: every data-cache hit
     goes through [Core.charge_stall] to [Clock.run_due], whose local
     recursive closure accounts for nearly all of the ~2.3 minor words
     allocated per simulated instruction.
   - Each instruction runs as its pre-decoded slot's compiled closure
     ({!Exec.compile}), with its operands resolved at decode time.
   - A host word marked in [fuse_next] (superblock tier) makes the next
     iteration a fused slot: the partner issues with its predecessor,
     keeping its instruction count and its cache traffic but not its
     base CPI, and it skips the fuel count, the sampler tick and the
     probe.

   Inside a formed trace there are no block starts, so interior
   boundaries pay no probe, no dispatch and no IRQ window — interrupt
   latency is bounded by the trace length (sb_max_blocks * block_limit
   guest instructions). *)
let run_loop t (cpu : Exec.cpu) ~fuel =
  let m3 = t.soc.Soc.m3 in
  let cache = m3.Core.cache in
  let tags = cache.Cache.tags in
  let line_bits = cache.Cache.line_bits in
  let set_mask = cache.Cache.set_mask in
  let clock = m3.Core.clock in
  let cpi_num = m3.Core.p.Core.cpi_num in
  let cpi_den = m3.Core.p.Core.cpi_den in
  let tr = t.tr in
  (* tracing and sampling never toggle while translated code is
     executing, so both decisions are hoisted: the disabled loop tests
     only immutable register-resident bools and runs the untraced
     environment *)
  let traced = tr.Tk_stats.Trace.enabled in
  let env = if traced then t.env_traced else t.env in
  let ts = t.soc.Soc.sampler in
  let sampling = ts.Tk_stats.Timeseries.enabled in
  let r = cpu.Exec.r in
  let n = ref 0 in
  let cur = ref 0 in
  let cur_idx = ref 0 in
  let probe = ref true in
  let fused = ref false in
  while true do
    let partner = !fused in
    if partner then fused := false
    else begin
      if !n >= fuel then raise (Host_error "DBT fuel exhausted");
      incr n;
      (* quantum check before the sampler tick so an unwound iteration
         leaves no trace: the resumed iteration re-runs from here *)
      if !probe && clock.Clock.now >= t.deadline_ns then raise Quantum;
      if sampling then Tk_stats.Timeseries.tick ts;
      if !probe then begin
        let v = Array.unsafe_get r pc in
        if v = Layout.exit_magic then raise Context_exit;
        if not (in_cache t v) then
          raise
            (Host_error (Printf.sprintf "host pc outside code cache: 0x%x" v));
        let i0 = (v - Soc.code_cache_base) asr 2 in
        let v' =
          if Array.unsafe_get t.block_start i0 then block_boundary t cpu v i0
          else v
        in
        cur := v';
        cur_idx := (if v' = v then i0 else (v' - Soc.code_cache_base) asr 2);
        probe := false
      end
    end;
    let pcv = !cur and idx = !cur_idx in
    let d =
      let c = Array.unsafe_get t.host_decode idx in
      if c != Exec.undecoded then c else decode_host t pcv
    in
    t.cur_pc <- pcv;
    t.pc_overridden <- false;
    t.host_executed <- t.host_executed + 1;
    (* [Core.retire m3 pcv], inlined with its charge/advance call chain
       and the CPI carry resolution — side effects and cycle arithmetic
       identical (count, I-fetch through the cache, then base CPI +
       stall booked to the clock). A fused partner books no base CPI,
       which leaves exactly [Core.charge_stall m3 stall]. *)
    m3.Core.instructions <- m3.Core.instructions + 1;
    (* I-fetch hit fast path of [Cache.access ~write:false], inlined; a
       tag mismatch falls back to the full call, which re-runs the
       (still-missing) lookup and books the miss identically *)
    let stall =
      let line = pcv lsr line_bits in
      let set =
        if set_mask >= 0 then line land set_mask
        else line mod cache.Cache.nsets
      in
      if Array.unsafe_get tags set = line then begin
        cache.Cache.hits <- cache.Cache.hits + 1;
        0
      end
      else Cache.access cache ~write:false pcv
    in
    if stall <> 0 then m3.Core.stall_cycles <- m3.Core.stall_cycles + stall;
    let base =
      if partner then 0
      else if cpi_num = 0 then 1
      else begin
        let acc = m3.Core.cpi_acc + cpi_num in
        if acc < cpi_den then begin m3.Core.cpi_acc <- acc; 1 end
        else if acc < 2 * cpi_den then begin
          m3.Core.cpi_acc <- acc - cpi_den; 2
        end
        else if acc < 3 * cpi_den then begin
          m3.Core.cpi_acc <- acc - (2 * cpi_den); 3
        end
        else begin
          m3.Core.cpi_acc <- acc mod cpi_den;
          1 + (acc / cpi_den)
        end
      end
    in
    let cycles = base + stall in
    m3.Core.busy_cycles <- m3.Core.busy_cycles + cycles;
    let dps = cycles * m3.Core.ps_per_cycle in
    let ps = dps + m3.Core.frac_ps in
    m3.Core.busy_ps <- m3.Core.busy_ps + dps;
    let q =
      if ps < 0x1_0000_0000 then (ps * 274877907) asr 38 else ps / 1000
    in
    m3.Core.frac_ps <- ps - (q * 1000);
    clock.Clock.now <- clock.Clock.now + q;
    if clock.Clock.next_at <= clock.Clock.now then Clock.run_due clock;
    if traced then
      Tk_stats.Trace.emit tr ~core:Tk_stats.Trace.core_m3
        Tk_stats.Trace.ev_retire pcv 0;
    match d.Exec.run cpu env pcv with
    | Exec.Next ->
      if t.pc_overridden then probe := true
      else begin
        Array.unsafe_set r pc (pcv + 4);
        cur := pcv + 4;
        cur_idx := idx + 1;
        (* greedy pairing never marks a partner, so a fused slot is
           never itself followed by one *)
        fused := Array.unsafe_get t.fuse_next idx
      end
    | Exec.Branched ->
      Core.charge m3 cost_taken_branch;
      probe := true
  done

(** [run t cpu ~fuel] executes translated code until the context returns
    to {!Layout.exit_magic} (raising {!Context_exit}) or a callback
    raises. The [cpu] is mutated in place; callbacks observe a host pc
    that is always a valid resume point. *)
let run t cpu ~fuel =
  (* one execution-burst span per engine entry; the loop only exits by
     exception (Context_exit, fallback, host error), so the close rides
     in [~finally]. A burst cut by {!Quantum} reopens coalesced on
     resume (zero simulated time passes across the cut, and nothing
     else records in between), so the span stream is the sequential
     one at every quantum. *)
  let sp = t.soc.Soc.spans in
  if sp.Tk_stats.Span.enabled then begin
    let cut = t.span_cut in
    t.span_cut <- -1;
    let tok =
      if cut >= 0 then
        Tk_stats.Span.reopen sp ~core:Tk_stats.Trace.core_m3
          Tk_stats.Span.sk_run ~slot:cut 0
      else
        Tk_stats.Span.enter sp ~core:Tk_stats.Trace.core_m3
          Tk_stats.Span.sk_run 0
    in
    Fun.protect
      ~finally:(fun () -> Tk_stats.Span.leave sp tok)
      (fun () ->
        try run_loop t cpu ~fuel
        with Quantum ->
          t.span_cut <- Tk_stats.Span.slot_of sp tok;
          raise Quantum)
  end
  else run_loop t cpu ~fuel

(** [entry_host t gpc] — host address for guest entry [gpc], translating
    on demand (used by ARK to start contexts). *)
let entry_host t gpc = translate_block t gpc

(** [guest_point_of_host t haddr] — guest address for a saved host resume
    point, for fallback migration. *)
let guest_point_of_host t haddr = Hashtbl.find_opt t.host_points haddr

(* ------------------------ hot-block profiler ------------------------- *)

type block_profile = {
  bp_guest : int;  (** guest block start address *)
  bp_host : int;  (** host (code-cache) block start address *)
  bp_execs : int;  (** times the hot loop entered this block *)
  bp_dispatches : int;  (** entries through the dispatch slow path *)
  bp_guest_insts : int;  (** guest instructions translated *)
  bp_host_words : int;  (** host words emitted (incl. engine sites) *)
}

(** [chain_rate bp] — fraction of entries into the block that arrived
    via a chained (patched) direct branch rather than the dispatch slow
    path. *)
let chain_rate bp =
  if bp.bp_execs = 0 then 0.0
  else float_of_int (bp.bp_execs - bp.bp_dispatches)
       /. float_of_int bp.bp_execs

(** [profile_blocks t] — per-block profile rows, hottest first. Only
    meaningful after a run with [t.profile] set. *)
let profile_blocks t =
  let rows =
    Hashtbl.fold
      (fun h gpc acc ->
        let idx = (h - Soc.code_cache_base) asr 2 in
        let execs = t.block_exec.(idx) in
        let dispatches =
          Option.value ~default:0 (Hashtbl.find_opt t.block_dispatch h)
        in
        let gi, hw =
          Option.value ~default:(0, 0) (Hashtbl.find_opt t.block_size h)
        in
        { bp_guest = gpc; bp_host = h; bp_execs = execs;
          bp_dispatches = dispatches; bp_guest_insts = gi;
          bp_host_words = hw }
        :: acc)
      t.block_starts []
  in
  List.sort (fun a b -> compare (b.bp_execs, b.bp_guest) (a.bp_execs, a.bp_guest)) rows
