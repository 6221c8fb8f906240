(** The DBT execution engine on the peripheral core.

    Owns the code cache (a region of shared DRAM), the guest->host block
    map, the site table, direct-branch patching ("chaining"), and the
    host execution loop — a V7M interpreter charged against the M3 core
    model, fetching emitted words through the M3's cache and running
    each as the closure {!Exec.compile} built when it was emitted.

    The engine is policy-free: ARK supplies {!callbacks} for emulated
    services, hooks, guest hypercalls, interrupt windows and fallback.
    Callbacks may raise to take control; the engine always leaves the
    context's host pc at the correct resume point first. *)

open Tk_isa
open Tk_machine

type callbacks = {
  mutable on_emu : string -> Exec.cpu -> unit;
  mutable on_hook : string -> Exec.cpu -> unit;
  mutable on_guest_svc : int -> Exec.cpu -> unit;
  mutable on_fallback :
    string -> guest_pc:int -> skippable:bool -> Exec.cpu -> unit;
      (** returning normally skips the cold call (drain mode) *)
  mutable on_irq_window : Exec.cpu -> unit;
      (** invoked at translation-block boundaries (§4.2) *)
  mutable on_gic_access : write:bool -> int -> int -> int;
      (** MPU-fault emulation of the CPU's interrupt controller:
          [on_gic_access ~write addr value] returns the read value *)
}

exception Context_exit
(** the context returned to {!Layout.exit_magic}: its entry call is done *)

exception Host_error of string
(** engine invariant violation (bad host fetch, cache overflow, ...) *)

exception Quantum
(** the M3 clock reached [deadline_ns] (bounded-quantum lockstep): the
    run loop unwound at its next probe point — after a control transfer
    or a callback pc override, before the next instruction touches any
    state — with the context's pc saved, so a later {!run} with the same
    cpu resumes exactly where it stopped. Never raised while
    [deadline_ns = max_int] (the default). *)

type t = {
  soc : Soc.t;
  mode : Translator.mode;
  rc : Tk_stats.Recorder.t;  (** the platform recorder, cached *)
  mutable classify_target : int -> Translator.target_class;
  cb : callbacks;
  mutable cursor : int;  (** code-cache allocation point *)
  block_map : (int, int) Hashtbl.t;  (** guest block start -> host addr *)
  block_starts : (int, int) Hashtbl.t;  (** host block start -> guest *)
  sites : (int, Translator.site_info) Hashtbl.t;  (** host addr -> site *)
  host_points : (int, int) Hashtbl.t;
      (** host addr -> guest addr for every point that can appear in a
          saved context or on the stack — fallback's rewrite map (§5.3) *)
  mutable host_decode : Exec.decoded array;
      (** dense pre-decoded code cache, indexed by
          [(addr - Soc.code_cache_base) / 4]: each slot holds the host
          instruction and its {!Exec.compile}d closure, which the hot
          loop runs; populated at emission and patch time, so every
          slot below the cursor is decoded and the others hold the
          physically distinguished {!Exec.undecoded} sentinel. This and
          the other per-word arrays ([block_start], [block_exec],
          [fuse_next]) start small and grow with the cache's high-water
          mark, one word past it. *)
  mutable block_start : bool array;
      (** dense membership set mirroring [block_starts] (same indexing),
          probed after every control transfer for the IRQ window *)
  mutable cur_pc : int;
  mutable pc_overridden : bool;
  mutable chain : bool;  (** patch direct branches (ablation knob) *)
  mutable block_limit : int;  (** guest instructions per block *)
  mutable irq_dispatch : bool;  (** ARK's spinlock emulation pauses this *)
  mutable env : Exec.env;
      (** memory closures test the flight recorder's flag inline *)
  mutable guest_translated : int;
  mutable host_emitted : int;
  mutable blocks : int;
  mutable engine_exits : int;
  mutable patches : int;
  mutable host_executed : int;
  mutable translate_cycles : int;
      (** simulated M3 cycles charged for translation / trace formation;
          a monotone attribution gauge for the span tracer *)
  mutable profile : bool;
      (** also count per-block entries through the dispatch slow path
          (host-side observability; simulated charges are unaffected).
          Block executions ([block_exec]) are counted on every run, so
          enable it before the first run for a consistent chain rate. *)
  mutable block_exec : int array;
  block_dispatch : (int, int) Hashtbl.t;
  block_size : (int, int * int) Hashtbl.t;
  (* superblock tier (above Ark; cycle-accounted, not cycle-neutral) *)
  mutable superblock : bool;
      (** the superblock tier: gates trace formation over hot block
          chains, the macro-op fusion marks and the store-invalidation
          probe (whole-trace invalidation) — every mode and tier shares
          one run loop. Only meaningful with [mode = Ark]. *)
  mutable sb_threshold : int;
      (** block executions before its chain is considered for formation *)
  block_succ : (int, int) Hashtbl.t;
      (** guest block start -> always-taken successor *)
  formed : (int, unit) Hashtbl.t;
      (** guest heads already considered for formation (one-shot) *)
  mutable fuse_next : bool array;
      (** same dense indexing as [host_decode]: word [i] issues fused
          with word [i+1] (Table 4 macro-op idioms) *)
  guest_cover : Bytes.t;
      (** per kernel-image word: non-zero if some translation consumed
          it — the multi-block store-invalidation map *)
  mutable pending_flush : bool;
      (** a guest store hit covered code; the cache is evicted at the
          next block/trace boundary *)
  mutable store : Cache_store.t option;
      (** persistent translation cache (lazy warm replay) *)
  mutable traces_formed : int;
  mutable fusions_applied : int;
  mutable cache_warm_hits : int;
      (** deliberately not a telemetry gauge: warm and cold manifests
          must stay byte-identical and this counter differs *)
  mutable invalidations : int;  (** covered words hit by guest stores *)
  mutable flushes : int;  (** whole-cache evictions performed *)
  (* the static-analysis product consumed by the tier *)
  mutable sb_certify : (Superblock.plan -> bool) option;
      (** online trace certifier: a formed (or warm-loaded) plan is
          admitted only if the hook proves it equivalent to its
          constituent blocks; [None] (default) admits everything *)
  mutable certify_rejects : int;
      (** plans refused by [sb_certify] (warm or fresh) *)
  mutable probes_elided : int;
      (** always 0: every superblock store is probed. Kept only for the
          benchmark's [superblock.probes_elided] metric *)
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

val cost_taken_branch : int
(** extra cycles per taken branch on the prediction-less M3 *)

val create : soc:Soc.t -> mode:Translator.mode -> unit -> t

val in_cache : t -> int -> bool
(** is the address inside the emitted code cache? *)

val translate_block : t -> int -> int
(** [translate_block t gpc] — host address of the block at guest [gpc],
    translating and emitting on demand *)

val entry_host : t -> int -> int
(** alias of {!translate_block} for starting contexts *)

val guest_reg : t -> Exec.cpu -> int -> int
(** read guest register [i] under the engine's mode (pass-through,
    scratch-emulated or env-emulated) *)

val set_guest_reg : t -> Exec.cpu -> int -> int -> unit

val guest_point_of_host : t -> int -> int option
(** guest address for a saved host resume point (fallback migration) *)

val run : t -> Exec.cpu -> fuel:int -> unit
(** [run t cpu ~fuel] executes translated code until the context returns
    to {!Layout.exit_magic} (raising {!Context_exit}) or a callback
    raises; [cpu] is mutated in place and is always at a valid resume
    point when callbacks fire.
    @raise Host_error on engine errors or fuel exhaustion *)

(** One row of the hot-block profiler (see {!profile_blocks}). *)
type block_profile = {
  bp_guest : int;  (** guest block start address *)
  bp_host : int;  (** host (code-cache) block start address *)
  bp_execs : int;  (** times the hot loop entered this block *)
  bp_dispatches : int;  (** entries through the dispatch slow path *)
  bp_guest_insts : int;  (** guest instructions translated *)
  bp_host_words : int;  (** host words emitted (incl. engine sites) *)
}

val chain_rate : block_profile -> float
(** fraction of block entries that arrived via a chained direct branch
    rather than the dispatch slow path *)

val profile_blocks : t -> block_profile list
(** per-block profile rows, hottest first; meaningful after a run with
    [profile] set *)
