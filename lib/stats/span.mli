(** Causal span tracer: interval-structured telemetry over the simulated
    timeline.

    Where {!Trace} records point events and {!Timeseries} records
    periodic rows, this module records {e spans} — open/close intervals
    nested on the single simulated thread — so every wakeup becomes a
    causal tree: root [wakeup] span, children for the resume phase,
    execution bursts, DBT translation bursts and per-device phase
    intervals, plus overlapping async spans for IRQ delivery latency
    and power-rail ramps.

    Each frame span snapshots the wired attribution gauges at open and
    close; because the gauges are monotone counters, sibling deltas
    telescope exactly into the parent delta ({!reconcile} audits this
    against a 0.1% bar, mirroring the energy ledger).

    The clock and the attribution gauges are the platform
    {!Substrate}'s; producers reach the tracer through its {!Recorder}.

    Cost discipline: simulation-neutral, producers guard on the
    substrate's flag word, and the enabled path allocates nothing. *)

(* ------------------------- span kinds -------------------------------- *)

val sk_wakeup : int  (** root: sleep-end mark to resume-end mark *)

val sk_suspend : int  (** the offloaded (or native) suspend phase *)

val sk_sleep : int  (** the deep-sleep interval between phases *)

val sk_resume : int  (** the resume phase inside the wakeup root *)

val sk_run : int  (** one interpreter / DBT engine execution burst *)

val sk_irq_deliver : int
(** async: interrupt raise to acknowledge; [arg] = line *)

val sk_dbt_translate : int
(** coalesced translation burst; [arg] = guest instructions *)

val sk_dbt_form : int
(** superblock trace formation burst; [arg] = guest instructions *)

val sk_power_ramp : int
(** async: device power-rail ramp; [arg] = dev*2 + (1 = rail up) *)

val sk_dev_phase : int
(** async per-device phase mark pair; [arg] = dev*2 + (1 = resume) *)

val nkinds : int
val kind_name : int -> string
val kind_of_name : string -> int option

(** Async spans overlap their siblings; reconciliation skips them. *)
val is_async : int -> bool

(* --------------------------- recorder -------------------------------- *)

type t = {
  sub : Substrate.t;  (** the platform substrate: time and gauges *)
  mutable enabled : bool;
  mutable cap : int;
  mutable gauges : Substrate.gauge array;
      (** attribution gauges, baked at {!enable} *)
  mutable q_kind : int array;
  mutable q_core : int array;
  mutable q_parent : int array;  (** slot of the enclosing frame, -1 root *)
  mutable q_t0 : int array;
  mutable q_t1 : int array;  (** -1 while open *)
  mutable q_arg : int array;
  mutable q_a0 : int array;  (** gauge snapshots, slot * ngauges + g *)
  mutable q_a1 : int array;
  mutable n : int;
  mutable dropped : int;
  stack : int array;
  mutable depth : int;
  dev_t0 : int array;
  irq_t0 : int array;
  ramp_t0 : int array;  (** async open times, -1 when none is open *)
}

val default_cap : int

(** [create sub] — a disabled tracer over substrate [sub]. *)
val create : Substrate.t -> t

(** [enable ?cap t] starts recording from a clean slate; [cap] bounds
    retained spans (default 2^16) — past it the newest spans are
    dropped (counted), keeping open/close pairing sound. *)
val enable : ?cap:int -> t -> unit

val disable : t -> unit

(** [reset t] forgets recorded spans but keeps configuration — call it
    per fleet instance after a world restore. *)
val reset : t -> unit

(* ------------------------- recording --------------------------------- *)

(** [enter t ~core kind arg] opens a frame span under the current top of
    stack; returns the depth token for {!leave}. Callers guard on
    [t.enabled]. *)
val enter : t -> core:int -> int -> int -> int

(** [leave t tok] closes every frame opened since the matching {!enter}
    — exception-safe under [Fun.protect], truncating stray inner
    frames at the current instant. *)
val leave : t -> int -> unit

(** Like {!enter}, but merges with an immediately preceding sibling of
    the same kind/core closed at most 500 ns ago (accumulating [arg]):
    burst formation for DBT translate storms. *)
val enter_coalesced : t -> core:int -> int -> int -> int

(** [slot_of t tok] — the slot of the still-open frame behind token
    [tok] ([-1] if dropped); capture it before {!leave} to later
    {!reopen} a frame cut by a scheduler quantum. *)
val slot_of : t -> int -> int

(** [reopen t ~core kind ~slot arg] — reopen the closed frame at
    [slot] (a bounded-quantum cut: zero simulated time passed and the
    enclosing frame is unchanged), so the reopened interval telescopes
    as if never cut; falls back to {!enter} when the slot no longer
    matches. Returns the {!leave} token. *)
val reopen : t -> core:int -> int -> slot:int -> int -> int

(** [emit_async t ~core kind ~t0 arg] records a complete span from [t0]
    to now — overlapping latencies (IRQ delivery, power ramps) that do
    not nest on the frame stack. Carries no attribution delta. *)
val emit_async : t -> core:int -> int -> t0:int -> int -> unit

(** [open_burst t ~core kind arg] — a burst opened through the
    substrate: a frame span ([sk_dbt_translate] and [sk_dbt_form] bursts
    coalesce, see {!enter_coalesced}), or for [sk_power_ramp] the start
    of device [arg]'s rail ramp, which its [ev_power] event closes.
    Returns the {!leave} token ([-1] for the ramp). *)
val open_burst : t -> core:int -> int -> int -> int

(** The {!Trace} point events that bound an async span. *)
val event_kinds : int

(** [event t ~core kind a b] — a point event in {!event_kinds}: an IRQ
    raise opens the line's delivery span and its acknowledge closes it;
    a rail change closes the device's power ramp. *)
val event : t -> core:int -> int -> int -> int -> unit

(** [phase t code] — phase-mark dispatcher fed by {!Recorder.phase};
    opens/closes the suspend / sleep / wakeup / resume frames and
    converts per-device marks into async spans. The marker vocabulary
    mirrors [Tk_kernel.Hyper] (cross-checked in test/test_span.ml). *)
val phase : t -> int -> unit

(* --------------------------- consumption ----------------------------- *)

val spans : t -> int  (** allocated slots (closed + still open) *)

val dropped : t -> int

(** [iter t f] visits closed spans in open order (children after their
    parent). *)
val iter :
  t ->
  (id:int ->
  parent:int ->
  kind:int ->
  core:int ->
  t0:int ->
  t1:int ->
  arg:int ->
  unit) ->
  unit

type recon = {
  r_roots : int;  (** closed wakeup roots audited *)
  r_max_dur_residual : float;
      (** worst |root duration - sum of direct non-async children| /
          root duration *)
  r_max_attr_residual : float;
      (** worst relative attribution-gauge residual over roots *)
}

(** The where-did-the-time-go audit over every closed wakeup root; both
    residuals must sit within the 0.1% reconciliation bar. *)
val reconcile : t -> recon

(** One JSON object per closed span per line: id, parent, kind, core,
    t0_ns, dur_ns, arg and the attribution-gauge deltas under "attr". *)
val dump_jsonl : out_channel -> t -> unit

(** Chrome trace-event JSON (loadable in ui.perfetto.dev and
    chrome://tracing): per-core thread tracks of "X" complete events,
    plus "C" counter tracks replayed from [timeseries] rows when a
    sampler is passed. *)
val dump_perfetto : ?timeseries:Timeseries.t -> out_channel -> t -> unit

(** Per-kind count/total/mean table plus the reconciliation footer. *)
val summary : t -> unit
