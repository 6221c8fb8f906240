(** Flight recorder: a low-overhead, ring-buffered event trace.

    Every subsystem emits typed events here — instruction retires,
    memory accesses with their stall cost, IRQ raise/deliver, device
    power-rail transitions, DBT translate/chain/invalidate — and the
    harness marks phase boundaries, at which point the recorder
    snapshots its counters (plus any platform probes) so per-phase
    deltas can be tabulated.

    Events arrive through the platform's {!Recorder}, the substrate
    every producer calls; this module keeps the ring, the phase marks
    and the exporters.

    Cost discipline: recording is {e simulation-neutral} (no simulated
    cycles are ever charged here) and near-free on the host when
    disabled — every emission site guards on the substrate's flag word
    and [emit] allocates nothing. test/test_neutrality.ml pins the
    neutrality; test/test_trace.ml pins the event stream itself. *)

(* ------------------------- event kinds ------------------------------- *)

(* Kinds are plain ints so hot emission sites stay allocation-free. *)

val ev_retire : int  (** a = pc *)

val ev_read : int  (** a = addr, b = stall cycles (0 = cache hit) *)

val ev_write : int  (** a = addr, b = stall cycles (0 = cache hit) *)

val ev_irq_raise : int  (** a = line (controller-local) *)

val ev_irq_deliver : int  (** a = line acknowledged *)

val ev_power : int  (** a = device slot, b = 1 rail up / 0 rail down *)

val ev_translate : int  (** a = guest block pc, b = guest instructions *)

val ev_chain : int  (** a = patched host site *)

val ev_invalidate : int  (** a = invalidated decode word address *)

val ev_phase : int  (** a = phase marker code *)

val ev_form : int
(** superblock trace formed: a = head gpc, b = guest instructions *)

val kind_name : int -> string

(** [kind_of_name n] — inverse of {!kind_name} over the event
    vocabulary; [None] for unknown names. *)
val kind_of_name : string -> int option

(** Number of event kinds (codes are dense in [0, nkinds)). *)
val nkinds : int

(** Bitmask accepting every event kind. *)
val all_kinds : int

(** [filter_of_names names] parses a comma-list vocabulary into a kind
    bitmask. Accepts the group aliases [mem] (read+write), [irq]
    (raise+deliver) and [dbt] (translate+chain+invalidate+form);
    [Error n] names the first unknown kind. *)
val filter_of_names : string list -> (int, string) result

(** Emitting cores (who was executing when the event fired). *)
val core_cpu : int

val core_m3 : int
val core_none : int
val core_name : int -> string

(* --------------------------- recorder -------------------------------- *)

type t = {
  sub : Substrate.t;  (** the platform substrate: time and probes *)
  mutable enabled : bool;
  mutable filter : int;  (** bitmask over kinds, checked inside {!emit} *)
  mutable probes : Substrate.gauge array;
      (** the substrate gauges sampled at phase marks (busy cycles,
          cache misses, ...); baked at {!enable} *)
  (* ring buffer: parallel pre-sized arrays, no per-event allocation *)
  mutable cap : int;
  mutable q_time : int array;
  mutable q_kind : int array;  (** kind lor (core lsl 8) *)
  mutable q_a : int array;
  mutable q_b : int array;
  mutable head : int;  (** next write slot *)
  mutable total : int;  (** events recorded since enable (>= retained) *)
  counts : int array;  (** per-kind totals, never dropped *)
  mutable rd_miss : int;  (** [ev_read] events with a non-zero stall *)
  mutable wr_miss : int;
  mutable marks : (int * int * int array) list;
      (** phase marks, newest first: code, time ns, counter snapshot
          (counts @ rd_miss @ wr_miss @ probe values) *)
}

(** [create sub] — a disabled recorder over substrate [sub]. *)
val create : Substrate.t -> t

(** [reset t] forgets all recorded events, counters and phase marks but
    keeps configuration (capacity, filter, wiring). *)
val reset : t -> unit

(** [enable ?cap ?filter t] starts recording from a clean slate.
    [cap] sizes the ring (default 2^18 events); [filter] is a kind
    bitmask (default: everything). *)
val enable : ?cap:int -> ?filter:int -> t -> unit

val disable : t -> unit

(** [emit t ~core kind a b] records one event. Producers reach it
    through {!Recorder.event}, which guards on the substrate's flag
    word, so the disabled hot path stays one load + branch. *)
val emit : t -> core:int -> int -> int -> int -> unit

(** [phase t code] marks a phase boundary: emits an [ev_phase] event and
    snapshots every counter and probe. No-op when disabled. *)
val phase : t -> int -> unit

(** [phase_rows t] — per-phase deltas, oldest first: each row is
    (start code, start ns, duration ns, counter deltas in snapshot
    order) for the interval up to the next mark. *)
val phase_rows : t -> (int * int * int * int array) list

(* --------------------------- consumption ----------------------------- *)

val retained : t -> int
val dropped : t -> int

(** [iter t f] visits the retained events oldest-first:
    [f ~time ~core ~kind ~a ~b]. *)
val iter :
  t -> (time:int -> core:int -> kind:int -> a:int -> b:int -> unit) -> unit

(** [digest t] — compact fingerprint for golden-trace regression tests:
    per-kind totals plus rd/wr miss counts, the number of events ever
    recorded, and an FNV-1a-style hash over the retained event stream. *)
val digest : t -> int list * int * int

(** [dump_jsonl oc t] writes the retained events, oldest first, one JSON
    object per line (kind-specific field names, queryable with jq). *)
val dump_jsonl : out_channel -> t -> unit

(** [summary ?phase_name t] prints the per-phase counter table (plus a
    totals footer) through {!Report}. [phase_name] renders marker codes
    (defaults to the raw integer). *)
val summary : ?phase_name:(int -> string) -> t -> unit
