(** Cycle-domain telemetry sampler: periodic columnar snapshots.

    On a configurable virtual-time period, snapshots a set of named
    integer gauges (per-core busy/idle figures, cache and DRAM traffic,
    translation-cache occupancy, per-device power-rail state, ...) into
    fixed-capacity columnar ring buffers. Consumers — the energy
    attribution ledger, the [--timeseries] export, the run manifest —
    read whole columns back and work on row deltas.

    The gauges and the clock are the platform {!Substrate}'s, and the
    producers reach the sampler through its {!Recorder}. Sampling is
    simulation-neutral (gauges are read-only closures over model
    counters) and near-free when disabled: the interpreter loops hoist
    the recording flag once per run, and {!sample_now} allocates
    nothing. test/test_timeseries.ml pins the mechanics. *)

type t = {
  sub : Substrate.t;  (** the platform substrate: time and gauges *)
  mutable enabled : bool;
  mutable period_ns : int;  (** virtual-time sampling period *)
  mutable next_due : int;  (** absolute virtual time of the next sample *)
  mutable cur_phase : int;
      (** phase code in effect; recorded with every row *)
  mutable cap : int;
  mutable names : string array;
  mutable gauges : Substrate.gauge array;
  mutable cols : int array array;
  mutable head : int;
  mutable total : int;  (** rows sampled since enable (>= retained) *)
}

val default_cap : int
val default_period_ns : int

(** [create sub] — a disabled sampler over substrate [sub]. *)
val create : Substrate.t -> t

(** [enable ?cap ?period_ns t] starts sampling from a clean slate: bakes
    the substrate's sampler gauges into columns, allocates the ring
    ([cap] rows, default 2^14) and records the baseline row.
    [period_ns] is the virtual-time sampling period (default 100 us). *)
val enable : ?cap:int -> ?period_ns:int -> t -> unit

val disable : t -> unit

(** [sample_now t] records one row unconditionally (baseline, forced
    phase boundaries, final flush). Allocation-free; no-op when
    disabled. *)
val sample_now : t -> unit

(** [phase t code] forces a row closing the current phase's epoch, then
    switches the recorded phase to [code]. *)
val phase : t -> int -> unit

val retained : t -> int
val dropped : t -> int

(** Column labels, row order: [t_ns; phase; <gauges in wiring order>]. *)
val labels : t -> string array

(** [col_index t name] — column position of [name], if wired. *)
val col_index : t -> string -> int option

(** [rows t] — the retained rows oldest-first, each a fresh array in
    {!labels} order. *)
val rows : t -> int array array

val iter_rows : t -> (int array -> unit) -> unit

(** [to_csv oc t] writes a header line plus one comma-separated line per
    retained row. *)
val to_csv : out_channel -> t -> unit

(** [to_jsonl oc t] writes one JSON object per retained row, keyed by
    column label. *)
val to_jsonl : out_channel -> t -> unit
