(** Cycle-domain telemetry sampler: periodic columnar snapshots.

    The flight recorder ({!Trace}) captures discrete {e events}; this
    module captures the simulated SoC {e over time}: on a configurable
    virtual-time period it snapshots a set of named integer gauges
    (per-core busy/idle/stall figures, cache and DRAM traffic,
    translation-cache occupancy, per-device power-rail state, ...) into
    fixed-capacity columnar ring buffers. Consumers — the energy
    attribution ledger, the [--timeseries] CSV/JSONL export, the run
    manifest — read whole columns back and work on row deltas.

    The gauges and the clock are the platform {!Substrate}'s, and the
    producers reach the sampler through its {!Recorder}.

    Cost discipline mirrors the recorder's: sampling is
    {e simulation-neutral} (gauges are read-only closures over model
    counters; no simulated cycles are ever charged) and near-free on the
    host when disabled — the interpreter loops hoist the recording flag
    once per run and {!Recorder.tick} is never called on the disabled
    path, while
    {!sample_now} itself allocates nothing (columns are pre-sized at
    {!enable} time). test/test_timeseries.ml pins the mechanics and the
    zero-allocation property; the neutrality goldens hold with sampling
    on or off. *)

type t = {
  sub : Substrate.t;  (** the platform substrate: time and gauges *)
  mutable enabled : bool;
  mutable period_ns : int;  (** virtual-time sampling period *)
  mutable next_due : int;  (** absolute virtual time of the next sample *)
  mutable cur_phase : int;
      (** phase code in effect; recorded with every row *)
  (* columnar ring: one pre-sized int array per column, no per-sample
     allocation. Column 0 is the sample time (ns), column 1 the phase
     code; gauge columns follow in wiring order. *)
  mutable cap : int;
  mutable names : string array;
  mutable gauges : Substrate.gauge array;  (** baked at {!enable} *)
  mutable cols : int array array;
  mutable head : int;  (** next write slot *)
  mutable total : int;  (** rows sampled since enable (>= retained) *)
}

let ncols_builtin = 2

let default_cap = 1 lsl 14
let default_period_ns = 100_000 (* 100 us of virtual time *)

let create sub =
  { sub; enabled = false; period_ns = default_period_ns; next_due = max_int;
    cur_phase = 0; cap = 0; names = [||]; gauges = [||]; cols = [||];
    head = 0; total = 0 }

(** [sample_now t] records one row unconditionally (used for the
    baseline row at {!enable}, forced phase-boundary rows and the final
    flush). Allocation-free. No-op when disabled. *)
let sample_now t =
  if t.enabled then begin
    let i = t.head in
    let cols = t.cols in
    let now = t.sub.Substrate.now () in
    (Array.unsafe_get cols 0).(i) <- now;
    (Array.unsafe_get cols 1).(i) <- t.cur_phase;
    let gauges = t.gauges in
    for c = 0 to Array.length gauges - 1 do
      (Array.unsafe_get cols (c + ncols_builtin)).(i) <-
        (Array.unsafe_get gauges c).Substrate.read ()
    done;
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    t.total <- t.total + 1;
    t.next_due <- now + t.period_ns
  end

(** [phase t code] marks a phase boundary: forces a row closing the
    current phase's epoch, then switches the recorded phase to [code].
    Epochs therefore never straddle a phase mark. *)
let phase t code =
  sample_now t;
  t.cur_phase <- code

(** [enable ?cap ?period_ns t] starts sampling from a clean slate: bakes
    the substrate's sampler gauges into columns, allocates the ring
    ([cap] rows, default 2^14) and records the baseline row.
    [period_ns] is the virtual-time sampling period (default 100 us). *)
let enable ?(cap = default_cap) ?(period_ns = default_period_ns) t =
  let cap = max 2 cap in
  t.cap <- cap;
  t.period_ns <- max 1 period_ns;
  t.gauges <- Substrate.gauges t.sub Substrate.sampler_bit;
  t.names <-
    Array.append [| "t_ns"; "phase" |]
      (Array.map (fun g -> g.Substrate.name) t.gauges);
  t.cols <- Array.init (Array.length t.names) (fun _ -> Array.make cap 0);
  t.head <- 0;
  t.total <- 0;
  t.cur_phase <- 0;
  t.enabled <- true;
  Substrate.set_live t.sub Substrate.sampler_bit true;
  sample_now t

let disable t =
  t.enabled <- false;
  t.next_due <- max_int;
  Substrate.set_live t.sub Substrate.sampler_bit false

(* --------------------------- consumption ----------------------------- *)

let retained t = min t.total t.cap
let dropped t = t.total - retained t

(** Column labels, row order: [t_ns; phase; <gauges in wiring order>]. *)
let labels t = Array.copy t.names

(** [col_index t name] — column position of [name], if wired. *)
let col_index t name =
  let rec go i =
    if i >= Array.length t.names then None
    else if t.names.(i) = name then Some i
    else go (i + 1)
  in
  go 0

(** [rows t] — the retained rows oldest-first, each a fresh array in
    {!labels} order. (Consumption path; not allocation-sensitive.) *)
let rows t =
  let n = retained t in
  let start = if t.total <= t.cap then 0 else t.head in
  Array.init n (fun i ->
      let j = (start + i) mod t.cap in
      Array.map (fun col -> col.(j)) t.cols)

(** [iter_rows t f] visits the retained rows oldest-first. *)
let iter_rows t f = Array.iter f (rows t)

(* ----------------------------- export -------------------------------- *)

(** [to_csv oc t] writes a header line plus one comma-separated line per
    retained row. *)
let to_csv oc t =
  output_string oc (String.concat "," (Array.to_list t.names));
  output_char oc '\n';
  iter_rows t (fun row ->
      output_string oc
        (String.concat ","
           (Array.to_list (Array.map string_of_int row)));
      output_char oc '\n')

(** [to_jsonl oc t] writes one JSON object per retained row, keyed by
    column label (directly queryable with jq; see README). *)
let to_jsonl oc t =
  (* labels can carry model-supplied names (device power rails); quote
     them once through the shared escaper, not per row *)
  let qnames = Array.map Json.quote t.names in
  iter_rows t (fun row ->
      output_char oc '{';
      Array.iteri
        (fun i v ->
          if i > 0 then output_char oc ',';
          output_string oc (Printf.sprintf {|%s:%d|} qnames.(i) v))
        row;
      output_string oc "}\n")
