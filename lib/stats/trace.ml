(** Flight recorder: a low-overhead, ring-buffered event trace.

    The paper's claims are all quantitative (per-phase cycle ratios,
    idle/busy epochs, DRAM traffic), so the simulator needs to explain
    {e where} cycles go, not just report end-of-run aggregates. Every
    subsystem emits typed events here — instruction retires, memory
    accesses with their stall cost, IRQ raise/deliver, device power-rail
    transitions, DBT translate/chain/invalidate — and the harness marks
    phase boundaries, at which point the recorder snapshots its counters
    (plus any platform probes, e.g. per-core busy cycles) so per-phase
    deltas can be tabulated.

    Events arrive through the platform's {!Recorder}, the substrate
    every producer calls; this module keeps the ring, the phase marks
    and the exporters.

    Cost discipline: recording is {e simulation-neutral} (no simulated
    cycles are ever charged here) and near-free on the host when
    disabled — every emission site guards on the substrate's flag word
    and [emit] allocates nothing (events live in pre-sized int arrays; the
    ring drops the oldest events when full, while per-kind counters keep
    counting everything). test/test_neutrality.ml pins the neutrality;
    test/test_trace.ml pins the event stream itself. *)

(* ------------------------- event kinds ------------------------------- *)

(* Kinds are plain ints so hot emission sites stay allocation-free. *)
let ev_retire = 0 (* a = pc *)
let ev_read = 1 (* a = addr, b = stall cycles (0 = cache hit) *)
let ev_write = 2 (* a = addr, b = stall cycles (0 = cache hit) *)
let ev_irq_raise = 3 (* a = line (controller-local) *)
let ev_irq_deliver = 4 (* a = line acknowledged *)
let ev_power = 5 (* a = device slot, b = 1 rail up / 0 rail down *)
let ev_translate = 6 (* a = guest block pc, b = guest instructions *)
let ev_chain = 7 (* a = patched host site *)
let ev_invalidate = 8 (* a = invalidated decode word address *)
let ev_phase = 9 (* a = phase marker code *)
let ev_form = 10 (* a = superblock head gpc, b = guest instructions *)

let nkinds = 11

let kind_name = function
  | 0 -> "retire"
  | 1 -> "read"
  | 2 -> "write"
  | 3 -> "irq-raise"
  | 4 -> "irq-deliver"
  | 5 -> "power"
  | 6 -> "translate"
  | 7 -> "chain"
  | 8 -> "invalidate"
  | 9 -> "phase"
  | 10 -> "form"
  | _ -> "?"

(* the inverse of [kind_name]: one vocabulary table *)
let kind_of_name n =
  let rec find k =
    if k >= nkinds then None else if kind_name k = n then Some k
    else find (k + 1)
  in
  find 0

let all_kinds = (1 lsl nkinds) - 1

(** [filter_of_names names] parses a comma-list vocabulary into a kind
    bitmask. Accepts the group aliases [mem] (read+write), [irq]
    (raise+deliver) and [dbt] (translate+chain+invalidate). *)
let filter_of_names names =
  List.fold_left
    (fun acc n ->
      match acc with
      | Error _ -> acc
      | Ok m -> (
        match n with
        | "mem" -> Ok (m lor (1 lsl ev_read) lor (1 lsl ev_write))
        | "irq" -> Ok (m lor (1 lsl ev_irq_raise) lor (1 lsl ev_irq_deliver))
        | "dbt" ->
          Ok
            (m lor (1 lsl ev_translate) lor (1 lsl ev_chain)
            lor (1 lsl ev_invalidate) lor (1 lsl ev_form))
        | "all" -> Ok all_kinds
        | _ -> (
          match kind_of_name n with
          | Some k -> Ok (m lor (1 lsl k))
          | None -> Error n)))
    (Ok 0) names

(** Emitting cores (who was executing when the event fired). *)
let core_cpu = 0

let core_m3 = 1
let core_none = 2

let core_name = function 0 -> "cpu" | 1 -> "m3" | _ -> "-"

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

let default_cap = 1 lsl 18

let create sub =
  { sub; enabled = false; filter = all_kinds; probes = [||];
    cap = 1; q_time = [| 0 |]; q_kind = [| 0 |]; q_a = [| 0 |];
    q_b = [| 0 |]; head = 0; total = 0; counts = Array.make nkinds 0;
    rd_miss = 0; wr_miss = 0; marks = [] }

(** [reset t] forgets all recorded events, counters and phase marks but
    keeps configuration (capacity, filter, wiring). *)
let reset t =
  t.head <- 0;
  t.total <- 0;
  Array.fill t.counts 0 nkinds 0;
  t.rd_miss <- 0;
  t.wr_miss <- 0;
  t.marks <- []

let set_capacity t cap =
  let cap = max 1 cap in
  t.cap <- cap;
  t.q_time <- Array.make cap 0;
  t.q_kind <- Array.make cap 0;
  t.q_a <- Array.make cap 0;
  t.q_b <- Array.make cap 0;
  reset t

(** [enable ?cap ?filter t] starts recording from a clean slate.
    [cap] sizes the ring (default 2^18 events); [filter] is a kind
    bitmask (default: everything). *)
let enable ?cap ?filter t =
  (match cap with
  | Some c -> set_capacity t c
  | None -> if t.cap = 1 then set_capacity t default_cap else reset t);
  (match filter with Some f -> t.filter <- f | None -> t.filter <- all_kinds);
  t.probes <- Substrate.gauges t.sub Substrate.trace_bit;
  t.enabled <- true;
  Substrate.set_live t.sub Substrate.trace_bit true

let disable t =
  t.enabled <- false;
  Substrate.set_live t.sub Substrate.trace_bit false

(** [emit t ~core kind a b] records one event. Producers reach it
    through {!Recorder.event}, which guards on the substrate's flag
    word, so the disabled hot path stays one load + branch. *)
let emit t ~core kind a b =
  if t.filter land (1 lsl kind) <> 0 then begin
    Array.unsafe_set t.counts kind (Array.unsafe_get t.counts kind + 1);
    if b <> 0 then
      if kind = ev_read then t.rd_miss <- t.rd_miss + 1
      else if kind = ev_write then t.wr_miss <- t.wr_miss + 1;
    let i = t.head in
    Array.unsafe_set t.q_time i (t.sub.Substrate.now ());
    Array.unsafe_set t.q_kind i (kind lor (core lsl 8));
    Array.unsafe_set t.q_a i a;
    Array.unsafe_set t.q_b i b;
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    t.total <- t.total + 1
  end

(* ------------------------ phase snapshots ---------------------------- *)

let snapshot t =
  let probes = Array.map (fun g -> g.Substrate.read ()) t.probes in
  Array.concat [ t.counts; [| t.rd_miss; t.wr_miss |]; probes ]

(** Column labels matching {!snapshot} order. *)
let snapshot_labels t =
  List.init nkinds kind_name @ [ "rd-miss"; "wr-miss" ]
  @ Array.to_list (Array.map (fun g -> g.Substrate.name) t.probes)

(** [phase t code] marks a phase boundary: emits an [ev_phase] event and
    snapshots every counter and probe. No-op when disabled. *)
let phase t code =
  if t.enabled then begin
    emit t ~core:core_none ev_phase code 0;
    t.marks <- (code, t.sub.Substrate.now (), snapshot t) :: t.marks
  end

(** [phase_rows t] — per-phase deltas, oldest first: each row is
    (start code, start ns, duration ns, counter deltas in {!snapshot}
    order) for the interval up to the next mark. *)
let phase_rows t =
  let marks = List.rev t.marks in
  let rec go = function
    | (c0, t0, s0) :: ((_, t1, s1) :: _ as rest) ->
      (c0, t0, t1 - t0, Array.init (Array.length s0) (fun i -> s1.(i) - s0.(i)))
      :: go rest
    | _ -> []
  in
  go marks

(* --------------------------- consumption ----------------------------- *)

let retained t = min t.total t.cap
let dropped t = t.total - retained t

(** [iter t f] visits the retained events oldest-first:
    [f ~time ~core ~kind ~a ~b]. *)
let iter t f =
  let n = retained t in
  let start = if t.total <= t.cap then 0 else t.head in
  for i = 0 to n - 1 do
    let j = (start + i) mod t.cap in
    let ck = t.q_kind.(j) in
    f ~time:t.q_time.(j) ~core:(ck lsr 8) ~kind:(ck land 0xFF) ~a:t.q_a.(j)
      ~b:t.q_b.(j)
  done

(** [digest t] — compact fingerprint for golden-trace regression tests:
    per-kind totals plus rd/wr miss counts, the number of events ever
    recorded, and an FNV-1a-style hash over the retained event stream
    (time, core, kind, payload — everything). *)
let digest t =
  let h = ref 0x1bf29ce484222325 in
  let mix x =
    h := (!h lxor (x land max_int)) * 0x100000001b3 land max_int
  in
  iter t (fun ~time ~core ~kind ~a ~b ->
      mix time; mix ((core lsl 8) lor kind); mix a; mix b);
  (Array.to_list t.counts @ [ t.rd_miss; t.wr_miss ], t.total, !h)

(* JSONL: one event per line, with kind-specific field names so traces
   are directly queryable with jq (see README). *)
let jsonl_line ~time ~core ~kind ~a ~b =
  let payload =
    match kind with
    | 0 -> Printf.sprintf {|"pc":"0x%x"|} a
    | 1 | 2 -> Printf.sprintf {|"addr":"0x%x","stall":%d|} a b
    | 3 | 4 -> Printf.sprintf {|"line":%d|} a
    | 5 -> Printf.sprintf {|"dev":%d,"on":%b|} a (b = 1)
    | 6 -> Printf.sprintf {|"gpc":"0x%x","ninstr":%d|} a b
    | 7 -> Printf.sprintf {|"site":"0x%x"|} a
    | 8 -> Printf.sprintf {|"addr":"0x%x"|} a
    | 9 -> Printf.sprintf {|"code":%d|} a
    | 10 -> Printf.sprintf {|"gpc":"0x%x","ninstr":%d|} a b
    | _ -> Printf.sprintf {|"a":%d,"b":%d|} a b
  in
  Printf.sprintf {|{"t":%d,"core":%s,"ev":%s,%s}|} time
    (Json.quote (core_name core))
    (Json.quote (kind_name kind))
    payload

(** [dump_jsonl oc t] writes the retained events, oldest first, one JSON
    object per line. *)
let dump_jsonl oc t =
  iter t (fun ~time ~core ~kind ~a ~b ->
      output_string oc (jsonl_line ~time ~core ~kind ~a ~b);
      output_char oc '\n')

(* --------------------------- reporting ------------------------------- *)

(** [summary ?phase_name t] prints the per-phase counter table (plus a
    totals footer) through {!Report}. [phase_name] renders marker codes
    (defaults to the raw integer). *)
let summary ?(phase_name = string_of_int) t =
  let labels = snapshot_labels t in
  (* keep the table readable: drop columns that never fired *)
  let rows = phase_rows t in
  let keep =
    List.mapi
      (fun i _ ->
        List.exists (fun (_, _, _, d) -> d.(i) <> 0) rows)
      labels
  in
  let filter_cols l =
    List.filteri (fun i _ -> List.nth keep i) l
  in
  let header = "phase" :: "at_ms" :: "dur_ms" :: filter_cols labels in
  let body =
    List.map
      (fun (code, t0, dt, d) ->
        phase_name code
        :: Printf.sprintf "%.3f" (float_of_int t0 /. 1e6)
        :: Printf.sprintf "%.3f" (float_of_int dt /. 1e6)
        :: filter_cols (List.map string_of_int (Array.to_list d)))
      rows
  in
  Report.table ~title:"flight recorder: per-phase counters" ~header body;
  Report.kv "flight recorder"
    [ ("events recorded", string_of_int t.total);
      ("events retained", string_of_int (retained t));
      ("events dropped (ring wrap)", string_of_int (dropped t)) ]
