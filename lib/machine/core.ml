(** Per-core timing and activity accounting.

    A core charges cycles for every retired instruction (plus cache-miss
    stalls and uncached-IO penalties) and advances its clock
    accordingly: the platform clock, or, for the A9 inside a lockstep
    concurrent segment, a private lane that holds no events. WFI
    fast-forwards to the next event on that clock and books the gap as
    idle.

    Both execution loops, the A9 interpreter ({!Interp}) and the DBT
    engine on the M3, call {!retire} once per instruction and {!load} /
    {!store} once per data access, so a core's cycle accounting lives in
    this module alone. The release build inlines these calls into the
    loops. Inside a loop a core applies its charges in batches: a run of
    instructions that cannot reach the next event or the loop's
    deadline advances the clock once, with the totals and the event
    instants of charging each instruction on its own.

    Busy/idle picosecond totals per core are what Figure 5a plots and the
    energy model integrates. *)

type params = {
  cname : string;
  freq_mhz : int;
  busy_mw : float;  (** typical busy power (Table 6) *)
  idle_mw : float;  (** idle power with the core clock-gated (Table 6) *)
  mmio_penalty : int;  (** extra cycles for an uncached device access *)
  cpi_num : int;
  cpi_den : int;
      (** average CPI = 1 + cpi_num/cpi_den: pipeline bubbles on the
          3-stage, prediction-less M3 vs the out-of-order A9 *)
}

type t = {
  p : params;
  mutable clock : Clock.t;
      (** the clock this core advances — the platform clock, or the
          A9's private lane inside a lockstep concurrent segment *)
  cache : Cache.t;
  ps_per_cycle : int;
  mutable cpi_acc : int;  (** accumulator for the fractional CPI *)
  mutable frac_ps : int;  (** sub-ns remainder not yet pushed to the clock *)
  mutable busy_cycles : int;
  mutable idle_ps : int;
  mutable instructions : int;
  mutable stall_cycles : int;
      (** cycles lost to cache-miss / uncached-IO stalls, a subset of
          [busy_cycles]; the span tracer's attribution ledger reads it *)
  mutable owed : int;
      (** cycles charged but not yet applied to [busy_cycles],
          [frac_ps] and the clock *)
  mutable room : int;
      (** the most cycles that may stay owed: applying [room] cycles
          keeps the clock below both [limit] and the next pending
          event. [-1] makes every charge apply at once. *)
  mutable limit : int;
      (** the running loop's deadline; [min_int] when no loop runs *)
}

let create ~clock ~cache p =
  { p; clock; cache; ps_per_cycle = 1_000_000 / p.freq_mhz; cpi_acc = 0;
    frac_ps = 0; busy_cycles = 0; idle_ps = 0; instructions = 0;
    stall_cycles = 0; owed = 0; room = -1; limit = min_int }

(* Deferred accounting. Applying [n] cycles at once books exactly what
   [n] one-cycle charges book: [busy_cycles] is a sum, and the clock
   and [frac_ps] are the quotient and remainder of the picosecond total
   by 1000. So the only thing per-charge application decides is when
   events fire, and an event is due only once the clock reaches
   [next_at]. A charge therefore adds to [owed] and applies it only
   when [owed] exceeds [room]: the charge that crosses the next event
   or the loop's deadline applies everything, at the very charge where
   per-charge application would have crossed it, and fires what is
   due. Below [room], applying owed cycles can fire nothing, so code
   that reads this core's counters or its clock applies them first
   ({!settle}), and code that can arm an event, move the clock or
   charge on its own runs with [room = -1] ({!enter} [min_int]). *)

(* cycles booked into the counters; returns the ns to advance by *)
let apply t cycles =
  t.busy_cycles <- t.busy_cycles + cycles;
  let ps = (cycles * t.ps_per_cycle) + t.frac_ps in
  (* ps/1000 by reciprocal multiplication — exact for 0 <= ps < 2^32
     (the 56-ulp error of 274877907 ~= 2^38/1000 stays below 1/1000
     there) *)
  let q =
    if ps < 0x1_0000_0000 then (ps * 274877907) asr 38 else ps / 1000
  in
  t.frac_ps <- ps - (q * 1000);
  q

(* the longest gap [room] spans, in ns; past it, [room] is capped,
   which only settles earlier *)
let max_gap = 1 lsl 31

(* [room] from the settled clock: the most cycles [c] with
   [now + (frac_ps + c * ps_per_cycle) / 1000 < min limit next_at] *)
let refresh t =
  let clock = t.clock in
  let next = clock.Clock.next_at in
  let lim = if next < t.limit then next else t.limit in
  let now = clock.Clock.now in
  t.room <-
    (if lim <= now then -1
     else
       let gap = if lim - now > max_gap then max_gap else lim - now in
       ((gap * 1000) - t.frac_ps - 1) / t.ps_per_cycle)

(* apply every owed cycle, advance the clock (firing due events) and
   recompute [room]; a charge from an event handler applies at once *)
let flush t =
  let o = t.owed in
  t.owed <- 0;
  t.room <- -1;
  Clock.advance t.clock (apply t o);
  refresh t

(** [charge t cycles] books [cycles] of busy execution. Inside a run
    loop they stay owed until they would reach the next event or the
    loop's deadline; then they are applied with the owed ones and the
    clock advances, firing due events. Elsewhere they apply at once. *)
let charge t cycles =
  let o = t.owed + cycles in
  t.owed <- o;
  if o > t.room then flush t

(** [settle t] applies the owed cycles without firing anything: since
    they stay within [room], no event falls due. Called by whatever
    reads this core's counters or clock mid-run (the recorder's time
    hook, the gauges). *)
let settle t =
  let o = t.owed in
  if o <> 0 then begin
    t.owed <- 0;
    t.room <- t.room - o;
    let clock = t.clock in
    clock.Clock.now <- clock.Clock.now + apply t o
  end

(** [enter t limit] settles and lets charges defer up to absolute time
    [limit] (and the next event); returns the limit {!leave} restores.
    A run loop enters with its deadline, and leaves on every exit,
    exceptions included. Code inside a loop that reads or moves time,
    arms events or charges on its own (MMIO, callbacks, WFI) runs
    between [enter t min_int] and {!leave}, where every charge applies
    at once. *)
let enter t limit =
  settle t;
  let outer = t.limit in
  t.limit <- limit;
  refresh t;
  outer

(** [leave t outer] — settle, restore the [outer] limit and recompute
    [room] for it: events armed meanwhile bound it. *)
let leave t outer =
  settle t;
  t.limit <- outer;
  refresh t

(** [charge_stall t stall] — charge a cache-access result, counting a
    non-zero [stall] as stall cycles. A hit is [charge t 0]: it applies
    the owed cycles only when an event is already due, that is when
    [room < 0], since owed cycles otherwise stay within [room]. *)
let charge_stall t stall =
  if stall <> 0 then begin
    t.stall_cycles <- t.stall_cycles + stall;
    charge t stall
  end
  else if t.room < 0 then flush t

(** [set_clock t clock] — retarget the core's time charges: the A9
    moves onto its private lane for a lockstep concurrent segment and
    back, outside any run loop, so nothing is owed. The M3 and the
    sequential scheduler never call it. *)
let set_clock t clock = t.clock <- clock

(** [idle_until t ~limit] models WFI: sleep to the next event on the
    core's clock, but never past absolute time [limit] (a quantum
    boundary, or [max_int] for none), and book the gap as idle. A gap
    taken in pieces books the same idle total as in one, so a sliced
    run charges the sequential run's busy/idle split. Returns [false],
    with time unmoved, when no event is pending. Called with nothing
    owed: outside a run loop, or inside one between [enter t min_int]
    and {!leave}. *)
let idle_until t ~limit =
  match Clock.skip_to_next_event t.clock ~limit with
  | None -> false
  | Some skipped_ns ->
    t.idle_ps <- t.idle_ps + (skipped_ns * 1000);
    true

(** [instr_cycles t] — base cycles for one instruction under the core's
    fractional CPI model (1 + cpi_num/cpi_den on average). *)
let instr_cycles t =
  if t.p.cpi_num = 0 then 1
  else begin
    (* the accumulator stays below cpi_den, so after adding cpi_num it
       is below cpi_den + cpi_num — for the small num/den ratios cores
       use, the carry resolves with compares instead of an idiv *)
    let acc = t.cpi_acc + t.p.cpi_num in
    let den = t.p.cpi_den in
    if acc < den then begin t.cpi_acc <- acc; 1 end
    else if acc < 2 * den then begin t.cpi_acc <- acc - den; 2 end
    else if acc < 3 * den then begin t.cpi_acc <- acc - (2 * den); 3 end
    else begin
      t.cpi_acc <- acc mod den;
      1 + (acc / den)
    end
  end

(** [retire t addr ~fused] — one retired instruction: count it, fetch
    it from [addr] through the cache, and charge its base CPI plus the
    fetch stall. The fetch's cache access happens before the CPI carry.
    A fused macro-op partner ([~fused:true], superblock tier) issues
    with its predecessor: it is counted and books its fetch stall, but
    no base CPI. *)
let retire t addr ~fused =
  t.instructions <- t.instructions + 1;
  let stall = Cache.access t.cache ~write:false addr in
  if stall <> 0 then t.stall_cycles <- t.stall_cycles + stall;
  charge t ((if fused then 0 else instr_cycles t) + stall)

(* a data access on the flight recorder, when it is on *)
let trace_access rc ~tcore kind addr stall =
  if rc.Tk_stats.Recorder.sub.Tk_stats.Substrate.tracing then
    Tk_stats.Recorder.event rc ~core:tcore kind addr stall

(** [load t mem rc ~tcore addr nbytes] — a data load by this core. RAM
    goes through the cache: its stall is charged and the read traced
    with it, as core [tcore]. Anything else is MMIO and pays the core's
    uncached penalty; the device sees settled time, and [room] is
    recomputed after it, since it may arm an event. *)
let load t mem rc ~tcore addr nbytes =
  if Mem.in_ram mem addr then begin
    let stall = Cache.access t.cache ~write:false addr in
    charge_stall t stall;
    trace_access rc ~tcore Tk_stats.Trace.ev_read addr stall;
    if nbytes = 4 then Mem.ram_read32 mem addr
    else Mem.ram_read mem addr nbytes
  end
  else begin
    charge t t.p.mmio_penalty;
    let outer = enter t min_int in
    trace_access rc ~tcore Tk_stats.Trace.ev_read addr t.p.mmio_penalty;
    let v = Mem.mmio_read addr nbytes mem.Mem.regions in
    leave t outer;
    v
  end

(** [store t mem rc ~tcore addr nbytes v] — a data store, charged and
    traced like {!load}. Returns whether it wrote RAM. *)
let store t mem rc ~tcore addr nbytes v =
  if Mem.in_ram mem addr then begin
    let stall = Cache.access t.cache ~write:true addr in
    charge_stall t stall;
    trace_access rc ~tcore Tk_stats.Trace.ev_write addr stall;
    if nbytes = 4 then Mem.ram_write32 mem addr v
    else Mem.ram_write mem addr nbytes v;
    true
  end
  else begin
    charge t t.p.mmio_penalty;
    let outer = enter t min_int in
    trace_access rc ~tcore Tk_stats.Trace.ev_write addr t.p.mmio_penalty;
    Mem.mmio_write addr nbytes v mem.Mem.regions;
    leave t outer;
    false
  end

(** [busy_ps t] — settled busy time in picoseconds. *)
let busy_ps t =
  settle t;
  t.busy_cycles * t.ps_per_cycle

let busy_ns t = busy_ps t / 1000
let idle_ns t = t.idle_ps / 1000

(** [reset_activity t] zeroes busy/idle/instruction counters (used at
    phase boundaries so each measured phase starts clean). *)
let reset_activity t =
  t.busy_cycles <- 0; t.idle_ps <- 0; t.instructions <- 0;
  t.stall_cycles <- 0;
  Cache.reset_counters t.cache

(** Snapshot of a core's activity, used for per-phase deltas. *)
type activity = {
  a_busy_cycles : int;
  a_busy_ps : int;
  a_idle_ps : int;
  a_instructions : int;
  a_cache_misses : int;
  a_rd_bytes : int;
  a_wr_bytes : int;
}

let activity t =
  let busy_ps = busy_ps t in
  { a_busy_cycles = t.busy_cycles; a_busy_ps = busy_ps;
    a_idle_ps = t.idle_ps; a_instructions = t.instructions;
    a_cache_misses = t.cache.Cache.misses;
    a_rd_bytes = t.cache.Cache.rd_bytes; a_wr_bytes = t.cache.Cache.wr_bytes }

let activity_delta a b =
  { a_busy_cycles = b.a_busy_cycles - a.a_busy_cycles;
    a_busy_ps = b.a_busy_ps - a.a_busy_ps;
    a_idle_ps = b.a_idle_ps - a.a_idle_ps;
    a_instructions = b.a_instructions - a.a_instructions;
    a_cache_misses = b.a_cache_misses - a.a_cache_misses;
    a_rd_bytes = b.a_rd_bytes - a.a_rd_bytes;
    a_wr_bytes = b.a_wr_bytes - a.a_wr_bytes }
