(** Hardware timers.

    Each side of the SoC has one: the CPU timer drives the native kernel's
    periodic tick (jiffies) and exposes a free-running counter the guest
    reads for [udelay]/[ktime_get]; the peripheral core's private timer
    gives ARK its time base (§4.6: "ARK converts the expected wait time to
    the hardware timer cycles on the peripheral core").

    MMIO register file:
    - 0x00 R: COUNT_LO — free-running ns counter, low 32 bits
    - 0x04 R: COUNT_HI
    - 0x08 W: TICK_PERIOD_NS — start periodic IRQs (0 stops)
    - 0x0C W: ONESHOT_NS — raise one IRQ after this delay *)

type t = {
  clock : Clock.t;  (** the platform clock, which this timer arms events on *)
  fabric : Intc.fabric;
  irq_line : int;
  mutable period : int;
  mutable cancel_tick : (unit -> unit) option;
  mutable next_at : int;
      (** absolute ns of the pending tick (meaningful while
          [period > 0]) — lets the snapshot layer re-arm a restored
          tick at the exact instant it was due, not [now + period] *)
}

let create ~clock ~fabric ~irq_line =
  { clock; fabric; irq_line; period = 0; cancel_tick = None; next_at = 0 }

(** [now_ns t] is the free-running counter value. *)
let now_ns t = t.clock.Clock.now

let stop_tick t =
  (match t.cancel_tick with Some c -> c () | None -> ());
  t.cancel_tick <- None;
  t.period <- 0

(** [start_tick t ns] raises the timer IRQ every [ns] nanoseconds. *)
let start_tick t ns =
  stop_tick t;
  if ns > 0 then begin
    t.period <- ns;
    let rec arm () =
      t.next_at <- t.clock.Clock.now + t.period;
      t.cancel_tick <-
        Some
          (Clock.after t.clock t.period (fun () ->
               Intc.raise_line t.fabric t.irq_line;
               if t.period > 0 then arm ()))
    in
    arm ()
  end

(** [pause_tick t] — cancel the pending tick event without forgetting
    the tick: returns [Some (period, next_at)] to hand to
    [resume_tick]. Used by the snapshot layer, which needs the clock's
    event queue empty while it captures. [None] if no tick is armed. *)
let pause_tick t =
  if t.period = 0 then None
  else begin
    let saved = (t.period, t.next_at) in
    (match t.cancel_tick with Some c -> c () | None -> ());
    t.cancel_tick <- None;
    t.period <- 0;
    Some saved
  end

(** [resume_tick t (period, at)] — re-arm the periodic tick with its
    first fire at absolute time [at] (clamped to now), then every
    [period] ns: the exact phase a paused or restored tick had. *)
let resume_tick t (period, at) =
  stop_tick t;
  if period > 0 then begin
    t.period <- period;
    let rec arm delay =
      t.next_at <- t.clock.Clock.now + delay;
      t.cancel_tick <-
        Some
          (Clock.after t.clock delay (fun () ->
               Intc.raise_line t.fabric t.irq_line;
               if t.period > 0 then arm t.period))
    in
    arm (max 0 (at - t.clock.Clock.now))
  end

(** [oneshot t ns] raises the timer IRQ once, [ns] from now. Returns a
    cancel function. *)
let oneshot t ns =
  Clock.after t.clock ns (fun () -> Intc.raise_line t.fabric t.irq_line)

let mmio_region t ~base : Mem.region =
  { rbase = base; rsize = 0x100; rname = "timer";
    rread =
      (fun off _ ->
        match off with
        | 0x00 -> now_ns t land 0xFFFFFFFF
        | 0x04 -> (now_ns t lsr 32) land 0xFFFFFFFF
        | _ -> 0);
    rwrite =
      (fun off _ v ->
        match off with
        | 0x08 -> if v = 0 then stop_tick t else start_tick t v
        | 0x0C ->
          let _cancel : unit -> unit = oneshot t v in
          ()
        | _ -> ()) }
