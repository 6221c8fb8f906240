(** The platform recorder: the one substrate every producer calls.

    It owns the {!Substrate} — the simulated-time hook, the named-gauge
    registry and the flag word — and the three consumers over it: the
    flight recorder ({!Trace}), the sampler ({!Timeseries}) and the span
    tracer ({!Span}). Producers (the execution loops, the interrupt
    controllers, the devices, the DBT engine, the harness phase marks)
    make one call here per event; each consumer records it while on.

    Single-writer rule: one host domain at a time may call in. A
    lockstep concurrent segment {!pause}s the recorder while its lanes
    run, because the time hook reads the A9's clock, which is then the
    A9's private lane: an M3 event recorded there would carry the A9's
    time. The recorder holds the M3's phase marks until the next
    barrier, which applies them and takes the sampler's due row
    ({!barrier}). Point events and run and translation bursts inside a
    segment are not recorded. *)

open Substrate

type t = {
  sub : Substrate.t;
  trace : Trace.t;
  sampler : Timeseries.t;
  spans : Span.t;
  mutable lane : int;  (** while paused: the marking lane's core, else -1 *)
  mutable held : (int * int array) list;
      (** the paused lane's phase marks, newest first: each code with
          the lane's own gauges read at the mark *)
}

(** [create ~now ()] — a substrate on the simulated-time hook [now] and
    its three consumers, all disabled. *)
let create ?(now = fun () -> 0) () =
  let sub = Substrate.create now in
  { sub; trace = Trace.create sub; sampler = Timeseries.create sub;
    spans = Span.create sub; lane = -1; held = [] }

(** Shared always-disabled instance, the default wiring target for
    components built before their platform hands them the real
    recorder. Never enable it. *)
let null = create ()

(** Is the flight recorder or the sampler on (and the recorder not
    paused)? They are what the execution loops feed per instruction, so
    the loops hoist this once per run; span bursts are per run. *)
let recording r = r.sub.on land (trace_bit lor sampler_bit) <> 0

(** [event r ~core kind a b] — a point event ({!Trace} kinds): the
    flight recorder logs it, and the span tracer derives its async IRQ
    and power-ramp spans from it ({!Span.event_kinds}). *)
let event r ~core kind a b =
  let on = r.sub.on in
  if on land trace_bit <> 0 then Trace.emit r.trace ~core kind a b;
  if on land spans_bit <> 0 && Span.event_kinds land (1 lsl kind) <> 0 then
    Span.event r.spans ~core kind a b

(** [tick r] — the sampler's hot-loop probe: a row once its period has
    elapsed. *)
let tick r =
  let ts = r.sampler in
  if r.sub.on land sampler_bit <> 0 && r.sub.now () >= ts.Timeseries.next_due
  then Timeseries.sample_now ts

(** [phase r code] — a phase mark: the flight recorder's snapshot, the
    sampler's boundary row and the span tracer's phase frames. While
    paused, the marking lane reads its own gauges now and the mark waits
    for the next {!barrier}, which reads every other gauge. *)
let phase r code =
  let on = r.sub.on in
  if on land trace_bit <> 0 then Trace.phase r.trace code;
  if on land sampler_bit <> 0 then Timeseries.phase r.sampler code;
  if on land spans_bit <> 0 then Span.phase r.spans code;
  if r.lane >= 0 && r.sub.paused && r.sub.live <> 0 then
    r.held <- (code, Substrate.hold r.sub ~core:r.lane) :: r.held

(** [burst_open ?slot r ~core kind arg] opens a span burst of [kind]
    (see {!Span.open_burst}); with [slot], reopens that frame cut by a
    scheduler quantum ({!Span.reopen}). Returns the {!burst_close}
    token, [-1] while the span tracer is off. *)
let burst_open ?(slot = -1) r ~core kind arg =
  if r.sub.on land spans_bit = 0 then -1
  else if slot >= 0 then Span.reopen r.spans ~core kind ~slot arg
  else Span.open_burst r.spans ~core kind arg

(** [burst_slot r tok] — the slot of the open burst [tok], for a later
    [burst_open ~slot] ([-1] for none). *)
let burst_slot r tok = if tok < 0 then -1 else Span.slot_of r.spans tok

(** [burst_close ?ev r ~core tok] closes burst [tok]; [ev] is the point
    event [(kind, a, b)] that ends it, if any, recorded first. *)
let burst_close ?ev r ~core tok =
  (match ev with Some (kind, a, b) -> event r ~core kind a b | None -> ());
  if tok >= 0 && r.sub.on land spans_bit <> 0 then
    Span.leave r.spans tok

(** [pause r lane] — [Some core] pauses the recorder for a concurrent
    segment, holding the phase marks of [core]'s lane for the barriers;
    [None] resumes, dropping any mark still held. *)
let pause r lane =
  r.lane <- Option.value lane ~default:(-1);
  r.held <- [];
  Substrate.pause r.sub (lane <> None)

(** [barrier r] — at a barrier of a paused segment, with every lane
    stopped at the boundary: the held phase marks in the order they were
    made, then the sampler's due row. Returns how many marks it
    applied. *)
let barrier r =
  let marks = List.rev r.held in
  r.held <- [];
  if marks <> [] || r.sub.live land sampler_bit <> 0 then begin
    Substrate.pause r.sub false;
    List.iter
      (fun (code, vs) ->
        Substrate.with_held r.sub ~core:r.lane vs (fun () -> phase r code))
      marks;
    tick r;
    Substrate.pause r.sub true
  end;
  List.length marks
