(** The platform recorder: the one substrate every producer calls.

    It owns the {!Substrate} — the simulated-time hook, the named-gauge
    registry and the flag word — and the three consumers over it: the
    flight recorder ({!Trace}), the sampler ({!Timeseries}) and the span
    tracer ({!Span}). Producers (the execution loops, the interrupt
    controllers, the devices, the DBT engine, the harness phase marks)
    make one call here per event; each consumer records it while on.

    Single-writer rule: one host domain at a time may call in. A
    lockstep concurrent segment {!pause}s the recorder while its lanes
    run, because the time hook reads the platform clock, which is then
    the A9's lane: an M3 event recorded there would carry the A9's
    time. The M3 lane's phase marks are posted to the next barrier,
    which applies them and takes the sampler's due row ({!barrier}).
    Point events and run and translation bursts inside a segment are
    not recorded. *)

open Substrate

type t = {
  sub : Substrate.t;
  trace : Trace.t;
  sampler : Timeseries.t;
  spans : Span.t;
  mutable lane : (int * ((unit -> unit) -> unit)) option;
      (** while paused: the marking lane's core and its barrier post *)
}

(** [create ~now ()] — a substrate on the simulated-time hook [now] and
    its three consumers, all disabled. *)
let create ?(now = fun () -> 0) () =
  let sub = Substrate.create now in
  { sub; trace = Trace.create sub; sampler = Timeseries.create sub;
    spans = Span.create sub; lane = None }

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

(* [f] at a barrier of a paused segment, where every lane is stopped at
   the boundary *)
let unpaused r f =
  Substrate.pause r.sub false;
  f ();
  Substrate.pause r.sub true

(** [phase r code] — a phase mark: the flight recorder's snapshot, the
    sampler's boundary row and the span tracer's phase frames. While
    paused, the marking lane reads its own gauges now and posts the mark
    to the next barrier, which reads every other gauge. *)
let rec phase r code =
  let on = r.sub.on in
  if on land trace_bit <> 0 then Trace.phase r.trace code;
  if on land sampler_bit <> 0 then Timeseries.phase r.sampler code;
  if on land spans_bit <> 0 then Span.phase r.spans code;
  match r.lane with
  | Some (core, post) when r.sub.paused && r.sub.live <> 0 ->
    let vs = Substrate.hold r.sub ~core in
    post (fun () ->
        unpaused r (fun () ->
            Substrate.with_held r.sub ~core vs (fun () -> phase r code)))
  | _ -> ()

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

(** [pause r lane] — [Some (core, post)] pauses the recorder for a
    concurrent segment, whose lane for [core] posts its phase marks
    through [post]; [None] resumes. *)
let pause r lane =
  r.lane <- lane;
  Substrate.pause r.sub (lane <> None)

(** [barrier r] — at a barrier of a paused segment: the sampler's due
    row. *)
let barrier r =
  if r.sub.live land sampler_bit <> 0 then
    unpaused r (fun () -> tick r)
