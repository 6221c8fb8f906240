(** Bounded-quantum two-core lockstep scheduler.

    The sequential scheduler runs one core at a time against the single
    platform clock. This module runs several {e lanes}, each a core on
    its own clock, in rounds of at most [quantum] ns, with a
    deterministic barrier at every quantum boundary:

    - within a round, every live lane advances its own clock up to the
      round boundary [b = start + k*quantum] (never past it, except by
      the tail of one indivisible charge — an [udelay], an IRQ entry
      sequence — which bounds worst-case skew at [quantum + that tail]);
    - at the barrier, [on_barrier] runs with every lane stopped there;
    - one lane is the platform clock, which holds every pending event;
      the others are private time lines split from it with {!Clock.lane}
      and hold none. No effect crosses between lanes, so at
      [--quantum 1] a solo-core run is byte-identical to the sequential
      scheduler (CI-gated against the manifest and fleet digests).

    {!run} steps the lanes one after another, in lane order. The lanes
    touch disjoint mutable state (the harness runs IRQ-masked CPU work
    over scratch DRAM on the A9's private lane, and the M3 keeps the
    platform clock and the devices), so no lane sees how far another
    has run within a round. The recorder substrate is paused for the
    lanes; it applies the M3's phase marks and takes the sampler's due
    row in [on_barrier]. *)

type status = [ `Runnable | `Blocked | `Done ]

type lane = {
  l_name : string;
  l_clock : Clock.t;
  l_run : deadline:int -> status;
      (** advance the lane until its clock reaches [deadline] (or it
          completes / has nothing left to do). [`Blocked] means nothing
          runnable {e and} no pending events: nothing can wake the lane,
          so the barrier reports a {!Deadlock}. *)
}

type stats = {
  mutable rounds : int;
  mutable max_skew_ns : int;
      (** widest observed gap between any two live lanes' clocks at a
          barrier *)
}

type t = {
  quantum : int;
  lanes : lane array;
  status : status array;
  stats : stats;
  mutable barrier_at : int;
}

let create ~quantum lanes =
  if quantum <= 0 then invalid_arg "Lockstep.create: quantum must be > 0";
  let lanes = Array.of_list lanes in
  if Array.length lanes = 0 then invalid_arg "Lockstep.create: no lanes";
  let start = lanes.(0).l_clock.Clock.now in
  Array.iter
    (fun l ->
      if l.l_clock.Clock.now <> start then
        invalid_arg "Lockstep.create: lanes must start at a common time")
    lanes;
  { quantum; lanes; status = Array.make (Array.length lanes) `Runnable;
    stats = { rounds = 0; max_skew_ns = 0 }; barrier_at = start }

exception Deadlock of string

let live t i = t.status.(i) <> `Done

let describe t =
  String.concat "; "
    (Array.to_list
       (Array.mapi
          (fun i l ->
            Printf.sprintf "%s: %s at %d ns (next event %s)" l.l_name
              (match t.status.(i) with
              | `Runnable -> "runnable"
              | `Blocked -> "blocked"
              | `Done -> "done")
              l.l_clock.Clock.now
              (match Clock.next_event_time l.l_clock with
              | Some at -> string_of_int at
              | None -> "none"))
          t.lanes))

let record_skew t =
  let mn = ref max_int and mx = ref min_int in
  Array.iteri
    (fun i l ->
      if live t i then begin
        mn := min !mn l.l_clock.Clock.now;
        mx := max !mx l.l_clock.Clock.now
      end)
    t.lanes;
  if !mx > !mn then t.stats.max_skew_ns <- max t.stats.max_skew_ns (!mx - !mn)

let any_live t = Array.exists (fun s -> s <> `Done) t.status

(* the barrier, once every lane has reached it: [on_barrier], then the
   forward-progress check — no lane can wake another, so a blocked lane
   is blocked for good *)
let barrier t ~on_barrier =
  record_skew t;
  on_barrier ();
  if Array.mem `Blocked t.status then
    raise
      (Deadlock
         ("lockstep deadlock: a lane is blocked with no events pending ("
        ^ describe t ^ ")"))

(** [run ?on_barrier t] — drive all lanes to [`Done]: each round steps
    every live lane, in lane order, up to the round boundary, then holds
    the barrier, where [on_barrier] runs. Returns the stats.
    @raise Deadlock when a lane reports [`Blocked]. *)
let run ?(on_barrier = ignore) t =
  while any_live t do
    t.stats.rounds <- t.stats.rounds + 1;
    t.barrier_at <- t.barrier_at + t.quantum;
    for i = 0 to Array.length t.lanes - 1 do
      if live t i then t.status.(i) <- t.lanes.(i).l_run ~deadline:t.barrier_at
    done;
    barrier t ~on_barrier
  done;
  t.stats

(** [merge_lane ~into lane] — after a concurrent segment: advance the
    platform clock [into] to the later of the two times. A lane holds
    no event, so there is nothing else to merge.
    @raise Invalid_argument if [lane] holds one. *)
let merge_lane ~(into : Clock.t) (lane : Clock.t) =
  if Clock.next_event_time lane <> None then
    invalid_arg "Lockstep.merge_lane: the lane holds an event";
  into.Clock.now <- max into.Clock.now lane.Clock.now
