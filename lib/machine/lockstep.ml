(** Bounded-quantum two-core lockstep scheduler.

    The sequential scheduler runs one core at a time against the single
    platform clock. This module runs several {e lanes} — each a core
    with a private event queue split from the platform clock via
    {!Clock.lane} — in rounds of at most [quantum] ns, with a
    deterministic barrier at every quantum boundary:

    - within a round, every live lane advances its own clock up to the
      round boundary [b = start + k*quantum] (never past it, except by
      the tail of one indivisible charge — an [udelay], an IRQ entry
      sequence — which bounds worst-case skew at [quantum + that tail]);
    - at the barrier, cross-lane effects posted during the round (IRQ
      deliveries, DMA completions, shared-memory pokes) are committed in
      a fixed (time, lane, arrival) order, so the observable
      interleaving is a pure function of the configuration;
    - lanes share the platform clock's [seq] counter, so the merged
      event order across both queues is total, and at [--quantum 1] a
      solo-core run is byte-identical to the sequential scheduler
      (CI-gated against the manifest and fleet digests).

    {!run} steps the lanes one after another, in lane order. Between
    barriers the lanes touch disjoint mutable state (the harness runs
    IRQ-masked CPU work on the A9, and the M3 owns the devices via
    [Soc.sched_clock]), so no lane sees how far another has run within
    a round. The recorder substrate is paused for the lanes: the M3's
    phase marks are {!post}ed and the sampler's due row taken by
    [on_barrier]. *)

type status = [ `Runnable | `Blocked | `Done ]

type lane = {
  l_name : string;
  l_clock : Clock.t;
  l_run : deadline:int -> status;
      (** advance the lane until its clock reaches [deadline] (or it
          completes / has nothing left to do). [`Blocked] means nothing
          runnable {e and} no pending events: the driver drags the
          lane's clock along and re-polls it after each barrier, since a
          cross-lane commit can wake it. *)
}

type commit = { c_at : int; c_lane : int; c_fn : unit -> unit }

type stats = {
  mutable rounds : int;
  mutable commits : int;
  mutable max_skew_ns : int;
      (** widest observed gap between any two live lanes' clocks at a
          barrier *)
}

type t = {
  quantum : int;
  lanes : lane array;
  status : status array;
  mutable posted : commit list;  (** newest first *)
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
    posted = [];
    stats = { rounds = 0; commits = 0; max_skew_ns = 0 };
    barrier_at = start }

(** [post t ~lane fn] — record a cross-lane effect produced by [lane]
    during the current round; [fn] runs at the next barrier, ordered by
    (time-posted-at, lane, arrival order). *)
let post t ~lane fn =
  t.posted <-
    { c_at = t.lanes.(lane).l_clock.Clock.now; c_lane = lane; c_fn = fn }
    :: t.posted

(* flush every posted commit in (time, lane, arrival) order — a stable
   sort of the arrival-ordered list; returns how many ran. Commits run
   after all lanes have reached the barrier: they may schedule events
   on any lane, and what they post goes to the next barrier. *)
let flush_commits t =
  let ordered =
    List.stable_sort
      (fun a b -> compare (a.c_at, a.c_lane) (b.c_at, b.c_lane))
      (List.rev t.posted)
  in
  t.posted <- [];
  List.iter (fun c -> c.c_fn ()) ordered;
  List.length ordered

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

let step_lane t i ~deadline =
  let l = t.lanes.(i) in
  let st = l.l_run ~deadline in
  t.status.(i) <- st;
  (* a blocked lane's time is dragged to the boundary so a later wakeup
     resumes in the present, not the past; any event a commit armed in
     the meantime fires on arrival at the boundary — and may unblock
     the lane, so re-poll to keep the status (and with it the stuck
     detection) honest. The clock sits at the boundary, so the re-poll
     cannot advance time: it only refreshes the status. *)
  if st = `Blocked && l.l_clock.Clock.now < deadline then begin
    l.l_clock.Clock.now <- deadline;
    Clock.run_due l.l_clock;
    t.status.(i) <- l.l_run ~deadline
  end

let any_live t =
  let r = ref false in
  for i = 0 to Array.length t.lanes - 1 do
    if live t i then r := true
  done;
  !r

(* the barrier, once every lane has reached it: commits, then
   [on_barrier], then the forward-progress check — a round where every
   live lane is blocked, no commit ran and no lane holds a pending
   event can never unblock *)
let barrier t ~on_barrier =
  record_skew t;
  let committed = flush_commits t in
  t.stats.commits <- t.stats.commits + committed;
  on_barrier ();
  if committed = 0 then begin
    (* vacuously "stuck" when every lane just finished: not a deadlock *)
    let stuck = ref (any_live t) in
    for i = 0 to Array.length t.lanes - 1 do
      if
        live t i
        && (t.status.(i) <> `Blocked
           || Clock.next_event_time t.lanes.(i).l_clock <> None)
      then stuck := false
    done;
    if !stuck then
      raise
        (Deadlock
           ("lockstep deadlock: all lanes blocked with no events or \
             commits pending (" ^ describe t ^ ")"))
  end

(** [run ?on_barrier t] — drive all lanes to [`Done]: each round steps
    every live lane, in lane order, up to the round boundary, then holds
    the barrier; after each barrier's commits, [on_barrier] runs.
    Returns the stats. *)
let run ?(on_barrier = ignore) t =
  while any_live t do
    t.stats.rounds <- t.stats.rounds + 1;
    t.barrier_at <- t.barrier_at + t.quantum;
    for i = 0 to Array.length t.lanes - 1 do
      if live t i then step_lane t i ~deadline:t.barrier_at
    done;
    barrier t ~on_barrier
  done;
  t.stats

(** [merge_lane ~into lane] — after a concurrent segment: advance the
    surviving clock to the latest lane time and fold any still-pending
    lane events back onto it with their original (at, seq), so the
    merged queue fires in exactly the order the shared-counter global
    order defines. The lane is left empty at the merged time. *)
let merge_lane ~(into : Clock.t) (lane : Clock.t) =
  into.Clock.now <- max into.Clock.now lane.Clock.now;
  let evs = Clock.pending lane in
  let keep = Clock.pending into in
  Clock.restore_pending into ~now:into.Clock.now ~seq:(Clock.seq_value into)
    (List.sort
       (fun (a : Clock.event) b ->
         compare (a.Clock.at, a.Clock.seq) (b.Clock.at, b.Clock.seq))
       (keep @ evs));
  Clock.restore_pending lane ~now:into.Clock.now ~seq:(Clock.seq_value lane)
    []
