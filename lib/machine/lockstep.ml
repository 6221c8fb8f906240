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
      a fixed (time, lane, arrival-seq) order, so the observable
      interleaving is a pure function of the configuration — never of
      host scheduling;
    - lanes share the platform clock's [seq] allocator, so the merged
      event order across both queues is total, and at [--quantum 1] a
      solo-core run is byte-identical to the sequential scheduler
      (CI-gated against the manifest and fleet digests).

    Rounds are driven either by a deterministic interleave (lane order
    fixed, single domain — the default) or with each extra lane on its
    own [Domain] ([~domains:true]) — the barrier is then a real
    synchronization point. Domain mode requires the lanes to touch
    disjoint mutable state between barriers. The harness arranges this:
    the A9 runs IRQ-masked CPU work, the M3 owns the devices via
    [Soc.sched_clock], and the recorder substrate is paused for the
    lanes — the M3's phase marks are {!post}ed and the sampler's due
    row taken by [on_barrier], both on the driving domain. *)

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

type commit = { c_at : int; c_seq : int; c_fn : unit -> unit }

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
  posted : commit list ref array;  (** per-lane, newest first *)
  seqs : int array;  (** per-lane commit arrival counters *)
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
    posted = Array.init (Array.length lanes) (fun _ -> ref []);
    seqs = Array.make (Array.length lanes) 0;
    stats = { rounds = 0; commits = 0; max_skew_ns = 0 };
    barrier_at = start }

(** [post t ~lane fn] — record a cross-lane effect produced by [lane]
    during the current round; [fn] runs at the next barrier, ordered by
    (time-posted-at, lane, arrival order). Lanes may only post from
    their own execution (in domain mode this keeps the buffers
    single-writer). *)
let post t ~lane fn =
  let at = t.lanes.(lane).l_clock.Clock.now in
  let seq = t.seqs.(lane) in
  t.seqs.(lane) <- seq + 1;
  let buf = t.posted.(lane) in
  buf := { c_at = at; c_seq = seq; c_fn = fn } :: !buf

(* flush every posted commit in (time, lane, arrival) order; returns how
   many ran. Commits run on the driving domain, after all lanes have
   reached the barrier — they may schedule events on any lane. *)
let flush_commits t =
  let all = ref [] in
  Array.iteri
    (fun lane buf ->
      List.iter (fun c -> all := (c.c_at, lane, c.c_seq, c.c_fn) :: !all) !buf;
      buf := [])
    t.posted;
  let ordered =
    List.sort
      (fun (a1, l1, s1, _) (a2, l2, s2, _) -> compare (a1, l1, s1) (a2, l2, s2))
      !all
  in
  List.iter (fun (_, _, _, fn) -> fn ()) ordered;
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

(* the barrier, on the driving domain once every lane has reached it:
   commits, then [on_barrier], then the forward-progress check — a
   round where every live lane is blocked, no commit ran and no lane
   holds a pending event can never unblock *)
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

(* ------------------------ deterministic rounds ----------------------- *)

let run_interleaved t ~on_barrier =
  while any_live t do
    t.stats.rounds <- t.stats.rounds + 1;
    t.barrier_at <- t.barrier_at + t.quantum;
    for i = 0 to Array.length t.lanes - 1 do
      if live t i then step_lane t i ~deadline:t.barrier_at
    done;
    barrier t ~on_barrier
  done

(* --------------------------- domain rounds --------------------------- *)

(* One persistent worker domain per extra lane; the main domain runs
   lane 0. Each round: publish the boundary, let every live lane run
   concurrently, then rendezvous — the mutex/condition pair is the
   barrier. Commits are flushed on the main domain only, between
   rounds, so cross-lane state is never touched concurrently. *)
type worker_cmd = Run of int | Quit

type worker_box = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable cmd : worker_cmd option;
  mutable done_round : bool;
}

let run_domains t ~on_barrier =
  let n = Array.length t.lanes in
  let boxes =
    Array.init (n - 1) (fun _ ->
        { mu = Mutex.create (); cv = Condition.create (); cmd = None;
          done_round = false })
  in
  let workers =
    Array.init (n - 1) (fun w ->
        Domain.spawn (fun () ->
            let box = boxes.(w) in
            let lane = w + 1 in
            let rec serve () =
              Mutex.lock box.mu;
              while box.cmd = None do
                Condition.wait box.cv box.mu
              done;
              let cmd = Option.get box.cmd in
              box.cmd <- None;
              Mutex.unlock box.mu;
              match cmd with
              | Quit -> ()
              | Run deadline ->
                if live t lane then step_lane t lane ~deadline;
                Mutex.lock box.mu;
                box.done_round <- true;
                Condition.signal box.cv;
                Mutex.unlock box.mu;
                serve ()
            in
            serve ()))
  in
  let tell w cmd =
    let box = boxes.(w) in
    Mutex.lock box.mu;
    box.cmd <- Some cmd;
    Condition.signal box.cv;
    Mutex.unlock box.mu
  in
  let await w =
    let box = boxes.(w) in
    Mutex.lock box.mu;
    while not box.done_round do
      Condition.wait box.cv box.mu
    done;
    box.done_round <- false;
    Mutex.unlock box.mu
  in
  Fun.protect
    ~finally:(fun () ->
      for w = 0 to n - 2 do
        tell w Quit
      done;
      Array.iter Domain.join workers)
    (fun () ->
      while any_live t do
        t.stats.rounds <- t.stats.rounds + 1;
        t.barrier_at <- t.barrier_at + t.quantum;
        for w = 0 to n - 2 do
          tell w (Run t.barrier_at)
        done;
        if live t 0 then step_lane t 0 ~deadline:t.barrier_at;
        for w = 0 to n - 2 do
          await w
        done;
        barrier t ~on_barrier
      done)

(** [run ?domains ?on_barrier t] — drive all lanes to [`Done]; after
    each barrier's commits, [on_barrier] runs on the driving domain.
    Returns the stats. *)
let run ?(domains = false) ?(on_barrier = ignore) t =
  if domains && Array.length t.lanes > 1 then run_domains t ~on_barrier
  else run_interleaved t ~on_barrier;
  t.stats

(** [merge_lane ~into lane] — after a concurrent segment: advance the
    surviving clock to the latest lane time and fold any still-pending
    lane events back onto it with their original (at, seq), so the
    merged queue fires in exactly the order the shared-allocator global
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
