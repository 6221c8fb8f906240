(** Simulated platform time and event queues.

    One nanosecond clock per simulated platform. The currently executing
    core advances its clock as it retires instructions; device-side
    activity (power-state transitions completing, DMA finishing, timer
    expiry) is scheduled as absolute-time events. When the core idles
    (WFI), time fast-forwards to the next event — that is exactly how
    the busy/idle split of Figure 5a arises.

    The pending queue is a binary min-heap keyed by [(at, seq)] — [seq]
    is a monotone insertion counter, so same-instant events still fire
    in FIFO order, byte-identical to the seed's sorted-list insertion.
    Cancellation is lazy (a [live] flag; dead events are purged when
    they reach the root), so both [at] and cancel are O(log n) where the
    seed's were O(n) — fleet worlds carry dozens of armed timers and
    device completions, where the quadratic list walk was measurable.

    Every event lives on the platform clock. The lockstep scheduler
    gives a core with no events of its own (the concurrent A9 workload)
    a private time line with {!lane}; that lane never holds an event
    ({!Lockstep.merge_lane} refuses one). *)

type event = {
  at : int;
  seq : int;
  fn : unit -> unit;
  mutable live : bool;  (** lazily-cancelled events are skipped at pop *)
}

type t = {
  mutable now : int;  (** ns since simulation start *)
  mutable heap : event array;  (** min-heap by (at, seq); [size] slots used *)
  mutable size : int;
  mutable seq : int;  (** the insertion counter *)
  mutable next_at : int;
      (** [at] of the earliest live event, [max_int] when none — may
          transiently under-report after a root cancellation, which only
          costs callers a spurious {!run_due} (it fires nothing), or a
          core an early settle. The guard of {!advance} reads it, and a
          core reads it to bound the cycles it may leave owed
          ({!Core.charge}). *)
}

let dummy = { at = 0; seq = -1; fn = ignore; live = false }

let create () =
  { now = 0; heap = Array.make 8 dummy; size = 0; seq = 0; next_at = max_int }

(** [lane t] — a fresh empty queue at [t]'s current time: a private
    time line for a core that arms no events (the lockstep scheduler's
    A9 lane). *)
let lane t = { (create ()) with now = t.now }

(* ------------------------------ heap ------------------------------ *)

let less (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less ev h.(parent) then begin
      h.(!i) <- h.(parent);
      i := parent
    end
    else continue := false
  done;
  h.(!i) <- ev;
  if ev.at < t.next_at then t.next_at <- ev.at

(* remove the root, restoring the heap property *)
let pop_discard t =
  let h = t.heap in
  t.size <- t.size - 1;
  let last = h.(t.size) in
  h.(t.size) <- dummy;
  if t.size > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i in
      (* h.(!i) currently conceptually holds [last] *)
      if l < t.size && less h.(l) last then smallest := l;
      if
        r < t.size
        && less h.(r) (if !smallest = !i then last else h.(!smallest))
      then smallest := r;
      if !smallest = !i then begin
        h.(!i) <- last;
        continue := false
      end
      else begin
        h.(!i) <- h.(!smallest);
        i := !smallest
      end
    done
  end

(* drop dead events off the root and refresh [next_at] *)
let rec purge t =
  if t.size = 0 then t.next_at <- max_int
  else begin
    let e = t.heap.(0) in
    if e.live then t.next_at <- e.at
    else begin
      pop_discard t;
      purge t
    end
  end

(* ------------------------------ API ------------------------------- *)

(** [at t ns fn] schedules [fn] to run at absolute time [ns] (clamped to
    now). Returns a cancel function. *)
let at t ns fn =
  let seq = t.seq in
  t.seq <- seq + 1;
  let ev = { at = max ns t.now; seq; fn; live = true } in
  push t ev;
  fun () ->
    if ev.live then begin
      ev.live <- false;
      (* keep [next_at] honest when the root died, so the guard of
         {!advance} stays cheap and rarely spurious *)
      if t.size > 0 && t.heap.(0) == ev then purge t
    end

(** [after t dns fn] schedules [fn] in [dns] ns from now. *)
let after t dns fn = at t (t.now + dns) fn

(** [after_ t dns fn] — like {!after}, discarding the cancel handle. *)
let after_ t dns fn =
  let _cancel : unit -> unit = after t dns fn in
  ()

(** [run_due t] fires every live event with [at <= now], in (at, seq)
    order — including events scheduled by the handlers themselves. *)
let rec run_due t =
  if t.size = 0 then t.next_at <- max_int
  else begin
    let e = t.heap.(0) in
    if not e.live then begin
      pop_discard t;
      run_due t
    end
    else if e.at <= t.now then begin
      pop_discard t;
      e.fn ();
      run_due t
    end
    else t.next_at <- e.at
  end

(** [advance t dns] moves time forward by [dns] ns and fires due events. *)
let advance t dns =
  t.now <- t.now + dns;
  if t.next_at <= t.now then run_due t

(** [next_event_time t] is the time of the earliest live pending event. *)
let next_event_time t =
  purge t;
  if t.size = 0 then None else Some t.heap.(0).at

(** [skip_to_next_event t ~limit] fast-forwards to the next event, but
    never past absolute time [limit] (a quantum boundary; [max_int] for
    none), and fires whatever is due there; returns the ns skipped. An
    event past [limit] stays pending, with time at [limit].
    Returns [None], with time unmoved, when no event is pending. *)
let skip_to_next_event t ~limit =
  match next_event_time t with
  | None -> None
  | Some at ->
    let target = max t.now (min at limit) in
    let skipped = target - t.now in
    t.now <- target;
    run_due t;
    Some skipped

(* --------------------------- snapshots ---------------------------- *)

(** [seq_value t] / [pending t] — the capture half of World fork: the
    counter position and the live pending events in (at, seq) order.
    The returned records are fresh copies, so cancellations that happen
    after the capture cannot reach into the snapshot. *)
let seq_value t = t.seq

let pending t =
  let live = ref [] in
  for i = t.size - 1 downto 0 do
    let e = t.heap.(i) in
    if e.live then live := e :: !live
  done;
  List.sort
    (fun (a : event) b -> compare (a.at, a.seq) (b.at, b.seq))
    !live

(** [restore_pending t ~now ~seq evs] — the restore half: rewind time
    and the counter and replace the whole queue with (fresh copies of)
    [evs]. Cancel handles minted before the restore are dead letters
    afterwards — every in-tree cancel user (the tick timers) is
    stopped/re-armed around a World restore, so none survive. *)
let restore_pending t ~now ~seq evs =
  t.now <- now;
  t.seq <- seq;
  t.size <- 0;
  Array.fill t.heap 0 (Array.length t.heap) dummy;
  t.next_at <- max_int;
  List.iter
    (fun (e : event) -> push t { at = e.at; seq = e.seq; fn = e.fn; live = true })
    evs
