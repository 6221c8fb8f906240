(** Causal span tracer: where did this wakeup's time go?

    The flight recorder ({!Trace}) emits unordered point events and the
    sampler ({!Timeseries}) emits periodic rows; neither answers "what
    happened {e inside} this 3.2 ms wakeup". This module records
    intervals instead: a stack of open spans on the (single-threaded)
    simulated timeline forms a causal tree per wakeup — root span
    [wakeup] from the runner's sleep-end mark to resume-end, with
    children for the resume phase, interpreter/DBT execution bursts,
    per-device phase intervals, plus overlapping async spans for IRQ
    delivery latency and device power-rail ramps.

    Every frame span snapshots a set of monotone attribution gauges
    (instructions, stall cycles, translate cycles, fallback count,
    core energy) at open and close, so sibling deltas telescope into
    the parent delta exactly — the same reconciliation discipline as
    the energy ledger's 0.1% bar, applied to time. {!reconcile}
    computes the residuals; test/test_span.ml pins the bar.

    The clock and the attribution gauges are the platform {!Substrate}'s;
    producers open and close bursts, and post the point events that
    bound the async spans, through its {!Recorder}.

    Cost discipline matches {!Trace}: recording is simulation-neutral,
    every producer guards on the substrate's flag word, and the enabled
    path allocates nothing (pre-sized parallel arrays, no closures). *)

(* ------------------------- span kinds -------------------------------- *)

let sk_wakeup = 0
let sk_suspend = 1
let sk_sleep = 2
let sk_resume = 3
let sk_run = 4
let sk_irq_deliver = 5
let sk_dbt_translate = 6
let sk_dbt_form = 7
let sk_power_ramp = 8
let sk_dev_phase = 9
let nkinds = 10

let kind_name = function
  | 0 -> "wakeup"
  | 1 -> "suspend"
  | 2 -> "sleep"
  | 3 -> "resume"
  | 4 -> "run"
  | 5 -> "irq-deliver"
  | 6 -> "dbt-translate"
  | 7 -> "dbt-form"
  | 8 -> "power-ramp"
  | 9 -> "dev-phase"
  | _ -> "?"

(* the inverse of [kind_name]: one vocabulary table *)
let kind_of_name n =
  let rec find k =
    if k >= nkinds then None else if kind_name k = n then Some k
    else find (k + 1)
  in
  find 0

(* Async spans overlap their siblings (they measure latency across the
   timeline, not exclusive execution), so reconciliation and any
   child-sums-to-parent reasoning must skip them. *)
let is_async k = k = sk_irq_deliver || k = sk_power_ramp || k = sk_dev_phase

(* ---------------------- phase marker codes --------------------------- *)

(* Mirrored from Tk_kernel.Hyper — tk_stats sits below the kernel layer,
   so the values are pinned here and cross-checked by test/test_span.ml:
   1/2 suspend begin/end, 3/4 resume begin/end, 900/901 the runner's
   sleep begin/end, and 100 + dev*10 + k per-device marks with
   k = 0..3 meaning suspend begin/end, resume begin/end. *)
let ph_suspend_begin = 1
let ph_suspend_end = 2
let ph_resume_begin = 3
let ph_resume_end = 4
let ph_sleep_begin = 900
let ph_sleep_end = 901
let ph_dev_mark = 100

(* --------------------------- recorder -------------------------------- *)

type t = {
  sub : Substrate.t;
  mutable enabled : bool;
  mutable cap : int;
  mutable gauges : Substrate.gauge array;  (* baked at enable *)
  (* parallel span arrays, slot-indexed; a slot is allocated at open and
     stays in open order, so children always follow their parent *)
  mutable q_kind : int array;
  mutable q_core : int array;
  mutable q_parent : int array;  (* slot of the enclosing frame, -1 root *)
  mutable q_t0 : int array;
  mutable q_t1 : int array;  (* -1 while open *)
  mutable q_arg : int array;
  mutable q_a0 : int array;  (* gauge snapshots, slot * ngauges + g *)
  mutable q_a1 : int array;
  mutable n : int;  (* allocated slots *)
  mutable dropped : int;  (* spans refused at capacity (newest dropped) *)
  stack : int array;  (* open-frame slots, -1 for a dropped frame *)
  mutable depth : int;
  (* async open times, -1 when none is open *)
  dev_t0 : int array;  (* device phase marks, dev*2 + phase *)
  irq_t0 : int array;  (* raised lines, core * max_lines + line *)
  ramp_t0 : int array;  (* power-rail ramps, by device slot *)
}

let default_cap = 1 lsl 16
let coalesce_gap_ns = 500  (* bursts this close merge: [enter_coalesced] *)
let max_depth = 64
let max_dev_cells = 64
let max_lines = 128

let create sub =
  { sub; enabled = false; cap = default_cap;
    gauges = [||]; q_kind = [||]; q_core = [||]; q_parent = [||];
    q_t0 = [||]; q_t1 = [||]; q_arg = [||]; q_a0 = [||]; q_a1 = [||]; n = 0;
    dropped = 0; stack = Array.make max_depth (-1); depth = 0;
    dev_t0 = Array.make max_dev_cells (-1);
    irq_t0 = Array.make (3 * max_lines) (-1);
    ramp_t0 = Array.make max_dev_cells (-1) }

let reset t =
  t.n <- 0;
  t.dropped <- 0;
  t.depth <- 0;
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) (-1))
    [ t.dev_t0; t.irq_t0; t.ramp_t0 ]

let allocate t =
  let ng = Array.length t.gauges in
  t.q_kind <- Array.make t.cap 0;
  t.q_core <- Array.make t.cap 0;
  t.q_parent <- Array.make t.cap (-1);
  t.q_t0 <- Array.make t.cap 0;
  t.q_t1 <- Array.make t.cap (-1);
  t.q_arg <- Array.make t.cap 0;
  t.q_a0 <- Array.make (max 1 (t.cap * ng)) 0;
  t.q_a1 <- Array.make (max 1 (t.cap * ng)) 0

let enable ?cap t =
  (match cap with Some c -> t.cap <- max 16 c | None -> ());
  t.gauges <- Substrate.gauges t.sub Substrate.spans_bit;
  allocate t;
  reset t;
  t.enabled <- true;
  Substrate.set_live t.sub Substrate.spans_bit true

let disable t =
  t.enabled <- false;
  Substrate.set_live t.sub Substrate.spans_bit false

(* ------------------------- recording --------------------------------- *)

let snap t (arr : int array) s =
  let ng = Array.length t.gauges in
  let base = s * ng in
  for g = 0 to ng - 1 do
    Array.unsafe_set arr (base + g)
      ((Array.unsafe_get t.gauges g).Substrate.read ())
  done

(* a fresh slot for a span parented to the current top of stack, its
   open gauges snapshotted; -1 (counted dropped) at capacity *)
let alloc t ~core kind arg ~t0 ~t1 =
  if t.n < t.cap then begin
    let s = t.n in
    t.n <- s + 1;
    t.q_kind.(s) <- kind;
    t.q_core.(s) <- core;
    t.q_arg.(s) <- arg;
    t.q_parent.(s) <- (if t.depth > 0 then t.stack.(t.depth - 1) else -1);
    t.q_t0.(s) <- t0;
    t.q_t1.(s) <- t1;
    snap t t.q_a0 s;
    s
  end
  else begin
    t.dropped <- t.dropped + 1;
    -1
  end

(** [enter t ~core kind arg] opens a frame span nested under the current
    top of stack, returning a depth token for {!leave}. *)
let enter t ~core kind arg =
  let tok = t.depth in
  if tok < max_depth then begin
    t.stack.(tok) <-
      alloc t ~core kind arg ~t0:(t.sub.Substrate.now ()) ~t1:(-1);
    t.depth <- tok + 1
  end
  else t.dropped <- t.dropped + 1;
  tok

let close_top t tnow =
  t.depth <- t.depth - 1;
  let s = t.stack.(t.depth) in
  if s >= 0 then begin
    t.q_t1.(s) <- tnow;
    snap t t.q_a1 s
  end

(** [leave t tok] closes every frame opened since the {!enter} that
    returned [tok] — exception-safe span closing under [Fun.protect]
    truncates stray inner frames at the current instant. *)
let leave t tok =
  if t.depth > tok then begin
    let tnow = t.sub.Substrate.now () in
    while t.depth > tok do
      close_top t tnow
    done
  end

(* can the closed span at [s] reopen as the next [kind]/[core] frame
   under the current top of stack? *)
let reopenable t ~core kind s =
  let tok = t.depth in
  s >= 0 && s < t.n && tok < max_depth
  && t.q_t1.(s) >= 0
  && t.q_kind.(s) = kind
  && t.q_core.(s) = core
  && t.q_parent.(s) = (if tok > 0 then t.stack.(tok - 1) else -1)

let reopen_slot t s arg =
  let tok = t.depth in
  t.q_t1.(s) <- -1;
  t.q_arg.(s) <- t.q_arg.(s) + arg;
  t.stack.(tok) <- s;
  t.depth <- tok + 1;
  tok

(** [enter_coalesced] — like {!enter}, but if the most recently
    allocated span is a just-closed sibling of the same kind/core within
    [coalesce_gap_ns], reopen it instead (accumulating [arg]): turns
    back-to-back DBT translate calls into one burst span instead of a
    picket fence of points. *)
let enter_coalesced t ~core kind arg =
  let s = t.n - 1 in
  if
    reopenable t ~core kind s
    && t.sub.Substrate.now () - t.q_t1.(s) <= coalesce_gap_ns
  then reopen_slot t s arg
  else enter t ~core kind arg

(** [slot_of t tok] — the slot of the still-open frame behind token
    [tok] ([-1] if it was dropped). For schedulers that must reopen a
    frame cut mid-burst: capture the slot before {!leave}, hand it to
    {!reopen} afterwards. *)
let slot_of t tok = if tok >= 0 && tok < t.depth then t.stack.(tok) else -1

(** [reopen t ~core kind ~slot arg] — reopen the closed frame at
    [slot]: a bounded-quantum cut, where zero simulated time passed
    since the close and the enclosing frame is unchanged, so the
    reopened interval telescopes exactly as if it was never cut. Falls
    back to a fresh {!enter} when the slot no longer matches (recorder
    restarted, frame dropped at the cap, different enclosing frame). *)
let reopen t ~core kind ~slot arg =
  if reopenable t ~core kind slot then reopen_slot t slot 0
  else enter t ~core kind arg

(** [emit_async t ~core kind ~t0 arg] records a complete span that
    started at [t0] and ends now — for latencies that overlap the frame
    stack (IRQ delivery, power-rail ramps). Parented to the current top
    of stack; carries no attribution delta. *)
let emit_async t ~core kind ~t0 arg =
  let s = alloc t ~core kind arg ~t0 ~t1:(t.sub.Substrate.now ()) in
  if s >= 0 then begin
    let ng = Array.length t.gauges in
    Array.blit t.q_a0 (s * ng) t.q_a1 (s * ng) ng
  end

(** [open_burst t ~core kind arg] — a frame span (DBT bursts coalesce),
    or the start of device [arg]'s power ramp, closed by its [ev_power]
    event. Returns the {!leave} token ([-1] for the ramp). *)
let open_burst t ~core kind arg =
  if kind = sk_power_ramp then begin
    if arg < max_dev_cells then t.ramp_t0.(arg) <- t.sub.Substrate.now ();
    -1
  end
  else if kind = sk_dbt_translate || kind = sk_dbt_form then
    enter_coalesced t ~core kind arg
  else enter t ~core kind arg

(* the async span open at [cells.(i)], closed now *)
let close_async t cells i ~core kind arg =
  if i < Array.length cells then begin
    let t0 = cells.(i) in
    cells.(i) <- -1;
    if t0 >= 0 then emit_async t ~core kind ~t0 arg
  end

(** The {!Trace} point events that bound an async span. *)
let event_kinds =
  (1 lsl Trace.ev_irq_raise) lor (1 lsl Trace.ev_irq_deliver)
  lor (1 lsl Trace.ev_power)

(** [event t ~core kind a b] — a point event in {!event_kinds}: an IRQ
    raise opens the line's delivery span and its acknowledge closes it;
    a rail change closes the device's power ramp. *)
let event t ~core kind a b =
  if kind = Trace.ev_power then
    close_async t t.ramp_t0 a ~core sk_power_ramp ((2 * a) + b)
  else if a < max_lines then begin
    let cell = (core * max_lines) + a in
    if kind = Trace.ev_irq_raise then t.irq_t0.(cell) <- t.sub.Substrate.now ()
    else close_async t t.irq_t0 cell ~core sk_irq_deliver a
  end

(* [close_kind t kind] closes the innermost open frame of [kind] (and
   any stray frames above it). No-op when no such frame is open, so an
   unpaired end mark — e.g. the boot sequence's resume-end with no
   preceding sleep — cannot unwind unrelated spans. *)
let close_kind t kind =
  let found = ref (-1) in
  (try
     for i = t.depth - 1 downto 0 do
       let s = t.stack.(i) in
       if s >= 0 && t.q_kind.(s) = kind then begin
         found := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !found >= 0 then begin
    let tnow = t.sub.Substrate.now () in
    while t.depth > !found do
      close_top t tnow
    done
  end

(** [phase t code] — the phase-mark dispatcher {!Recorder.phase}
    feeds: opens/closes the suspend, sleep, wakeup and
    resume frame spans and turns per-device marks into async spans.
    Callers guard on [t.enabled]. *)
let phase t code =
  if not t.enabled then ()
  else begin
    let core = Trace.core_none in
    if code = ph_suspend_begin then ignore (enter t ~core sk_suspend 0)
  else if code = ph_suspend_end then close_kind t sk_suspend
  else if code = ph_sleep_begin then ignore (enter t ~core sk_sleep 0)
  else if code = ph_sleep_end then begin
    close_kind t sk_sleep;
    (* the wake instant: the root of the causal tree for this wakeup *)
    ignore (enter t ~core sk_wakeup 0)
  end
  else if code = ph_resume_begin then ignore (enter t ~core sk_resume 0)
  else if code = ph_resume_end then begin
    close_kind t sk_resume;
    close_kind t sk_wakeup
  end
  else if code >= ph_dev_mark then begin
    let d = (code - ph_dev_mark) / 10 and k = (code - ph_dev_mark) mod 10 in
    let cell = (2 * d) + (k / 2) in
    if k <= 3 && cell < max_dev_cells then
      if k land 1 = 0 then t.dev_t0.(cell) <- t.sub.Substrate.now ()
        (* arg = dev*2 for the suspend interval, dev*2+1 for resume *)
      else close_async t t.dev_t0 cell ~core sk_dev_phase cell
  end
  end

(* --------------------------- consumption ----------------------------- *)

let spans t = t.n
let dropped t = t.dropped

let iter t f =
  for s = 0 to t.n - 1 do
    if t.q_t1.(s) >= 0 then
      f ~id:s ~parent:t.q_parent.(s) ~kind:t.q_kind.(s) ~core:t.q_core.(s)
        ~t0:t.q_t0.(s) ~t1:t.q_t1.(s) ~arg:t.q_arg.(s)
  done

(* ------------------------ reconciliation ----------------------------- *)

type recon = {
  r_roots : int;
  r_max_dur_residual : float;
  r_max_attr_residual : float;
}

(** [reconcile t] — the where-did-the-time-go audit over every closed
    [wakeup] root: the direct (non-async) children must tile the root's
    duration, and their attribution-gauge deltas must telescope into the
    root's deltas. Returns the worst relative residual on each axis;
    both sit at 0.0 by construction and the 0.1% bar in
    test/test_span.ml catches any producer that breaks the nesting or a
    gauge that stops being monotone. *)
let reconcile t =
  let ng = Array.length t.gauges in
  let roots = ref 0 and dmax = ref 0.0 and amax = ref 0.0 in
  let cattr = Array.make (max 1 ng) 0 in
  for p = 0 to t.n - 1 do
    if t.q_kind.(p) = sk_wakeup && t.q_t1.(p) >= 0 then begin
      let pdur = t.q_t1.(p) - t.q_t0.(p) in
      if pdur > 0 then begin
        incr roots;
        let cdur = ref 0 in
        Array.fill cattr 0 ng 0;
        for s = p + 1 to t.n - 1 do
          if
            t.q_parent.(s) = p && t.q_t1.(s) >= 0
            && not (is_async t.q_kind.(s))
          then begin
            cdur := !cdur + (t.q_t1.(s) - t.q_t0.(s));
            for g = 0 to ng - 1 do
              cattr.(g) <-
                cattr.(g) + (t.q_a1.((s * ng) + g) - t.q_a0.((s * ng) + g))
            done
          end
        done;
        let rd = abs_float (float_of_int (pdur - !cdur)) /. float_of_int pdur in
        if rd > !dmax then dmax := rd;
        for g = 0 to ng - 1 do
          let pd = t.q_a1.((p * ng) + g) - t.q_a0.((p * ng) + g) in
          if pd > 0 then begin
            let ra =
              abs_float (float_of_int (pd - cattr.(g))) /. float_of_int pd
            in
            if ra > !amax then amax := ra
          end
        done
      end
    end
  done;
  { r_roots = !roots; r_max_dur_residual = !dmax; r_max_attr_residual = !amax }

(* ----------------------------- export -------------------------------- *)

let dump_jsonl oc t =
  let ng = Array.length t.gauges in
  let b = Buffer.create 256 in
  for s = 0 to t.n - 1 do
    if t.q_t1.(s) >= 0 then begin
      Buffer.clear b;
      Printf.bprintf b
        "{\"id\": %d, \"parent\": %d, \"kind\": %s, \"core\": %s, \
         \"t0_ns\": %d, \"dur_ns\": %d, \"arg\": %d, \"attr\": {"
        s t.q_parent.(s)
        (Json.quote (kind_name t.q_kind.(s)))
        (Json.quote (Trace.core_name t.q_core.(s)))
        t.q_t0.(s)
        (t.q_t1.(s) - t.q_t0.(s))
        t.q_arg.(s);
      for g = 0 to ng - 1 do
        if g > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "%s: %d" (Json.quote t.gauges.(g).Substrate.name)
          (t.q_a1.((s * ng) + g) - t.q_a0.((s * ng) + g))
      done;
      Buffer.add_string b "}}\n";
      Buffer.output_buffer oc b
    end
  done

(* Chrome trace-event JSON ("Trace Event Format"), loadable in
   ui.perfetto.dev and chrome://tracing: one process, one thread track
   per emitting core, "X" complete events in microseconds, plus "C"
   counter tracks replayed from the timeseries sampler's rows when a
   sampler is passed. *)
let dump_perfetto ?timeseries oc t =
  let ng = Array.length t.gauges in
  output_string oc "{\"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
     \"args\": {\"name\": \"arksim\"}}";
  List.iter
    (fun core ->
      emit
        (Printf.sprintf
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
            \"tid\": %d, \"args\": {\"name\": %s}}"
           core
           (Json.quote (Trace.core_name core))))
    [ Trace.core_cpu; Trace.core_m3; Trace.core_none ];
  let b = Buffer.create 256 in
  for s = 0 to t.n - 1 do
    if t.q_t1.(s) >= 0 then begin
      Buffer.clear b;
      Printf.bprintf b
        "{\"name\": %s, \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \
         \"parent\": %d, \"arg\": %d"
        (Json.quote (kind_name t.q_kind.(s)))
        t.q_core.(s)
        (float_of_int t.q_t0.(s) /. 1e3)
        (float_of_int (t.q_t1.(s) - t.q_t0.(s)) /. 1e3)
        s t.q_parent.(s) t.q_arg.(s);
      for g = 0 to ng - 1 do
        Printf.bprintf b ", %s: %d" (Json.quote t.gauges.(g).Substrate.name)
          (t.q_a1.((s * ng) + g) - t.q_a0.((s * ng) + g))
      done;
      Buffer.add_string b "}}";
      emit (Buffer.contents b)
    end
  done;
  (match timeseries with
  | Some ts ->
    let labels = Timeseries.labels ts in
    Timeseries.iter_rows ts (fun row ->
        let t_us = float_of_int row.(0) /. 1e3 in
        for c = 2 to Array.length row - 1 do
          emit
            (Printf.sprintf
               "{\"name\": %s, \"ph\": \"C\", \"pid\": 0, \"ts\": %.3f, \
                \"args\": {\"value\": %d}}"
               (Json.quote labels.(c))
               t_us row.(c))
        done)
  | None -> ());
  output_string oc "\n]}\n"

let summary t =
  let count = Array.make nkinds 0 and total = Array.make nkinds 0 in
  for s = 0 to t.n - 1 do
    if t.q_t1.(s) >= 0 then begin
      let k = t.q_kind.(s) in
      count.(k) <- count.(k) + 1;
      total.(k) <- total.(k) + (t.q_t1.(s) - t.q_t0.(s))
    end
  done;
  let rows = ref [] in
  for k = nkinds - 1 downto 0 do
    if count.(k) > 0 then
      rows :=
        [ kind_name k; string_of_int count.(k); string_of_int total.(k);
          string_of_int (total.(k) / count.(k)) ]
        :: !rows
  done;
  Report.table ~title:"causal spans by kind"
    ~header:[ "kind"; "count"; "total (ns)"; "mean (ns)" ]
    !rows;
  let r = reconcile t in
  Printf.printf
    "%d wakeup root(s); worst reconciliation residual: duration %.4f%%, \
     attribution %.4f%%%s\n"
    r.r_roots
    (100.0 *. r.r_max_dur_residual)
    (100.0 *. r.r_max_attr_residual)
    (if t.dropped > 0 then Printf.sprintf " (%d spans dropped)" t.dropped
     else "")
