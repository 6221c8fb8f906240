(* Bounded-quantum lockstep battery.

   The contract under test (DESIGN.md §11): slicing offloaded phases
   into quanta — any quanta — must not move a single simulated
   observable. At --quantum 1 the whole run is byte-identical to the
   sequential scheduler; at any larger quantum the final architectural
   state still matches; and the concurrent two-core mode's recorded
   streams (manifest, trace and span digests) are pinned, and it keeps
   working after a fallback migration.

   Plus unit coverage of the Lockstep driver itself on synthetic lanes:
   observed skew is bounded by the quantum plus one indivisible tail, a
   blocked lane is a deadlock (and a clean simultaneous finish is not),
   and merge_lane advances the platform clock to the later lane time
   and refuses a lane that holds an event. *)

open Tk_machine
module Translator = Tk_dbt.Translator
module Ark_run = Tk_harness.Ark_run
module Ark = Transkernel.Ark
module Counters = Tk_stats.Counters

(* ----------------------- observable snapshot ------------------------- *)

(* everything the digests are built from: per-core activity, DRAM
   traffic, simulated time, ARK's own counters and phase-event times *)
type snap = {
  s_cpu_cycles : int;
  s_m3_cycles : int;
  s_m3_idle : int;
  s_instrs : int;
  s_hits : int;
  s_misses : int;
  s_rd_bytes : int;
  s_wr_bytes : int;
  s_now : int;
  s_counters : (string * int) list;
  s_events : (int * int) list;  (** (code, time) per phase event *)
}

let snap_of (ark : Ark_run.t) =
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  let m3 = soc.Soc.m3 in
  { s_cpu_cycles = soc.Soc.cpu.Core.busy_cycles;
    s_m3_cycles = m3.Core.busy_cycles;
    s_m3_idle = m3.Core.idle_ps;
    s_instrs = m3.Core.instructions;
    s_hits = m3.Core.cache.Cache.hits;
    s_misses = m3.Core.cache.Cache.misses;
    s_rd_bytes = m3.Core.cache.Cache.rd_bytes;
    s_wr_bytes = m3.Core.cache.Cache.wr_bytes;
    s_now = soc.Soc.clock.Clock.now;
    s_counters = Counters.snapshot ark.Ark_run.ark.Ark.counters;
    s_events =
      List.map
        (fun (e : Ark_run.phase_event) -> (e.ev_code, e.ev_time_ns))
        ark.Ark_run.events }

let pp_snap s =
  Printf.sprintf
    "cpu=%d m3=%d idle=%d instrs=%d hits=%d misses=%d rd=%d wr=%d now=%d \
     counters=%d events=%d"
    s.s_cpu_cycles s.s_m3_cycles s.s_m3_idle s.s_instrs s.s_hits s.s_misses
    s.s_rd_bytes s.s_wr_bytes s.s_now
    (List.length s.s_counters) (List.length s.s_events)

let check_snap label a b =
  if a <> b then
    Alcotest.failf "%s: sliced observables drifted\n  seq:    %s\n  sliced: %s"
      label (pp_snap a) (pp_snap b)

let run_cycles ?(superblock = false) ?mode ~quantum ~cycles () =
  let ark =
    match mode with
    | Some m -> Ark_run.create ~mode:m ~quantum ()
    | None -> Ark_run.create ~superblock ~quantum ()
  in
  for _ = 1 to cycles do
    match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r
  done;
  (snap_of ark, ark)

(* --------------------- quantum=1 byte-identity ----------------------- *)

let tiers =
  [ ("ark", `Mode Translator.Ark); ("mid", `Mode Translator.Mid);
    ("baseline", `Mode Translator.Baseline); ("superblock", `Superblock) ]

let test_q1_identity (label, tier) () =
  let run quantum =
    match tier with
    | `Mode m -> fst (run_cycles ~mode:m ~quantum ~cycles:2 ())
    | `Superblock -> fst (run_cycles ~superblock:true ~quantum ~cycles:2 ())
  in
  check_snap (label ^ ": quantum=1 = sequential") (run 0) (run 1)

(* --------------------- quantum-sweep invariance ---------------------- *)

(* any quantum (not just 1) leaves the final architectural state — and
   every intermediate phase-event instant — exactly where the
   sequential scheduler puts it *)
let test_quantum_sweep () =
  let base = fst (run_cycles ~mode:Translator.Ark ~quantum:0 ~cycles:2 ()) in
  List.iter
    (fun q ->
      let got = fst (run_cycles ~mode:Translator.Ark ~quantum:q ~cycles:2 ()) in
      check_snap (Printf.sprintf "quantum=%d" q) base got)
    [ 1; 137; 1_000; 20_000; 10_000_000 ]

(* the lockstep round counter actually sliced the run (the identity is
   not vacuous), and finer quanta mean more rounds *)
let test_slicing_not_vacuous () =
  let _, a1 = run_cycles ~mode:Translator.Ark ~quantum:1_000 ~cycles:1 () in
  let _, a2 = run_cycles ~mode:Translator.Ark ~quantum:100_000 ~cycles:1 () in
  Alcotest.(check bool) "coarse quantum still slices" true
    (a2.Ark_run.ls_rounds > 0);
  Alcotest.(check bool) "finer quantum = more rounds" true
    (a1.Ark_run.ls_rounds > a2.Ark_run.ls_rounds)

(* ---------------------- concurrent two-core mode --------------------- *)

let run_concurrent () =
  let ark = Ark_run.create ~quantum:20_000 () in
  for _ = 1 to 2 do
    match Ark_run.concurrent_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r
  done;
  (snap_of ark, ark)

let test_concurrent_did_overlap () =
  (* the A9 workload really rode along: its busy cycles grew past the
     solo-sliced run's, and the skew the barrier observed is bounded by
     the quantum plus one indivisible charge tail *)
  let solo, _ = run_cycles ~quantum:20_000 ~cycles:2 () in
  let conc, ark = run_concurrent () in
  Alcotest.(check bool) "A9 executed workload concurrently" true
    (conc.s_cpu_cycles > solo.s_cpu_cycles);
  Alcotest.(check bool) "rounds driven" true (ark.Ark_run.ls_rounds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "skew %d bounded by quantum + tail"
       ark.Ark_run.ls_max_skew_ns)
    true
    (ark.Ark_run.ls_max_skew_ns <= 20_000 + 10_000)

(* A fallback hands the migrated context back to the A9, whose SP is
   then left in that DBT context's stack slot; the next concurrent
   phase must still stage its workload on the boot thread's stack,
   where the M3's contexts cannot overwrite it *)
let test_concurrent_after_fallback () =
  let ark = Ark_run.create ~quantum:20_000 () in
  let wifi = Tk_drivers.Platform.device (Ark_run.plat ark) "wifi" in
  for i = 1 to 2 do
    wifi.Tk_drivers.Device.glitch_next_resume <- true;
    match Ark_run.concurrent_cycle ark with
    | `Fell_back "warn" -> ()
    | `Fell_back r -> Alcotest.failf "cycle %d fell back for %S" i r
    | `Ok -> Alcotest.failf "cycle %d: expected a fallback" i
  done;
  match Ark_run.concurrent_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "post-fallback cycle fell back: %s" r

(* ----------------- concurrent cores, recorders on -------------------- *)

module Trace = Tk_stats.Trace
module Ts = Tk_stats.Timeseries
module Span = Tk_stats.Span
module Attribution = Tk_energy.Attribution
module Manifest = Tk_harness.Run_manifest

type recorded = {
  r_digest : string;  (** manifest metrics digest *)
  r_phases : int;  (** phases the energy ledger charged *)
  r_trace : string;  (** flight-recorder digest, printed *)
  r_spans : string;  (** the span JSONL *)
}

(* one concurrent cycle with all three recorders on, reduced the way
   [arksim run --manifest --trace --spans] reduces it *)
let recorded_concurrent () =
  let ark = Ark_run.create ~quantum:20_000 () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  Trace.enable soc.Soc.trace;
  Ts.enable soc.Soc.sampler;
  Span.enable soc.Soc.spans;
  (match Ark_run.concurrent_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let ts = soc.Soc.sampler in
  Ts.sample_now ts;
  let ledger =
    Attribution.integrate ts
      ~cores:[ ("a9", Soc.a9_params); ("m3", Soc.m3_params) ]
      ~active:"m3"
  in
  let phases = Attribution.phases ledger in
  let rows = Ts.rows ts and labels = Ts.labels ts in
  let first = rows.(0) and last = rows.(Array.length rows - 1) in
  let counters =
    Manifest.Obj
      (List.init (Array.length labels - 2) (fun i ->
           (labels.(i + 2), Manifest.Int (last.(i + 2) - first.(i + 2)))))
  in
  let metrics =
    Manifest.Obj
      [ ("window_ns", Manifest.Int (last.(0) - first.(0)));
        ( "phase_energy_uj",
          Manifest.Obj
            (List.map
               (fun ph ->
                 ( string_of_int ph,
                   Manifest.Obj
                     (List.map
                        (fun (c, v) -> (c, Manifest.Num v))
                        (Attribution.phase_breakdown ledger ph)) ))
               phases) ) ]
  in
  let path = Filename.temp_file "tk_spans" ".jsonl" in
  let oc = open_out path in
  Span.dump_jsonl oc soc.Soc.spans;
  close_out oc;
  let spans = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let counts, total, hash = Trace.digest soc.Soc.trace in
  { r_digest = Manifest.metrics_digest ~metrics ~counters;
    r_phases = List.length phases;
    r_trace =
      Printf.sprintf "[%s] %d 0x%x"
        (String.concat ";" (List.map string_of_int counts))
        total hash;
    r_spans = spans }

(* Goldens for [recorded_concurrent ()]. The recorders see a concurrent
   segment only at its barriers, so these pin the barrier-time writes
   as well as the simulated results; TK_CAPTURE=1 prints fresh ones. *)
let golden_recorded_digest = "3b85b85248d590a9"

let golden_recorded_trace =
  "[16428;5481;2594;0;0;0;2;0;0;42;0;1;25] 24547 0x241055aff00b95e3"

let golden_recorded_spans = "2699cc8b33f8ef1e"

let test_concurrent_recorders_on () =
  let r = recorded_concurrent () in
  (* the 36 device phases plus setup, suspend, sleep and resume: the
     lane's phase marks read its own gauges at the mark, so phases
     shorter than a quantum still carry energy *)
  Alcotest.(check int) "every phase charged" 40 r.r_phases;
  Alcotest.(check bool) "spans recorded" true (r.r_spans <> "");
  Alcotest.(check string) "manifest digest" golden_recorded_digest r.r_digest;
  Alcotest.(check string) "trace digest" golden_recorded_trace r.r_trace;
  Alcotest.(check string) "span stream digest" golden_recorded_spans
    (Manifest.digest_string r.r_spans)

(* ------------------------ synthetic lane units ----------------------- *)

(* a scripted lane: per the lane contract it advances its clock in
   [step]-ns increments up to each round's deadline, until [total] ns
   of work are consumed; [on_step] observes every increment *)
let scripted clock name ~step ~total ?(on_step = fun _ -> ()) () =
  let spent = ref 0 in
  { Lockstep.l_name = name; l_clock = clock;
    l_run =
      (fun ~deadline ->
        while !spent < total && clock.Clock.now < deadline do
          let d = min step (total - !spent) in
          clock.Clock.now <- min deadline (clock.Clock.now + d);
          spent := !spent + d;
          on_step !spent
        done;
        if !spent >= total then `Done else `Runnable) }

let test_skew_bounded () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  (* lane b overshoots each boundary by an indivisible 7-ns tail *)
  let a = scripted main "a" ~step:25 ~total:1_000 () in
  let b =
    { Lockstep.l_name = "b"; l_clock = lane;
      l_run =
        (fun ~deadline ->
          if lane.Clock.now >= 1_000 then `Done
          else begin
            lane.Clock.now <- deadline + 7;
            `Runnable
          end) }
  in
  let t = Lockstep.create ~quantum:50 [ a; b ] in
  let st = Lockstep.run t in
  Alcotest.(check bool)
    (Printf.sprintf "skew %d <= quantum + tail" st.Lockstep.max_skew_ns)
    true
    (st.Lockstep.max_skew_ns <= 50 + 7)

let test_deadlock_detected () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  let a = scripted main "a" ~step:10 ~total:20 () in
  let b =
    { Lockstep.l_name = "b"; l_clock = lane;
      l_run = (fun ~deadline:_ -> `Blocked) }
  in
  let t = Lockstep.create ~quantum:50 [ a; b ] in
  Alcotest.check_raises "blocked lane with no events deadlocks"
    (Lockstep.Deadlock
       "lockstep deadlock: a lane is blocked with no events pending (a: \
        done at 20 ns (next event none); b: blocked at 0 ns (next event \
        none))")
    (fun () -> ignore (Lockstep.run t))

let test_clean_finish_is_not_deadlock () =
  (* both lanes going `Done in the same round must terminate cleanly *)
  let main = Clock.create () in
  let lane = Clock.lane main in
  let a = scripted main "a" ~step:10 ~total:10 () in
  let b = scripted lane "b" ~step:10 ~total:10 () in
  let t = Lockstep.create ~quantum:1_000 [ a; b ] in
  let st = Lockstep.run t in
  Alcotest.(check int) "one round" 1 st.Lockstep.rounds

(* ARK as a lane: a phase with nothing runnable, no interrupt to deliver
   and no event must surface as a deadlock, sequential or sliced: the
   first poll answers [`Blocked], and the barrier of that round
   raises. *)
let test_ark_lane_deadlock () =
  let ark = Ark_run.create ~quantum:1_000 () in
  let a = ark.Ark_run.ark in
  let clock = (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3.Core.clock in
  Ark.phase_begin a `Suspend;
  (* starve the phase: no scheduler tick, no M3 event, every context
     parked *)
  a.Ark.tick_on <- false;
  Clock.restore_pending clock ~now:clock.Clock.now
    ~seq:(Clock.seq_value clock) [];
  List.iter
    (fun (c : Transkernel.Context.t) ->
      c.Transkernel.Context.state <- Transkernel.Context.Parked)
    a.Ark.contexts;
  Alcotest.(check bool) "no deadline: blocked" true
    (Ark.phase_step a ~deadline:max_int = `Blocked);
  let polls = ref 0 in
  let lane =
    { Lockstep.l_name = "m3"; l_clock = clock;
      l_run =
        (fun ~deadline ->
          incr polls;
          if !polls > 100 then Alcotest.fail "a stalled ARK lane spins";
          Ark.phase_step a ~deadline) }
  in
  match Lockstep.run (Lockstep.create ~quantum:1_000 [ lane ]) with
  | _ -> Alcotest.fail "expected Lockstep.Deadlock"
  | exception Lockstep.Deadlock _ ->
    Alcotest.(check int) "caught at the first poll" 1 !polls

let test_merge_lane () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  lane.Clock.now <- 10;
  Lockstep.merge_lane ~into:main lane;
  Alcotest.(check int) "merged clock at the later lane time" 10
    main.Clock.now;
  main.Clock.now <- 30;
  Lockstep.merge_lane ~into:main lane;
  Alcotest.(check int) "an earlier lane time moves nothing" 30
    main.Clock.now;
  Clock.after_ lane 5 ignore;
  Alcotest.check_raises "a lane event is refused"
    (Invalid_argument "Lockstep.merge_lane: the lane holds an event")
    (fun () -> Lockstep.merge_lane ~into:main lane);
  Alcotest.(check int) "a refused merge moves nothing" 30 main.Clock.now

(* ------------------------------- suite ------------------------------- *)

let () =
  if Sys.getenv_opt "TK_CAPTURE" <> None then begin
    let r = recorded_concurrent () in
    Printf.printf
      "let golden_recorded_digest = %S\nlet golden_recorded_trace = %S\n\
       let golden_recorded_spans = %S\n"
      r.r_digest r.r_trace
      (Manifest.digest_string r.r_spans);
    exit 0
  end;
  Alcotest.run "lockstep"
    [ ( "quantum=1 identity",
        List.map
          (fun ((label, _) as tier) ->
            Alcotest.test_case label `Slow (test_q1_identity tier))
          tiers );
      ( "quantum sweep",
        [ Alcotest.test_case "final state invariant across quanta" `Slow
            test_quantum_sweep;
          Alcotest.test_case "slicing is not vacuous" `Quick
            test_slicing_not_vacuous ] );
      ( "concurrent cores",
        [ Alcotest.test_case "workload overlapped, skew bounded" `Slow
            test_concurrent_did_overlap;
          Alcotest.test_case "recorders on, digests pinned" `Slow
            test_concurrent_recorders_on;
          Alcotest.test_case "concurrent cycle after a fallback" `Slow
            test_concurrent_after_fallback ] );
      ( "driver units",
        [ Alcotest.test_case "skew bounded by quantum + tail" `Quick
            test_skew_bounded;
          Alcotest.test_case "deadlock detected" `Quick
            test_deadlock_detected;
          Alcotest.test_case "clean finish is not a deadlock" `Quick
            test_clean_finish_is_not_deadlock;
          Alcotest.test_case "a stalled ARK lane deadlocks" `Quick
            test_ark_lane_deadlock;
          Alcotest.test_case "merge_lane refuses a lane event" `Quick
            test_merge_lane ] ) ]
