(* Bounded-quantum lockstep battery.

   The contract under test (DESIGN.md §11): slicing offloaded phases
   into quanta — any quanta — must not move a single simulated
   observable. At --quantum 1 the whole run is byte-identical to the
   sequential scheduler; at any larger quantum the final architectural
   state still matches; and the concurrent two-core mode is a pure
   function of the configuration — the deterministic interleave and the
   one-domain-per-core driver produce identical results.

   Plus unit coverage of the Lockstep driver itself on synthetic lanes:
   barrier commits run in (time, lane, arrival) order, observed skew is
   bounded by the quantum plus one indivisible tail, a true deadlock is
   detected (and a clean simultaneous finish is not), and merge_lane
   restores the single-clock regime preserving global event order. *)

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

let run_concurrent ~domains =
  let ark = Ark_run.create ~quantum:20_000 () in
  for _ = 1 to 2 do
    match Ark_run.concurrent_cycle ~domains ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r
  done;
  (snap_of ark, ark)

let test_concurrent_interleave_eq_domains () =
  let a, _ = run_concurrent ~domains:false in
  let b, _ = run_concurrent ~domains:true in
  check_snap "interleave = domains" a b

let test_concurrent_did_overlap () =
  (* the A9 workload really rode along: its busy cycles grew past the
     solo-sliced run's, and the skew the barrier observed is bounded by
     the quantum plus one indivisible charge tail *)
  let solo, _ = run_cycles ~quantum:20_000 ~cycles:2 () in
  let conc, ark = run_concurrent ~domains:false in
  Alcotest.(check bool) "A9 executed workload concurrently" true
    (conc.s_cpu_cycles > solo.s_cpu_cycles);
  Alcotest.(check bool) "rounds driven" true (ark.Ark_run.ls_rounds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "skew %d bounded by quantum + tail"
       ark.Ark_run.ls_max_skew_ns)
    true
    (ark.Ark_run.ls_max_skew_ns <= 20_000 + 10_000)

(* ----------------- concurrent cores, recorders on -------------------- *)

module Trace = Tk_stats.Trace
module Ts = Tk_stats.Timeseries
module Span = Tk_stats.Span
module Attribution = Tk_energy.Attribution
module Manifest = Tk_harness.Run_manifest

type recorded = {
  r_digest : string;  (** manifest metrics digest *)
  r_phases : int;  (** phases the energy ledger charged *)
  r_trace : int list * int * int;
  r_spans : string;  (** the span JSONL *)
}

(* one concurrent cycle with all three recorders on, reduced the way
   [arksim run --manifest --trace --spans] reduces it *)
let recorded_concurrent ~domains =
  let ark = Ark_run.create ~quantum:20_000 () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  Trace.enable soc.Soc.trace;
  Ts.enable soc.Soc.sampler;
  Span.enable soc.Soc.spans;
  (match Ark_run.concurrent_cycle ~domains ark with
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
  { r_digest = Manifest.metrics_digest ~metrics ~counters;
    r_phases = List.length phases; r_trace = Trace.digest soc.Soc.trace;
    r_spans = spans }

let test_concurrent_recorders_on () =
  let i = recorded_concurrent ~domains:false in
  (* the 36 device phases plus setup, suspend, sleep and resume: the
     lane's phase marks read its own gauges at the mark, so phases
     shorter than a quantum still carry energy *)
  Alcotest.(check int) "every phase charged" 40 i.r_phases;
  Alcotest.(check bool) "spans recorded" true (i.r_spans <> "");
  for k = 1 to 3 do
    let d = recorded_concurrent ~domains:true in
    let label what = Printf.sprintf "domains run %d: %s = interleave" k what in
    Alcotest.(check string) (label "manifest digest") i.r_digest d.r_digest;
    Alcotest.(check bool) (label "trace digest") true (i.r_trace = d.r_trace);
    Alcotest.(check bool) (label "span stream") true (i.r_spans = d.r_spans)
  done

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

let test_commit_order () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  let log = ref [] in
  let ls = ref None in
  let post_from l tag =
    Lockstep.post (Option.get !ls) ~lane:l (fun () -> log := tag :: !log)
  in
  let a =
    scripted main "a" ~step:10 ~total:30
      ~on_step:(fun spent -> if spent = 10 then post_from 0 "a@10")
      ()
  in
  let b =
    scripted lane "b" ~step:10 ~total:30
      ~on_step:(fun spent ->
        if spent = 10 then begin
          (* same instant as a@10: lane order (0 before 1) breaks the
             tie; two posts from one lane keep arrival order *)
          post_from 1 "b@10.first";
          post_from 1 "b@10.second"
        end
        else if spent = 20 then post_from 1 "b@20")
      ()
  in
  let t = Lockstep.create ~quantum:100 [ a; b ] in
  ls := Some t;
  let st = Lockstep.run t in
  Alcotest.(check (list string))
    "commits ran in (time, lane, arrival) order"
    [ "a@10"; "b@10.first"; "b@10.second"; "b@20" ]
    (List.rev !log);
  Alcotest.(check int) "all commits counted" 4 st.Lockstep.commits

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
       "lockstep deadlock: all lanes blocked with no events or commits \
        pending (a: done at 20 ns (next event none); b: blocked at 50 ns \
        (next event none))")
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

let test_blocked_lane_wakes_on_commit () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  let woken = ref false in
  let ls = ref None in
  let a =
    scripted main "a" ~step:10 ~total:30
      ~on_step:(fun spent ->
        if spent = 10 then
          Lockstep.post (Option.get !ls) ~lane:0 (fun () ->
              (* the cross-lane wakeup: arm an event on the blocked
                 lane; the driver re-polls it after the barrier *)
              Clock.after_ lane 5 (fun () -> woken := true)))
      ()
  in
  let b =
    { Lockstep.l_name = "b"; l_clock = lane;
      l_run = (fun ~deadline:_ -> if !woken then `Done else `Blocked) }
  in
  let t = Lockstep.create ~quantum:50 [ a; b ] in
  ls := Some t;
  ignore (Lockstep.run t);
  Alcotest.(check bool) "commit woke the blocked lane" true !woken

(* ARK as a lane: a phase with nothing runnable, no interrupt to deliver
   and no M3 event must surface as a deadlock, sequential or sliced.
   [Lockstep.run] drags a blocked lane to the boundary and re-polls it
   there, so [phase_step] called at its deadline must still answer
   [`Blocked] for a stalled phase, or the sliced run would spin
   forever. *)
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
    Alcotest.(check int) "caught in the first round" 2 !polls

let test_interleave_eq_domains_synthetic () =
  let run domains =
    let main = Clock.create () in
    let lane = Clock.lane main in
    let trail = ref [] in
    let ls = ref None in
    let a =
      scripted main "a" ~step:13 ~total:400
        ~on_step:(fun spent ->
          if spent mod 39 = 0 then
            Lockstep.post (Option.get !ls) ~lane:0 (fun () ->
                trail := ("a", spent) :: !trail))
        ()
    in
    let b =
      scripted lane "b" ~step:29 ~total:700
        ~on_step:(fun spent ->
          if spent mod 58 = 0 then
            Lockstep.post (Option.get !ls) ~lane:1 (fun () ->
                trail := ("b", spent) :: !trail))
        ()
    in
    let t = Lockstep.create ~quantum:64 [ a; b ] in
    ls := Some t;
    let st = Lockstep.run ~domains t in
    (List.rev !trail, st.Lockstep.rounds, st.Lockstep.commits)
  in
  Alcotest.(check bool) "domains = interleave on synthetic lanes" true
    (run false = run true)

let test_merge_lane_preserves_order () =
  let main = Clock.create () in
  let lane = Clock.lane main in
  let log = ref [] in
  (* interleaved arming across the two queues: the shared seq allocator
     defines the global order the merged queue must replay *)
  Clock.after_ main 100 (fun () -> log := "m100" :: !log);
  Clock.after_ lane 50 (fun () -> log := "l50" :: !log);
  Clock.after_ main 50 (fun () -> log := "m50" :: !log);
  Clock.after_ lane 100 (fun () -> log := "l100" :: !log);
  lane.Clock.now <- 10;
  Lockstep.merge_lane ~into:main lane;
  Alcotest.(check int) "merged clock at the latest lane time" 10
    main.Clock.now;
  Alcotest.(check bool) "lane emptied" true
    (Clock.next_event_time lane = None);
  Clock.advance main 200;
  Alcotest.(check (list string))
    "merged events fire in global (at, seq) order"
    [ "l50"; "m50"; "m100"; "l100" ]
    (List.rev !log)

(* ------------------------------- suite ------------------------------- *)

let () =
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
        [ Alcotest.test_case "interleave = domains" `Slow
            test_concurrent_interleave_eq_domains;
          Alcotest.test_case "workload overlapped, skew bounded" `Slow
            test_concurrent_did_overlap;
          Alcotest.test_case "interleave = domains, recorders on" `Slow
            test_concurrent_recorders_on ] );
      ( "driver units",
        [ Alcotest.test_case "commit order (time, lane, arrival)" `Quick
            test_commit_order;
          Alcotest.test_case "skew bounded by quantum + tail" `Quick
            test_skew_bounded;
          Alcotest.test_case "deadlock detected" `Quick
            test_deadlock_detected;
          Alcotest.test_case "clean finish is not a deadlock" `Quick
            test_clean_finish_is_not_deadlock;
          Alcotest.test_case "commit wakes a blocked lane" `Quick
            test_blocked_lane_wakes_on_commit;
          Alcotest.test_case "a stalled ARK lane deadlocks" `Quick
            test_ark_lane_deadlock;
          Alcotest.test_case "synthetic domains = interleave" `Quick
            test_interleave_eq_domains_synthetic;
          Alcotest.test_case "merge_lane preserves global order" `Quick
            test_merge_lane_preserves_order ] ) ]
