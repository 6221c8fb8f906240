(* Fleet determinism battery, mirroring test_campaign.ml one layer up.

   The fleet digest — meta + per-shard metrics + aggregate, everything
   except the host section — must be a function of (population,
   arrival, seed) alone. Two independent freedoms have to be
   unobservable: *scheduling* (shards on 1 domain vs 8) and *instance
   order inside a shard* (the Chrono/Reversed knob). The second is the
   sharper property: every instance interleaves over the same restored
   snapshot, so order-independence means snapshot restore plus the
   per-instance RNG streams really do isolate instances from each
   other. Arithmetic backs it: per-instance energy is integered before
   summation and sketch buckets are commutative counters, so no
   float-summation-order can leak the schedule into the digest. *)

module Fleet = Tk_fleet.Fleet
module Arrival = Tk_fleet.Arrival
module J = Tk_harness.Run_manifest

let small kind =
  { Fleet.default_config with
    Fleet.devices = 12;
    arrival = kind;
    seed = 7;
    duration_ms = 12;
    mean_gap_ms = 8 }

(* strip the host section: everything else must be byte-identical *)
let deterministic_part doc =
  match doc with
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "host") fields))
  | _ -> Alcotest.fail "fleet doc is not an object"

(* the jobs=1 reference runs are shared across test cases (each fleet
   run warms six worlds; no point paying that twice for the same
   config) *)
let ref_run =
  let memo =
    List.map (fun k -> (k, lazy (Fleet.run (small k)))) Arrival.all
  in
  fun kind -> Lazy.force (List.assoc kind memo)

let test_jobs_invariance kind () =
  let t1 = ref_run kind in
  let t8 = Fleet.run { (small kind) with Fleet.jobs = 8 } in
  Alcotest.(check bool) "clean runs" false
    (Fleet.failed t1 || Fleet.failed t8);
  Alcotest.(check string)
    (Arrival.kind_name kind ^ ": digest is jobs-independent")
    t1.Fleet.digest t8.Fleet.digest;
  Alcotest.(check string)
    (Arrival.kind_name kind ^ ": whole doc identical modulo host")
    (deterministic_part t1.Fleet.doc)
    (deterministic_part t8.Fleet.doc)

let test_schedule_invariance () =
  (* run every shard's instances in reverse: per-instance RNG streams
     and snapshot isolation must make the reordering invisible *)
  let fwd = ref_run Arrival.Poisson in
  let rev =
    Fleet.run { (small Arrival.Poisson) with Fleet.schedule = Fleet.Reversed }
  in
  Alcotest.(check string) "digest survives instance reordering"
    fwd.Fleet.digest rev.Fleet.digest;
  Alcotest.(check string) "whole doc identical modulo host"
    (deterministic_part fwd.Fleet.doc)
    (deterministic_part rev.Fleet.doc)

let test_arrival_kinds_distinct () =
  (* the three generators must actually produce different work *)
  let d kind = (ref_run kind).Fleet.digest in
  let p = d Arrival.Poisson
  and b = d Arrival.Bursty
  and u = d Arrival.Diurnal in
  Alcotest.(check bool) "poisson <> bursty" false (p = b);
  Alcotest.(check bool) "bursty <> diurnal" false (b = u);
  Alcotest.(check bool) "poisson <> diurnal" false (p = u)

let test_seed_sensitivity () =
  let t_a = ref_run Arrival.Poisson in
  let t_b = Fleet.run { (small Arrival.Poisson) with Fleet.seed = 8 } in
  Alcotest.(check bool) "seed changes the digest" false
    (t_a.Fleet.digest = t_b.Fleet.digest)

let test_population_accounting () =
  let t = ref_run Arrival.Bursty in
  Alcotest.(check int) "every instance accounted for"
    t.Fleet.config.Fleet.devices
    (Fleet.counter t "fleet.instances");
  Alcotest.(check int) "no covered-word flushes mid-fleet" 0
    (Fleet.counter t "fleet.cover_flush")

let test_span_telemetry () =
  (* the per-span-kind duration quantiles live in the digested aggregate
     (so the determinism battery above covers them); here: every schema
     field is present, names a real span kind, and the kinds the fleet
     always exercises carry samples *)
  let t = ref_run Arrival.Poisson in
  let agg =
    match t.Fleet.doc with
    | J.Obj kvs -> (
      match List.assoc_opt "aggregate" kvs with
      | Some (J.Obj agg) -> agg
      | _ -> Alcotest.fail "no aggregate section")
    | _ -> Alcotest.fail "fleet doc is not an object"
  in
  let count f =
    match List.assoc_opt f agg with
    | Some (J.Obj q) -> (
      match List.assoc_opt "count" q with Some (J.Int c) -> c | _ -> -1)
    | _ -> Alcotest.failf "aggregate lacks span field %s" f
  in
  List.iter
    (fun (f, k) ->
      Alcotest.(check bool)
        (f ^ " names a real span kind")
        true
        (k >= 0 && k < Tk_stats.Span.nkinds);
      Alcotest.(check bool) (f ^ " quantiles present") true (count f >= 0))
    Fleet.span_fields;
  (* every wakeup executes code, resumes, and suspends again *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " carries samples") true (count f > 0))
    [ "span_run_ns"; "span_resume_ns"; "span_suspend_ns";
      "span_irq_deliver_ns" ]

(* the printed summary never shows a quantile without samples behind
   it, and every row carries its count *)
let test_quantile_cells () =
  let row count = Fleet.quantile_row ~count ~p50:5 ~p99:7 ~p999:9 in
  List.iter
    (fun (count, want) ->
      Alcotest.(check string) (Printf.sprintf "n=%d" count) want (row count))
    [ (0, "-/-/- ns (n=0)");
      (1, "5/-/- ns (n=1)");
      (58, "5/-/- ns (n=58)");
      (99, "5/-/- ns (n=99)");
      (100, "5/7/- ns (n=100)");
      (999, "5/7/- ns (n=999)");
      (1000, "5/7/9 ns (n=1000)") ]

let test_chaos_error_propagation () =
  (* a shard that dies must surface as (index, message) without taking
     the fleet down; healthy shards still complete *)
  let t =
    Fleet.run { (small Arrival.Poisson) with Fleet.chaos_fail = Some 2 }
  in
  Alcotest.(check bool) "fleet reports failure" true (Fleet.failed t);
  (match Fleet.first_error t with
  | Some (i, msg) ->
    Alcotest.(check int) "failing shard index" 2 i;
    Alcotest.(check bool) "carries the exception text" true
      (String.length msg > 0)
  | None -> Alcotest.fail "first_error empty on a failed fleet");
  (* 12 devices over 6 configs = 6 shards of 2; one shard was killed *)
  Alcotest.(check int) "surviving instances"
    (t.Fleet.config.Fleet.devices - 2)
    (Fleet.counter t "fleet.instances")

let () =
  Alcotest.run "fleet"
    [ ( "determinism",
        [ Alcotest.test_case "poisson: jobs=1 = jobs=8" `Quick
            (test_jobs_invariance Arrival.Poisson);
          Alcotest.test_case "bursty: jobs=1 = jobs=8" `Quick
            (test_jobs_invariance Arrival.Bursty);
          Alcotest.test_case "diurnal: jobs=1 = jobs=8" `Quick
            (test_jobs_invariance Arrival.Diurnal);
          Alcotest.test_case "instance order is unobservable" `Quick
            test_schedule_invariance;
          Alcotest.test_case "arrival kinds produce distinct work" `Quick
            test_arrival_kinds_distinct;
          Alcotest.test_case "seed moves the digest" `Quick
            test_seed_sensitivity ] );
      ( "fleet",
        [ Alcotest.test_case "population fully accounted" `Quick
            test_population_accounting;
          Alcotest.test_case "span quantiles ride the aggregate" `Quick
            test_span_telemetry;
          Alcotest.test_case "summary quantiles need samples" `Quick
            test_quantile_cells;
          Alcotest.test_case "shard failure -> (index, message)" `Quick
            test_chaos_error_propagation ] ) ]
