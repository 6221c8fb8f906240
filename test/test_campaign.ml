(* Campaign runner: the determinism invariant and the pool mechanics.

   The load-bearing property is that a campaign's digest — computed over
   meta + per-task results + aggregate, everything except the host
   section — depends only on (kind, seed, tasks), never on --jobs. Tasks
   seed their own Random.State from (seed, index, kind tag) and share no
   mutable state, so scheduling them across 1 or 4 domains must be
   unobservable in the output. We pin that here for all three kinds;
   with a single-core CI host the 4-job runs just time-slice, which is
   exactly the point — the invariant is about scheduling freedom, not
   parallel hardware. *)

module Pool = Tk_campaign.Pool
module Campaign = Tk_campaign.Campaign
module J = Tk_harness.Run_manifest

(* ------------------------------- pool -------------------------------- *)

let test_pool_conservation () =
  (* every index runs exactly once, results land in task order *)
  let n = 57 in
  let hits = Array.make n 0 in
  let m = Mutex.create () in
  let out =
    Pool.run ~jobs:4 ~tasks:n (fun i ->
        Mutex.lock m;
        hits.(i) <- hits.(i) + 1;
        Mutex.unlock m;
        i * i)
  in
  Alcotest.(check int) "result per task" n (Array.length out);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 hits.(i);
      match r with
      | Ok v -> Alcotest.(check int) "ordered slot" (i * i) v
      | Error e -> Alcotest.failf "task %d failed: %s" i e)
    out

let test_pool_crash_isolated () =
  (* a raising task becomes its own Error; the queue keeps draining *)
  let out =
    Pool.run ~jobs:3 ~tasks:10 (fun i ->
        if i = 4 then failwith "boom";
        if i = 7 then raise Exit;
        i)
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 4, Error e ->
        Alcotest.(check bool) "carries the exception text" true
          (String.length e > 0)
      | 7, Error _ -> ()
      | (4 | 7), Ok _ -> Alcotest.failf "task %d should have failed" i
      | _, Ok v -> Alcotest.(check int) "survivor" i v
      | _, Error e -> Alcotest.failf "task %d wedged: %s" i e)
    out

let test_pool_out_of_order_completion () =
  (* tasks finish in scrambled order (earlier indices spin longest);
     collection must still be by index *)
  let n = 12 in
  let out =
    Pool.run ~jobs:4 ~tasks:n (fun i ->
        (* busy-spin proportional to (n - i): task 0 finishes last *)
        let spin = ref 0 in
        for _ = 1 to (n - i) * 20_000 do
          incr spin
        done;
        ignore !spin;
        i)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) i v
      | Error e -> Alcotest.failf "task %d failed: %s" i e)
    out

let test_pool_zero_tasks () =
  let out = Pool.run ~jobs:4 ~tasks:0 (fun i -> i) in
  Alcotest.(check int) "empty result" 0 (Array.length out)

(* --------------------------- determinism ----------------------------- *)

(* strip the host section: everything else must be byte-identical *)
let deterministic_part doc =
  match doc with
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "host") fields))
  | _ -> Alcotest.fail "campaign doc is not an object"

let small_config kind =
  { (Campaign.default_config kind) with
    Campaign.tasks = 4;
    seed = 42;
    stress_runs = 3;
    stress_glitch_every = 2;
    fuzz_programs = 3 }

let test_jobs_invariance kind () =
  let t1 = Campaign.run { (small_config kind) with Campaign.jobs = 1 } in
  let t4 = Campaign.run { (small_config kind) with Campaign.jobs = 4 } in
  Alcotest.(check string)
    (Campaign.kind_name kind ^ ": digest is jobs-independent")
    t1.Campaign.digest t4.Campaign.digest;
  Alcotest.(check string)
    (Campaign.kind_name kind ^ ": whole doc identical modulo host")
    (deterministic_part t1.Campaign.doc)
    (deterministic_part t4.Campaign.doc)

(* the digest is a function of the campaign identity alone: the
   checkout's revision, found from the cwd, is recorded only in the
   host section *)
let test_cwd_independence () =
  let cfg = small_config Campaign.Whatif in
  let inside =
    Work_tree.(in_temp_dir ~rev:fake_rev) (fun () -> Campaign.run cfg)
  in
  let outside = Work_tree.in_temp_dir (fun () -> Campaign.run cfg) in
  Alcotest.(check string) "digest inside = outside a work tree"
    inside.Campaign.digest outside.Campaign.digest;
  Alcotest.(check bool) "the revision is recorded in host" true
    Work_tree.(host_git_rev inside.Campaign.doc = Some (J.Str fake_rev))

let test_seed_sensitivity () =
  (* different seeds must actually change the work (guards against a
     digest that ignores its inputs) *)
  let t_a = Campaign.run (small_config Campaign.Whatif) in
  let t_b =
    Campaign.run { (small_config Campaign.Whatif) with Campaign.seed = 43 }
  in
  Alcotest.(check bool) "seed changes the digest" false
    (t_a.Campaign.digest = t_b.Campaign.digest)

let test_campaign_error_capture () =
  (* fuzz_programs = 0 is degenerate but must not wedge; and a campaign
     whose tasks all succeed reports no errors *)
  let t = Campaign.run (small_config Campaign.Stress) in
  Alcotest.(check int) "no task errors" 0 (List.length t.Campaign.errors);
  Alcotest.(check bool) "campaign is clean" false (Campaign.failed t)

let test_first_error_propagation () =
  (* regression for the CLI's non-zero exit path: a dead worker task
     must surface as (task index, exception text) via first_error, the
     way `arksim sweep`/`arksim fleet` report it — not as a generic
     "something failed" *)
  let t =
    Campaign.run
      { (small_config Campaign.Stress) with Campaign.chaos_fail = Some 2 }
  in
  Alcotest.(check bool) "campaign reports failure" true (Campaign.failed t);
  match Campaign.first_error t with
  | Some (i, msg) ->
    Alcotest.(check int) "failing task index" 2 i;
    Alcotest.(check bool) "message carries the exception text" true
      (String.length msg > 0
      && String.length msg >= 5
      &&
      (* Printexc renders Failure as 'Failure("...")' *)
      String.sub msg 0 7 = "Failure")
  | None -> Alcotest.fail "first_error empty on a failed campaign"

let () =
  Alcotest.run "campaign"
    [ ( "pool",
        [ Alcotest.test_case "task-count conservation, ordered results"
            `Quick test_pool_conservation;
          Alcotest.test_case "worker crash -> per-task error, queue drains"
            `Quick test_pool_crash_isolated;
          Alcotest.test_case "out-of-order completion, in-order collection"
            `Quick test_pool_out_of_order_completion;
          Alcotest.test_case "zero tasks" `Quick test_pool_zero_tasks ] );
      ( "determinism",
        [ Alcotest.test_case "stress: jobs=1 = jobs=4" `Quick
            (test_jobs_invariance Campaign.Stress);
          Alcotest.test_case "fuzz: jobs=1 = jobs=4" `Quick
            (test_jobs_invariance Campaign.Fuzz);
          Alcotest.test_case "whatif: jobs=1 = jobs=4" `Quick
            (test_jobs_invariance Campaign.Whatif);
          Alcotest.test_case "seed moves the digest" `Quick
            test_seed_sensitivity;
          Alcotest.test_case "digest is cwd-independent" `Quick
            test_cwd_independence ] );
      ( "campaign",
        [ Alcotest.test_case "clean run reports no errors" `Quick
            test_campaign_error_capture;
          Alcotest.test_case "dead task -> first_error (index, message)"
            `Quick test_first_error_propagation ] ) ]
