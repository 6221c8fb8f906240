(* The repository benchmark: three workloads over the simulator's public
   entry points, an untraced run that gives the end-to-end metrics and a
   traced run that gives the per-layer ones. README.md beside this file
   says why each workload and metric is there; run.py builds and runs
   this program.

   Usage: bench.exe --workload steady|paper_suite|fleet --seed N
            --seconds S --trace 0|1 [--smoke]
          bench.exe --pin-fleet FROM TO   (print fleet digests to pin)

   The last line of standard output is the result object; the line
   before it carries provenance, quartiles and sample counts. *)

open Tk_machine
open Tk_harness
module Platform = Tk_drivers.Platform
module Engine = Tk_dbt.Engine
module Translator = Tk_dbt.Translator
module Cache_store = Tk_dbt.Cache_store
module Fleet = Tk_fleet.Fleet
module Power = Tk_energy.Power_model
module J = Run_manifest

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------ stats -------------------------------- *)

(* linear interpolation between closest ranks *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let sumf = List.fold_left ( +. ) 0.0
let per_k n instrs = float_of_int n *. 1000.0 /. float_of_int (max 1 instrs)
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ------------------------ host-speed reference ----------------------- *)

(* A shared host's speed drifts: on a 2-core host the same warm cycle took
   from 62 to 110 ms within one hour, in episodes that last minutes and
   so outlast any run. End-to-end timings are therefore taken in nominal
   seconds: each operation's wall time is scaled by [nominal_s] over the
   wall time of this reference kernel, run on the same core right after
   the operation. The kernel is a small bytecode interpreter over a 1 MB
   working set; it belongs to the benchmark, so no change to the program
   moves it. Over ten-second windows on that host the cycle's wall time
   moved by 17% and its ratio to the kernel by 3.5%. Raw wall-clock
   figures stay in the detail line. *)
let ref_mem = Array.make (1 lsl 17) 0
let ref_code = Array.init 64 (fun i -> i * 7919 land 7)

let reference_kernel steps =
  let acc = ref 1 and pc = ref 0 and a = ref 12345 in
  for _ = 1 to steps do
    (match ref_code.(!pc) with
    | 0 -> acc := !acc + ref_mem.(!a land 0x1FFFF)
    | 1 -> ref_mem.(!a land 0x1FFFF) <- !acc
    | 2 -> acc := !acc lxor (!acc lsl 3)
    | 3 -> a := ((!a * 1103515245) + 12345) land 0x3FFFFFFF
    | 4 -> acc := !acc + !a
    | 5 -> if !acc land 1 = 0 then pc := (!pc + 3) land 63
    | 6 -> ref_mem.((!a + 64) land 0x1FFFF) <- ref_mem.(!a land 0x1FFFF) + 1
    | _ -> a := !a + !acc);
    pc := (!pc + 1) land 63
  done;
  !acc

(* the kernel's wall time on the host the benchmark was defined on *)
let nominal_s = 0.020

let reference_s () =
  snd (timed (fun () -> ignore (Sys.opaque_identity (reference_kernel 8_000_000))))

let ref_samples = ref []

(* [wall] in nominal seconds, against a reference run taken now *)
let nominal wall =
  let r = reference_s () in
  ref_samples := r :: !ref_samples;
  wall *. nominal_s /. r

(* ----------------------------- results ------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;  (** timing samples behind [value]; [] for counts *)
}

let metrics : metric list ref = ref []
let notes : (string * J.json) list ref = ref []
let metric ?(samples = []) name unit_ value =
  metrics := { name; unit_; value; samples } :: !metrics

let timing name unit_ samples = metric ~samples name unit_ (median samples)
let count name n = metric name "count" (float_of_int n)
let note k v = notes := (k, v) :: !notes

(* median, quartiles and n of raw wall-clock samples, for the detail line *)
let raw xs =
  J.Obj
    [ ("median", J.Num (median xs)); ("q1", J.Num (quantile 0.25 xs));
      ("q3", J.Num (quantile 0.75 xs)); ("n", J.Int (List.length xs)) ]

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    let v = go () in
    close_in ic;
    v

(* Peak resident memory, read once set-up and a fixed number of
   operations are done: the GC grows the heap in steps, so a peak read at
   the end would depend on how many operations fit in the run. *)
let rss = ref nan
let mark_rss () = if Float.is_nan !rss then rss := peak_rss_mb ()

(* operations attempted and failed: a cycle, a suite pass, a fleet pass,
   a replay or a probe *)
let attempted = ref 0
let failed = ref 0

exception Mismatch of string

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then raise (Mismatch s)) fmt

let op name f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
    incr failed;
    Printf.eprintf "perfbench: %s failed: %s\n%!" name (Printexc.to_string e);
    None

(* -------------------------- scratch files ---------------------------- *)

(* everything the benchmark writes lives under the build directory of
   the checkout it runs in *)
let scratch = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir name =
  let d = Filename.concat scratch name in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  mkdir_p d;
  d

(* --------------------------- steady arms ----------------------------- *)

(* One warm platform of the steady workload. [pin] is the exact number
   of instructions a warm cycle retires (both cores for the DBT tiers,
   as `bench throughput` counts); it is a simulated result, so no
   host-only change may move it. [warm] cycles reach that fixed point. *)
type arm = {
  a_name : string;
  a_soc : Soc.t;
  a_nat : Native_run.t;
  a_ark : Ark_run.t option;
  a_cycle : unit -> [ `Ok | `Fell_back of string ];
  a_pin : int;
  a_warm : int;
}

let instrs (soc : Soc.t) = soc.Soc.m3.Core.instructions + soc.Soc.cpu.Core.instructions

(* the 3 MB memset lane of `bench lockstep`, spanning the M3 phase *)
let workload_bytes = 3 * 1024 * 1024

let native_arm () =
  let nat = Native_run.create () in
  { a_name = "native"; a_soc = nat.Native_run.plat.Platform.soc; a_nat = nat;
    a_ark = None;
    a_cycle = (fun () -> ignore (Native_run.suspend_resume_cycle nat); `Ok);
    a_pin = 1_628_515; a_warm = 2 }

let ark_arm name ?(superblock = false) ?(quantum = 0) ~pin ~warm run () =
  let ark = Ark_run.create ~superblock ~quantum () in
  { a_name = name; a_soc = (Ark_run.plat ark).Platform.soc;
    a_nat = ark.Ark_run.nat; a_ark = Some ark;
    a_cycle = (fun () -> run ark); a_pin = pin; a_warm = warm }

let steady_arms () =
  let arms =
    [ native_arm ();
      ark_arm "ark" ~pin:1_573_741 ~warm:3 Ark_run.suspend_resume_cycle ();
      ark_arm "superblock" ~superblock:true ~pin:1_509_407 ~warm:24
        Ark_run.suspend_resume_cycle ();
      ark_arm "lockstep" ~quantum:20_000 ~pin:9_428_676 ~warm:4
        (Ark_run.concurrent_cycle ~domains:false ~workload_bytes) () ]
  in
  List.iter (fun a -> for _ = 1 to a.a_warm do ignore (a.a_cycle ()) done) arms;
  Array.of_list arms

(* one checked warm cycle; returns its host wall time *)
let cycle arm =
  let i0 = instrs arm.a_soc in
  let r, dt = timed arm.a_cycle in
  let n = instrs arm.a_soc - i0 in
  check (r = `Ok) "%s: cycle fell back" arm.a_name;
  check (n = arm.a_pin) "%s: %d instructions, pinned %d" arm.a_name n arm.a_pin;
  dt

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------ hook instrumentation ----------------------- *)

(* Wrappers on the program's public mutable hooks: Engine.cb,
   Engine.env, Interp.env and Mem.regions. Installed only in the traced
   run, and removed after each traced operation. *)
type hooks = {
  mutable emu_calls : int;
  mutable emu_s : float;
  mutable gic_calls : int;
  mutable gic_s : float;
  mutable hook_calls : int;
  mutable fallback_calls : int;
  mutable irq_windows : int;
  mutable loads : int;
  mutable stores : int;
  mutable mmio : int;
  mutable mmio_s : float;
  mutable block_execs : int;
  mutable block_dispatches : int;
}

let hk =
  { emu_calls = 0; emu_s = 0.; gic_calls = 0; gic_s = 0.; hook_calls = 0;
    fallback_calls = 0; irq_windows = 0; loads = 0; stores = 0; mmio = 0;
    mmio_s = 0.; block_execs = 0; block_dispatches = 0 }

(* inclusive host time of [f], added to a counter even when [f] raises
   (callbacks raise to take control) *)
let timed_into add f =
  let t0 = now () in
  match f () with
  | v ->
    add (now () -. t0);
    v
  | exception e ->
    add (now () -. t0);
    raise e

let counting_env (env : Tk_isa.Exec.env) =
  { env with
    Tk_isa.Exec.load =
      (fun a n ->
        hk.loads <- hk.loads + 1;
        env.Tk_isa.Exec.load a n);
    store =
      (fun a n v ->
        hk.stores <- hk.stores + 1;
        env.Tk_isa.Exec.store a n v) }

let add_mmio d = hk.mmio_s <- hk.mmio_s +. d

let instrument (soc : Soc.t) (nat : Native_run.t) (ark : Ark_run.t option) =
  let interp = nat.Native_run.interp in
  let ienv = interp.Interp.env in
  interp.Interp.env <- counting_env ienv;
  let mem = soc.Soc.mem in
  let regions = mem.Mem.regions in
  mem.Mem.regions <-
    List.map
      (fun (r : Mem.region) ->
        { r with
          Mem.rread =
            (fun o n ->
              hk.mmio <- hk.mmio + 1;
              timed_into add_mmio (fun () -> r.Mem.rread o n));
          rwrite =
            (fun o n v ->
              hk.mmio <- hk.mmio + 1;
              timed_into add_mmio (fun () -> r.Mem.rwrite o n v)) })
      regions;
  let undo_engine =
    match ark with
    | None -> ignore
    | Some a ->
      let e = a.Ark_run.ark.Transkernel.Ark.engine in
      let cb = e.Engine.cb in
      let saved = { cb with Engine.on_emu = cb.Engine.on_emu } in
      let eenv = e.Engine.env in
      e.Engine.env <- counting_env eenv;
      e.Engine.profile <- true;
      cb.Engine.on_emu <-
        (fun name cpu ->
          hk.emu_calls <- hk.emu_calls + 1;
          timed_into
            (fun d -> hk.emu_s <- hk.emu_s +. d)
            (fun () -> saved.Engine.on_emu name cpu));
      cb.Engine.on_hook <-
        (fun name cpu ->
          hk.hook_calls <- hk.hook_calls + 1;
          saved.Engine.on_hook name cpu);
      cb.Engine.on_fallback <-
        (fun r ~guest_pc ~skippable cpu ->
          hk.fallback_calls <- hk.fallback_calls + 1;
          saved.Engine.on_fallback r ~guest_pc ~skippable cpu);
      cb.Engine.on_irq_window <-
        (fun cpu ->
          hk.irq_windows <- hk.irq_windows + 1;
          saved.Engine.on_irq_window cpu);
      cb.Engine.on_gic_access <-
        (fun ~write addr v ->
          hk.gic_calls <- hk.gic_calls + 1;
          timed_into
            (fun d -> hk.gic_s <- hk.gic_s +. d)
            (fun () -> saved.Engine.on_gic_access ~write addr v));
      fun () ->
        cb.Engine.on_emu <- saved.Engine.on_emu;
        cb.Engine.on_hook <- saved.Engine.on_hook;
        cb.Engine.on_fallback <- saved.Engine.on_fallback;
        cb.Engine.on_irq_window <- saved.Engine.on_irq_window;
        cb.Engine.on_gic_access <- saved.Engine.on_gic_access;
        e.Engine.env <- eenv;
        List.iter
          (fun (b : Engine.block_profile) ->
            hk.block_execs <- hk.block_execs + b.Engine.bp_execs;
            hk.block_dispatches <- hk.block_dispatches + b.Engine.bp_dispatches)
          (Engine.profile_blocks e);
        e.Engine.profile <- false
  in
  fun () ->
    interp.Interp.env <- ienv;
    mem.Mem.regions <- regions;
    undo_engine ()

(* Exact work counts read off the platform around an operation; the
   deltas of one phase add up in [acc]. *)
let c_instrs = 0
let c_exits = 1
let c_patches = 2
let c_formed = 3
let c_fused = 4
let c_elided = 5
let c_m3_acc = 6
let c_m3_miss = 7
let c_a9_acc = 8
let c_a9_miss = 9
let c_events = 10
let ncounts = 11

let snap (soc : Soc.t) (ark : Ark_run.t option) =
  let e f =
    match ark with
    | Some a -> f a.Ark_run.ark.Transkernel.Ark.engine
    | None -> 0
  in
  let m3 = soc.Soc.m3.Core.cache and a9 = soc.Soc.cpu.Core.cache in
  [| instrs soc; e (fun e -> e.Engine.engine_exits);
     e (fun e -> e.Engine.patches); e (fun e -> e.Engine.traces_formed);
     e (fun e -> e.Engine.fusions_applied); e (fun e -> e.Engine.probes_elided);
     m3.Cache.hits + m3.Cache.misses; m3.Cache.misses;
     a9.Cache.hits + a9.Cache.misses; a9.Cache.misses;
     Clock.seq_value soc.Soc.clock |]

let acc = Array.make ncounts 0

let on_platform ~traced (soc : Soc.t) nat ark f =
  let s0 = snap soc ark in
  let undo = if traced then instrument soc nat ark else ignore in
  Fun.protect
    ~finally:(fun () ->
      undo ();
      let s1 = snap soc ark in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v - s0.(i)) s1)
    f

(* ------------------------------ steady ------------------------------- *)

(* per-arm (wall, nominal wall, minor words, instructions) of untraced
   warm cycles *)
let tier_samples : (string, (float * float * float * int) list) Hashtbl.t =
  Hashtbl.create 4

(* [rounds] rounds (or until [deadline]) of one cycle per arm, in a
   seed-shuffled order each round *)
let steady_rounds ?(deadline = 0.0) ~traced ~record arms rng rounds =
  let out = ref [] and n = ref 0 in
  while !n < rounds || now () < deadline do
    let round = ref [] in
    List.iter
      (fun i ->
        let a = arms.(i) in
        let w0 = Gc.minor_words () in
        match
          op a.a_name (fun () ->
              on_platform ~traced a.a_soc a.a_nat a.a_ark (fun () -> cycle a))
        with
        | Some dt ->
          out := i :: !out;
          round := (a, dt, Gc.minor_words () -. w0) :: !round
        | None -> ())
      (shuffle rng (List.init (Array.length arms) Fun.id));
    (* one reference run per round scales the round's cycles *)
    if record then begin
      let scale = nominal 1.0 in
      List.iter
        (fun (a, dt, words) ->
          Hashtbl.replace tier_samples a.a_name
            ((dt, dt *. scale, words, a.a_pin)
            :: Option.value ~default:[] (Hashtbl.find_opt tier_samples a.a_name)))
        !round
    end;
    incr n
  done;
  (* the arm of each cycle that retired its pinned count *)
  List.sort compare !out

let tier a = Option.value ~default:[] (Hashtbl.find_opt tier_samples a.a_name)
let tier_walls a = List.map (fun (dt, _, _, _) -> dt) (tier a)

(* steady's end-to-end figure: the geometric mean over the four tiers of
   warm wakeups per nominal second, each from its tier's median cycle,
   so every tier weighs alike whatever its cycle length *)
let steady_rate arms =
  let logs =
    Array.to_list
      (Array.map
         (fun a -> log (1.0 /. median (List.map (fun (_, n, _, _) -> n) (tier a))))
         arms)
  in
  exp (sumf logs /. float_of_int (List.length logs))

let steady ~seed ~seconds =
  let arms = steady_arms () in
  let rng = Random.State.make [| seed |] in
  let deadline = now () +. seconds in
  ignore (steady_rounds ~traced:false ~record:true arms rng 3);
  mark_rss ();
  ignore (steady_rounds ~deadline ~traced:false ~record:true arms rng 0);
  metric "wakeups_per_s" "1/s" (steady_rate arms);
  Array.iter
    (fun a ->
      let w = tier_walls a in
      note ("sim_mips_" ^ a.a_name)
        (J.Obj
           [ ("median", J.Num (float_of_int a.a_pin /. median w /. 1e6));
             ("q1", J.Num (float_of_int a.a_pin /. quantile 0.75 w /. 1e6));
             ("q3", J.Num (float_of_int a.a_pin /. quantile 0.25 w /. 1e6));
             ("n", J.Int (List.length w)) ]))
    arms

(* --------------------------- paper_suite ----------------------------- *)

(* Figure 6 whole-phase busy overheads (Ark, Mid, Baseline over native)
   and Figure 5's ARK energy over native, printed to 17 digits: simulated
   results, identical on every host *)
let pin_overheads = [ "2.4328006329024703"; "3.512923356435627"; "12.982388800829133" ]
let pin_energy = "0.62953005205363621"

(* m3 instructions, m3 busy cycles, m3 misses, cpu instructions over a
   superblock arm's two cycles *)
let pin_sb = [ 2_986_682; 6_274_541; 15_088; 31_756 ]
let fmt17 = Printf.sprintf "%.17g"

(* a superblock arm over [dir]: a cold one saves its cache, a fresh one
   warm-loads it; both must show the same simulated activity *)
let sb_arm ~traced dir =
  let ark = Ark_run.create ~superblock:true ~cache_dir:dir () in
  let soc = (Ark_run.plat ark).Platform.soc in
  let a0 = Core.activity soc.Soc.m3 and c0 = soc.Soc.cpu.Core.instructions in
  on_platform ~traced soc ark.Ark_run.nat (Some ark) (fun () ->
      for _ = 1 to 2 do
        check (Ark_run.suspend_resume_cycle ark = `Ok) "superblock arm fell back"
      done);
  let d = Core.activity_delta a0 (Core.activity soc.Soc.m3) in
  ( ark,
    [ d.Core.a_instructions; d.Core.a_busy_cycles; d.Core.a_cache_misses;
      soc.Soc.cpu.Core.instructions - c0 ] )

let sb_cold_warm ~traced dir =
  let cold, out_cold = sb_arm ~traced dir in
  Ark_run.save_cache cold;
  let warm, out_warm = sb_arm ~traced dir in
  check
    (warm.Ark_run.ark.Transkernel.Ark.engine.Engine.cache_warm_hits > 0)
    "warm superblock arm loaded no translations";
  check (out_cold = out_warm) "warm superblock arm differs from cold";
  out_cold

let check_suite ~overheads ~energy ~sb =
  let got = List.map fmt17 overheads in
  check (got = pin_overheads) "whole-phase overheads %s, pinned %s"
    (String.concat "/" got) (String.concat "/" pin_overheads);
  (match energy with
  | Some e ->
    check (fmt17 e = pin_energy) "ARK energy ratio %s, pinned %s" (fmt17 e)
      pin_energy
  | None -> ());
  check (sb = pin_sb) "superblock arm activity %s"
    (String.concat "/" (List.map string_of_int sb))

(* one Figure 5/6 reproduction from cold, every arm on a fresh platform *)
let suite_pass dir =
  let n = Experiments.measure_native () in
  let offl =
    List.map (fun m -> Experiments.measure_mode m)
      [ Translator.Ark; Translator.Mid; Translator.Baseline ]
  in
  List.iter
    (fun (r : Experiments.run) ->
      check (not r.Experiments.r_fell_back) "%s fell back" r.Experiments.r_label)
    offl;
  let overheads =
    List.map
      (fun (r : Experiments.run) ->
        Experiments.overhead ~native:n.Experiments.r_whole
          ~offloaded:r.Experiments.r_whole)
      offl
  in
  let energy =
    Power.total (List.hd offl).Experiments.r_energy
    /. Power.total n.Experiments.r_energy
  in
  let sb = sb_cold_warm ~traced:false dir in
  if not (List.mem_assoc "suite_outputs" !notes) then
    note "suite_outputs"
      (J.Obj
         [ ("overheads", J.Arr (List.map (fun x -> J.Str (fmt17 x)) overheads));
           ("energy", J.Str (fmt17 energy));
           ("sb", J.Arr (List.map (fun x -> J.Int x) sb)) ]);
  check_suite ~overheads ~energy:(Some energy) ~sb

(* suspend/resume cycles one pass runs: two per arm, six arms *)
let suite_cycles = 12

let paper_suite ~seconds =
  let dir = fresh_dir "cache" in
  let deadline = now () +. seconds in
  let walls = ref [] and k = ref 0 in
  while !k = 0 || now () < deadline do
    incr k;
    (* every pass starts from a collected heap, so the last pass's
       platforms are not swept inside this one's window *)
    Gc.full_major ();
    (match op "suite pass" (fun () -> snd (timed (fun () -> suite_pass dir))) with
    | Some w -> walls := (w, nominal w) :: !walls
    | None -> ());
    if !k = 3 then mark_rss ()
  done;
  let walls = if !walls = [] then [ (nan, nan) ] else !walls in
  let rate w = float_of_int suite_cycles /. w in
  timing "wakeups_per_s" "1/s" (List.map (fun (_, n) -> rate n) walls);
  note "raw_wakeups_per_s" (raw (List.map (fun (w, _) -> rate w) walls))

(* the suite's arms replayed through the public create/cycle calls, so
   the hook wrappers can sit on each platform; outputs are each arm's
   second-cycle busy cycles and instructions, plus the superblock pair *)
let suite_replay ~traced =
  let native =
    let nat = Native_run.create () in
    let soc = nat.Native_run.plat.Platform.soc in
    on_platform ~traced soc nat None (fun () ->
        ignore (Native_run.suspend_resume_cycle nat);
        let a0 = Core.activity soc.Soc.cpu in
        ignore (Native_run.suspend_resume_cycle nat);
        Core.activity_delta a0 (Core.activity soc.Soc.cpu))
  in
  let offl =
    List.map
      (fun mode ->
        let ark = Ark_run.create ~mode () in
        let soc = (Ark_run.plat ark).Platform.soc in
        on_platform ~traced soc ark.Ark_run.nat (Some ark) (fun () ->
            ignore (Ark_run.suspend_resume_cycle ark);
            let a0 = Core.activity soc.Soc.m3 in
            check (Ark_run.suspend_resume_cycle ark = `Ok) "arm fell back";
            Core.activity_delta a0 (Core.activity soc.Soc.m3)))
      [ Translator.Ark; Translator.Mid; Translator.Baseline ]
  in
  let busy (d : Core.activity) = d.Core.a_busy_cycles in
  let overheads =
    List.map (fun d -> float_of_int (busy d) /. float_of_int (busy native)) offl
  in
  let sb = sb_cold_warm ~traced (fresh_dir "cache") in
  check_suite ~overheads ~energy:None ~sb;
  List.concat_map
    (fun (d : Core.activity) -> [ d.Core.a_busy_cycles; d.Core.a_instructions ])
    (native :: offl)
  @ sb

(* ------------------------------- fleet ------------------------------- *)

(* A fixed-size Poisson population over all six dconfigs. The window is
   long enough that every instance reaches [max_wakeups], so each pass
   does the same number of wakeups whatever the seed. *)
let fleet_cfg ~smoke ~seed =
  { Fleet.default_config with
    Fleet.devices = (if smoke then 6 else 12); jobs = 1; seed;
    duration_ms = 5_000; mean_gap_ms = 40;
    max_wakeups = (if smoke then 2 else 6) }

(* the fleet digest without the git revision Fleet.run stamps into its
   meta section, so a pin holds in any checkout *)
let content_digest (t : Fleet.t) =
  match t.Fleet.doc with
  | J.Obj kvs ->
    J.digest_string
      (J.to_string
         (J.Obj
            (List.filter_map
               (function
                 | "meta", J.Obj m ->
                   Some ("meta", J.Obj (List.remove_assoc "git_rev" m))
                 | (("shards" | "aggregate"), _) as kv -> Some kv
                 | _ -> None)
               kvs)))
  | _ -> ""

let pin_file = Filename.concat "perfbench" "fleet_digests.txt"

(* seed -> content digest of the full-size fleet pass *)
let fleet_pins () =
  let tbl = Hashtbl.create 64 in
  (match open_in pin_file with
  | ic ->
    (try
       while true do
         match String.split_on_char ' ' (String.trim (input_line ic)) with
         | [ s; d ] -> (
           match int_of_string_opt s with
           | Some s -> Hashtbl.replace tbl s d
           | None -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  | exception Sys_error _ -> ());
  tbl

let fleet_pass cfg =
  let t = Fleet.run cfg in
  check (not (Fleet.failed t)) "fleet pass failed: %s"
    (match Fleet.first_error t with Some (_, m) -> m | None -> "?");
  let w = Fleet.counter t "fleet.wakeups" in
  check (w = cfg.Fleet.devices * cfg.Fleet.max_wakeups)
    "fleet pass did %d wakeups, expected %d" w
    (cfg.Fleet.devices * cfg.Fleet.max_wakeups);
  (t, w, content_digest t)

let fleet ~smoke ~seed ~seconds =
  let cfg = fleet_cfg ~smoke ~seed in
  let pin = if smoke then None else Hashtbl.find_opt (fleet_pins ()) seed in
  note "fleet_digest_pinned" (J.Int (if pin = None then 0 else 1));
  let deadline = now () +. seconds in
  let rates = ref [] and first = ref pin and k = ref 0 in
  while !k = 0 || now () < deadline do
    (* alternate the instance order: the digest must not depend on it *)
    let schedule = if !k mod 2 = 0 then Fleet.Chrono else Fleet.Reversed in
    incr k;
    Gc.full_major ();
    (match
      op "fleet pass" (fun () ->
          let (_, w, d), wall = timed (fun () -> fleet_pass { cfg with Fleet.schedule }) in
          (match !first with
          | Some p -> check (d = p) "fleet digest %s, expected %s" d p
          | None -> first := Some d);
          (float_of_int w /. wall, float_of_int w /. nominal wall))
    with
    | Some r -> rates := r :: !rates
    | None -> ());
    if !k = 2 then mark_rss ()
  done;
  note "fleet_digest" (J.Str (Option.value ~default:"" !first));
  let rates = if !rates = [] then [ (nan, nan) ] else !rates in
  timing "wakeups_per_s" "1/s" (List.map snd rates);
  note "raw_wakeups_per_s" (raw (List.map fst rates))

(* one instance per dconfig on a freshly booted, warmed world with spans
   on, as a fleet shard runs its first instance *)
let fleet_replay ~traced cfg =
  List.concat
    (List.mapi
       (fun id (dc : Fleet.dconfig) ->
         let ark =
           Ark_run.create ~devices:dc.Fleet.dc_devices
             ~superblock:dc.Fleet.dc_superblock ()
         in
         ignore (Fleet.warmup ark ~dc);
         let soc = (Ark_run.plat ark).Platform.soc in
         Tk_stats.Span.enable soc.Soc.spans;
         let sk () = Tk_stats.Sketch.create () in
         let r =
           on_platform ~traced soc ark.Ark_run.nat (Some ark) (fun () ->
               Fleet.run_instance cfg dc ark ~lat:(sk ()) ~pressure:(sk ())
                 ~energy_sk:(sk ()) ~id)
         in
         check (r.Fleet.i_wakeups = cfg.Fleet.max_wakeups)
           "instance %d did %d wakeups" id r.Fleet.i_wakeups;
         [ r.Fleet.i_wakeups; r.Fleet.i_fallbacks; r.Fleet.i_energy_nj ])
       (Array.to_list Fleet.dconfigs))

(* ------------------------------ set-up ------------------------------- *)

(* Ark_run.create: image compile, native boot and ARK prepare *)
let setup_s ~smoke =
  let walls =
    List.init (if smoke then 3 else 21) (fun _ ->
        (* start each from a collected heap, so one create's garbage is
           not charged to the next *)
        Gc.full_major ();
        let w = snd (timed (fun () -> ignore (Ark_run.create ()))) in
        (w, nominal w))
  in
  timing "setup_s" "s" (List.map snd walls);
  note "raw_setup_s" (raw (List.map fst walls))

(* ---------------------------- GC phases ------------------------------ *)

(* host time inside minor collections and major slices, read in-process
   from the bundled runtime_events ring *)
let gc_ns = ref 0L
let gc_lost = ref 0
let gc_cursor = ref None

let gc_callbacks =
  let depth = ref 0 and start = ref 0L in
  let gc_phase = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts ph ->
      if gc_phase ph then begin
        if !depth = 0 then start := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts ph ->
      if gc_phase ph && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          gc_ns :=
            Int64.add !gc_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !start)
      end)
    ~lost_events:(fun _ n -> gc_lost := !gc_lost + n)
    ()

let gc_poll () =
  match !gc_cursor with
  | Some c -> ignore (Runtime_events.read_poll c gc_callbacks None)
  | None -> ()

let gc_start () =
  (match !gc_cursor with
  | None ->
    Runtime_events.start ();
    gc_cursor := Some (Runtime_events.create_cursor None)
  | Some _ -> Runtime_events.resume ());
  gc_poll ();
  gc_ns := 0L

let gc_stop () =
  gc_poll ();
  Runtime_events.pause ();
  Int64.to_float !gc_ns /. 1e9

(* ------------------------------ probes ------------------------------- *)

(* Direct timed calls on public functions, the same in every traced
   run: each gives the per-layer metrics of a layer some workload
   reaches only through a private path. *)

let probe name f = ignore (op name f)

let tier_metrics arms =
  Array.iter
    (fun a ->
      let s = tier a in
      let walls = tier_walls a in
      metric ("tier.sim_mips." ^ a.a_name) "MIPS"
        (float_of_int a.a_pin /. median walls /. 1e6);
      if a.a_name <> "lockstep" then
        metric ("gc.minor_words_per_instr." ^ a.a_name) "words/instr"
          (sumf (List.map (fun (_, _, w, _) -> w) s)
          /. float_of_int (List.fold_left (fun n (_, _, _, i) -> n + i) 0 s)))
    arms

let lockstep_probe arms =
  let ls = arms.(3) in
  let ark = Option.get ls.a_ark in
  let r0 = ark.Ark_run.ls_rounds and c0 = ark.Ark_run.ls_commits in
  let walls = List.init 3 (fun _ -> cycle ls) in
  let rounds = (ark.Ark_run.ls_rounds - r0) / 3 in
  count "lockstep.rounds" rounds;
  count "lockstep.commits" ((ark.Ark_run.ls_commits - c0) / 3);
  metric ~samples:walls "lockstep.us_per_round" "us"
    (median walls *. 1e6 /. float_of_int (max 1 rounds))

let modes =
  [ (Translator.Ark, "ark"); (Translator.Mid, "mid"); (Translator.Baseline, "baseline") ]

(* translate every kernel function entry on a fresh engine *)
let translator_probe ~reps =
  List.iter
    (fun (mode, name) ->
      let runs =
        List.init reps (fun _ ->
            let ark = Ark_run.create ~mode () in
            let e = ark.Ark_run.ark.Transkernel.Ark.engine in
            let image = (Ark_run.plat ark).Platform.built.Tk_kernel.Image.image in
            let entries =
              List.sort compare
                (Hashtbl.fold (fun a _ l -> a :: l) image.Tk_isa.Asm.sym_of_addr [])
            in
            let g0 = e.Engine.guest_translated and h0 = e.Engine.host_emitted in
            let refused = ref 0 in
            let (), dt =
              timed (fun () ->
                  List.iter
                    (fun a ->
                      try ignore (Engine.translate_block e a)
                      with Engine.Host_error _ | Failure _ | Invalid_argument _ ->
                        incr refused)
                    entries)
            in
            ( dt *. 1e9 /. float_of_int (max 1 (e.Engine.guest_translated - g0)),
              e.Engine.host_emitted - h0, !refused ))
      in
      timing ("translator.ns_per_guest_instr." ^ name) "ns"
        (List.map (fun (x, _, _) -> x) runs);
      let _, words, refused = List.hd runs in
      count ("translator.host_words." ^ name) words;
      note ("translator_refused_" ^ name) (J.Int refused))
    modes

(* first cycle minus the median warm cycle, on a fresh platform *)
let cold_extra_probe () =
  List.iter
    (fun (name, superblock) ->
      let ark = Ark_run.create ~superblock () in
      let t () = snd (timed (fun () -> ignore (Ark_run.suspend_resume_cycle ark))) in
      let first = t () in
      let warm = List.init 4 (fun _ -> t ()) in
      metric ("translator.cold_extra_ms." ^ name) "ms"
        ((first -. median warm) *. 1e3))
    [ ("ark", false); ("superblock", true) ]

let cache_store_probe () =
  let dir = fresh_dir "cache-probe" in
  let cold, _ = sb_arm ~traced:false dir in
  let (), save = timed (fun () -> Ark_run.save_cache cold) in
  let image = (Ark_run.plat cold).Platform.built.Tk_kernel.Image.image in
  let key =
    Cache_store.key_of_image ~base:image.Tk_isa.Asm.base ~words:image.Tk_isa.Asm.words
  in
  let path = Cache_store.path ~dir ~key in
  let loads =
    List.init 3 (fun _ ->
        let r, dt = timed (fun () -> Cache_store.load ~dir ~key) in
        check (r <> None) "cache file did not load";
        dt *. 1e3)
  in
  let warm, _ = sb_arm ~traced:false dir in
  metric "cache_store.save_ms" "ms" (save *. 1e3);
  timing "cache_store.load_ms" "ms" loads;
  metric "cache_store.bytes" "B" (float_of_int (Unix.stat path).Unix.st_size);
  count "cache_store.warm_hits"
    warm.Ark_run.ark.Transkernel.Ark.engine.Engine.cache_warm_hits

(* fork/restore on a warm world built here. The restores run without
   Fleet's private page hook, so this world never executes again. *)
let world_probe () =
  let dc = Fleet.dconfigs.(0) in
  let ark = Ark_run.create ~devices:dc.Fleet.dc_devices () in
  ignore (Fleet.warmup ark ~dc);
  let soc = (Ark_run.plat ark).Platform.soc in
  let w =
    World.create
      ~shared_ranges:[ (Soc.code_cache_base, Soc.code_cache_base + Soc.code_cache_size) ]
      soc
  in
  Fleet.install_hooks w ark;
  let snap = World.fork w in
  let forks = List.init 5 (fun _ -> snd (timed (fun () -> ignore (World.fork w))) *. 1e3) in
  let restores =
    List.init 5 (fun _ -> snd (timed (fun () -> World.restore w snap)) *. 1e3)
  in
  timing "world.fork_ms" "ms" forks;
  timing "world.restore_ms" "ms" restores

let host_world_counter (t : Fleet.t) k =
  match t.Fleet.doc with
  | J.Obj kvs -> (
    match List.assoc_opt "host" kvs with
    | Some (J.Obj h) -> (
      match List.assoc_opt "world" h with
      | Some (J.Obj w) -> (
        match List.assoc_opt k w with Some (J.Int n) -> n | _ -> 0)
      | _ -> 0)
    | _ -> 0)
  | _ -> 0

let fleet_probe ~smoke ~seed =
  let cfg =
    { (fleet_cfg ~smoke:true ~seed) with
      Fleet.devices = (if smoke then 6 else 12) }
  in
  Array.iter
    (fun (dc : Fleet.dconfig) ->
      let ark =
        Ark_run.create ~devices:dc.Fleet.dc_devices
          ~superblock:dc.Fleet.dc_superblock ()
      in
      let n, dt = timed (fun () -> Fleet.warmup ark ~dc) in
      metric ("fleet.warmup_ms." ^ dc.Fleet.dc_name) "ms" (dt *. 1e3);
      count ("fleet.warmup_cycles." ^ dc.Fleet.dc_name) n)
    Fleet.dconfigs;
  let built = Platform.build_image () in
  let shard_ms =
    List.map
      (fun sh -> snd (timed (fun () -> ignore (Fleet.shard_task ~built cfg sh))) *. 1e3)
      (Fleet.plan cfg)
  in
  metric ~samples:shard_ms "fleet.shard_ms_max_over_mean" "ratio"
    (List.fold_left max 0.0 shard_ms
    /. (sumf shard_ms /. float_of_int (List.length shard_ms)));
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let t1, _, d1 = fleet_pass cfg in
  let tj, _, dj = fleet_pass { cfg with Fleet.jobs } in
  check (d1 = dj) "fleet digest changed with -j%d" jobs;
  metric "fleet.parallel_speedup" "ratio" (t1.Fleet.wall_s /. tj.Fleet.wall_s);
  note "fleet_probe_jobs" (J.Int jobs);
  metric "world.pages_loaded_per_restore" "count"
    (ratio (host_world_counter t1 "world.pages_loaded")
       (host_world_counter t1 "world.restores"))

(* each recorder on versus off, on warm superblock cycles *)
let recorders_probe (sb : arm) ~cycles =
  let soc = sb.a_soc in
  List.iter
    (fun (name, on, off) ->
      let offs = ref [] and ons = ref [] in
      for _ = 1 to cycles do
        offs := cycle sb :: !offs;
        on ();
        ons := Fun.protect ~finally:off (fun () -> cycle sb) :: !ons
      done;
      metric ~samples:!ons ("recorders." ^ name ^ "_on_pct") "%"
        ((median !ons /. median !offs -. 1.0) *. 100.0))
    [ ( "trace",
        (fun () -> Tk_stats.Trace.enable soc.Soc.trace),
        fun () ->
          Tk_stats.Trace.disable soc.Soc.trace;
          Tk_stats.Trace.reset soc.Soc.trace );
      ( "spans",
        (fun () -> Tk_stats.Span.enable soc.Soc.spans),
        fun () ->
          Tk_stats.Span.disable soc.Soc.spans;
          Tk_stats.Span.reset soc.Soc.spans );
      ( "timeseries",
        (fun () -> Tk_stats.Timeseries.enable soc.Soc.sampler),
        fun () -> Tk_stats.Timeseries.disable soc.Soc.sampler ) ]

let setup_probe () =
  let image =
    List.init 5 (fun _ -> snd (timed (fun () -> ignore (Platform.build_image ()))) *. 1e3)
  in
  let built = Platform.build_image () in
  let boot =
    List.init 5 (fun _ -> snd (timed (fun () -> ignore (Ark_run.create ~built ()))) *. 1e3)
  in
  timing "setup.image_build_ms" "ms" image;
  timing "setup.boot_ms" "ms" boot

(* ---------------------------- traced run ----------------------------- *)

(* The workload's replayable operation three times: untraced (U), with
   runtime_events GC phases on (G), and with the hook wrappers on (T).
   Simulated outputs must agree across the three. *)
let traced ~workload ~seed ~smoke =
  let rng = Random.State.make [| seed |] in
  let arms = steady_arms () in
  let rounds = if smoke then 1 else 3 in
  let replay =
    match workload with
    | "steady" ->
      fun ~traced -> steady_rounds ~traced ~record:false arms rng rounds
    | "paper_suite" -> fun ~traced -> suite_replay ~traced
    | _ ->
      let cfg = fleet_cfg ~smoke ~seed in
      fun ~traced -> fleet_replay ~traced cfg
  in
  let phase name ~traced =
    Array.fill acc 0 ncounts 0;
    op name (fun () -> timed (fun () -> replay ~traced))
  in
  (* tier walls and allocation: untraced warm rounds on every arm *)
  ignore (steady_rounds ~traced:false ~record:true arms rng rounds);
  let u = phase "untraced replay" ~traced:false in
  gc_start ();
  let q0 = Gc.quick_stat () in
  let g = phase "gc-traced replay" ~traced:false in
  let q1 = Gc.quick_stat () in
  let gc_s = gc_stop () in
  let g_instrs = acc.(c_instrs) in
  let t = phase "hook-traced replay" ~traced:true in
  (match (u, g, t) with
  | Some (ou, wu), Some (og, wg), Some (ot, wt) ->
    incr attempted;
    if not (ou = og && og = ot) then begin
      incr failed;
      prerr_endline "perfbench: traced replay outputs differ from untraced"
    end;
    let k = acc.(c_instrs) in
    let pk n = per_k n k in
    metric "trace.overhead_pct" "%" ((wt /. wu -. 1.0) *. 100.0);
    note "replay_wall_s"
      (J.Obj [ ("untraced", J.Num wu); ("gc", J.Num wg); ("hooks", J.Num wt) ]);
    metric "gc.promoted_words_per_instr" "words/instr"
      ((q1.Gc.promoted_words -. q0.Gc.promoted_words) /. float_of_int (max 1 g_instrs));
    count "gc.minor_collections" (q1.Gc.minor_collections - q0.Gc.minor_collections);
    count "gc.major_collections" (q1.Gc.major_collections - q0.Gc.major_collections);
    metric "gc.time_share" "fraction" (gc_s /. wg);
    note "gc_lost_events" (J.Int !gc_lost);
    metric "engine.exits_per_kinstr" "1/kinstr" (pk acc.(c_exits));
    count "engine.patches" acc.(c_patches);
    metric "engine.chain_rate" "fraction"
      (1.0 -. ratio hk.block_dispatches hk.block_execs);
    metric "engine.irq_windows_per_kinstr" "1/kinstr" (pk hk.irq_windows);
    count "superblock.traces_formed" acc.(c_formed);
    count "superblock.fusions_applied" acc.(c_fused);
    count "superblock.probes_elided" acc.(c_elided);
    metric "ark.emu_calls_per_kinstr" "1/kinstr" (pk hk.emu_calls);
    metric "ark.emu_ns_share" "fraction" (hk.emu_s /. wt);
    count "ark.gic_calls" hk.gic_calls;
    metric "ark.gic_ns_share" "fraction" (hk.gic_s /. wt);
    count "ark.hook_calls" hk.hook_calls;
    count "ark.fallbacks" hk.fallback_calls;
    metric "mem.loads_per_kinstr" "1/kinstr" (pk hk.loads);
    metric "mem.stores_per_kinstr" "1/kinstr" (pk hk.stores);
    metric "mmio.accesses_per_kinstr" "1/kinstr" (pk hk.mmio);
    metric "mmio.ns_share" "fraction" (hk.mmio_s /. wt);
    metric "cache.m3_accesses_per_kinstr" "1/kinstr" (pk acc.(c_m3_acc));
    metric "cache.m3_miss_rate" "fraction" (ratio acc.(c_m3_miss) acc.(c_m3_acc));
    metric "cache.a9_miss_rate" "fraction" (ratio acc.(c_a9_miss) acc.(c_a9_acc));
    metric "clock.events_per_kinstr" "1/kinstr" (pk acc.(c_events));
    note "replay_instructions" (J.Int k)
  | _ -> ());
  probe "tier" (fun () -> tier_metrics arms);
  probe "lockstep" (fun () -> lockstep_probe arms);
  probe "recorders" (fun () -> recorders_probe arms.(2) ~cycles:(if smoke then 1 else 4));
  probe "translator" (fun () -> translator_probe ~reps:(if smoke then 1 else 3));
  probe "cold extra" cold_extra_probe;
  probe "cache store" cache_store_probe;
  probe "world" world_probe;
  probe "fleet" (fun () -> fleet_probe ~smoke ~seed);
  probe "setup" setup_probe

(* ------------------------------ output ------------------------------- *)

(* J.to_string rounds floats to six places; measured values keep all
   their digits here *)
let rec js = function
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | J.Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | J.Num _ -> "0.0" (* no measurement: every operation behind it failed *)
  | J.Obj kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> J.to_string (J.Str k) ^ ": " ^ js v) kvs) ^ "}"
  | J.Arr vs -> "[" ^ String.concat ", " (List.map js vs) ^ "]"
  | j -> J.to_string j


let print_result ~workload ~seed ~trace =
  let ms = List.rev !metrics in
  let detail =
    J.Obj
      ([ ("workload", J.Str workload); ("seed", J.Int seed); ("trace", J.Int trace);
         ( "git_rev",
           J.Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_GIT_REV")) );
         ( "source_digest",
           J.Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_SOURCE_DIGEST")) );
         ("nproc", J.Int (Domain.recommended_domain_count ()));
         ("ocaml", J.Str Sys.ocaml_version);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    J.Obj
                      ([ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]
                      @
                      if m.samples = [] then []
                      else
                        [ ("q1", J.Num (quantile 0.25 m.samples));
                          ("q3", J.Num (quantile 0.75 m.samples));
                          ("n", J.Int (List.length m.samples)) ]) ))
                ms) ) ]
      @ List.rev !notes)
  in
  print_endline (js (J.Obj [ ("detail", detail) ]));
  let ok = !failed = 0 && List.for_all (fun m -> Float.is_finite m.value) ms in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    ok (max 1 !attempted) !failed
    (js
       (J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
             ms)))

let pin_fleet lo hi =
  for seed = lo to hi do
    let _, _, d = fleet_pass (fleet_cfg ~smoke:false ~seed) in
    Printf.printf "%d %s\n%!" seed d
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and pin = ref [] in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "steady | paper_suite | fleet");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--smoke", Arg.Set smoke, "tiny sizes, for the self-test");
      ( "--pin-fleet",
        Arg.Tuple [ Arg.Int (fun a -> pin := [ a ]); Arg.Int (fun b -> pin := !pin @ [ b ]) ],
        "FROM TO: print the fleet content digest of each seed" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  match !pin with
  | [ lo; hi ] -> pin_fleet lo hi
  | _ ->
    if not (List.mem !workload [ "steady"; "paper_suite"; "fleet" ]) then begin
      prerr_endline "perfbench: --workload must be steady, paper_suite or fleet";
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
    end;
    let smoke = !smoke and seed = !seed in
    if !trace = 0 then begin
      setup_s ~smoke;
      (match !workload with
      | "steady" -> steady ~seed ~seconds:!seconds
      | "paper_suite" -> paper_suite ~seconds:!seconds
      | _ -> fleet ~smoke ~seed ~seconds:!seconds);
      mark_rss ();
      metric "peak_rss_mb" "MB" !rss;
      note "reference_s" (raw !ref_samples)
    end
    else traced ~workload:!workload ~seed ~smoke;
    print_result ~workload:!workload ~seed ~trace:!trace
