(** Fleet-scale simulation: sharded device populations over snapshotable
    SoC worlds.

    A fleet run simulates thousands of device {e instances} — phones on
    a rack, each an independent suspend/resume history — without paying
    a full [Soc]+[Ark_run] boot per instance. Instances are grouped by
    hardware/kernel configuration into {e shards}; each shard boots one
    world, warms the DBT to a translation fixpoint, takes a
    {!Tk_machine.World} snapshot, and then interleaves its instances by
    [restore]-ing that snapshot and running each instance's private
    arrival trace over it. A shard is one {!Tk_campaign.Pool} task, so
    a fleet parallelizes across domains exactly like a campaign.

    {b The invariant, inherited from {!Tk_campaign.Campaign}:} the
    digested sections ([meta]/[shards]/[aggregate]) are a pure function
    of [(devices, arrival, seed, knobs)] — independent of [--jobs]
    {e and} of the order instances execute within a shard. Three
    mechanisms carry that:

    - instance [i] draws randomness only from
      [Random.State.make [| seed; i; 0xF1EE7 |]];
    - every instance starts from the same restored snapshot, and the
      only state shared across instances (the DBT code cache +
      translation maps) is frozen at a warmup fixpoint before the
      snapshot is taken;
    - all digested figures are integers (energy in nJ) folded through
      commutative sums and mergeable {!Tk_stats.Sketch} buckets.

    Anything host- or order-dependent (wall time, jobs, the checkout's
    git revision, world snapshot stats — restore traffic depends on
    execution order) lives in the undigested [host] section. *)

open Tk_isa
open Tk_machine
open Tk_drivers
open Tk_harness
module Ark = Transkernel.Ark
module Engine = Tk_dbt.Engine
module Hyper = Tk_kernel.Hyper
module Power = Tk_energy.Power_model
module Sketch = Tk_stats.Sketch
module Counters = Tk_stats.Counters
module Pool = Tk_campaign.Pool
module J = Run_manifest

(* per-instance PRNG tag (see module doc) *)
let instance_tag = 0xF1EE7

let instance_rng ~seed i = Random.State.make [| seed; i; instance_tag |]

(* ----------------------- device configurations ----------------------- *)

(** One hardware/kernel configuration a slice of the population runs:
    registered device subset, DBT tier, firmware-glitch rate. Instances
    are assigned round-robin ([id mod length]), so every population size
    exercises every configuration. *)
type dconfig = {
  dc_name : string;
  dc_devices : string list;  (** registered subset, a "kernel config" *)
  dc_superblock : bool;  (** stack the trace tier on Ark mode *)
  dc_glitch_every : int;
      (** expected cycles between WiFi firmware glitches (0 = never);
          only meaningful when the mix includes "wifi" *)
}

let dconfigs =
  [| { dc_name = "full"; dc_devices = Platform.registration_order;
       dc_superblock = false; dc_glitch_every = 0 };
     { dc_name = "full-sb"; dc_devices = Platform.registration_order;
       dc_superblock = true; dc_glitch_every = 0 };
     { dc_name = "net"; dc_devices = [ "reg"; "usb"; "bt"; "wifi" ];
       dc_superblock = false; dc_glitch_every = 6 };
     { dc_name = "net-sb"; dc_devices = [ "reg"; "usb"; "bt"; "wifi" ];
       dc_superblock = true; dc_glitch_every = 8 };
     { dc_name = "storage";
       dc_devices = [ "reg"; "mmc"; "usb"; "sd"; "flash" ];
       dc_superblock = false; dc_glitch_every = 0 };
     { dc_name = "minimal"; dc_devices = [ "reg"; "kb" ];
       dc_superblock = false; dc_glitch_every = 0 } |]

let config_of_instance id = id mod Array.length dconfigs

(* ------------------------------ config ------------------------------- *)

(** Execution order of instances inside a shard. Digests must not
    depend on it (the determinism battery pins this); the knob exists
    so tests can prove instance isolation by running both ways. *)
type schedule = Chrono | Reversed

let schedule_name = function Chrono -> "chrono" | Reversed -> "reversed"

type config = {
  devices : int;  (** population size (instances) *)
  arrival : Arrival.kind;
  jobs : int;
  seed : int;
  duration_ms : int;  (** simulated span per instance *)
  mean_gap_ms : int;  (** mean arrival gap *)
  max_wakeups : int;  (** per-instance safety cap *)
  shard_cap : int;  (** max instances per shard (one world each) *)
  schedule : schedule;
  quantum : int;
      (** bounded-quantum lockstep slicing inside every shard world
          (0 = sequential). Like [jobs] and [schedule] it must be
          digest-invisible: any quantum produces the same architectural
          results, so it lives in the undigested [host] section. *)
  chaos_fail : int option;
      (** fault injection: the given shard index raises instead of
          running (tests pin the error-propagation path with it) *)
}

let default_config =
  { devices = 60; arrival = Arrival.Poisson; jobs = 1; seed = 1;
    duration_ms = 100; mean_gap_ms = 40; max_wakeups = 50; shard_cap = 64;
    schedule = Chrono; quantum = 0; chaos_fail = None }

(* ----------------------------- sharding ------------------------------ *)

type shard = {
  sh_index : int;
  sh_config : int;  (** index into {!dconfigs} *)
  sh_ids : int list;  (** member instances, ascending *)
}

let rec chunk cap = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let head, rest = take cap [] l in
    head :: chunk cap rest

(** [plan cfg] — group instances by configuration, then split each
    group at [shard_cap]. Pure function of (devices, shard_cap): the
    shard list is identical at every [jobs] value. *)
let plan (cfg : config) =
  let n = Array.length dconfigs in
  let groups = Array.make n [] in
  for id = cfg.devices - 1 downto 0 do
    groups.(id mod n) <- id :: groups.(id mod n)
  done;
  let shards = ref [] and idx = ref 0 in
  Array.iteri
    (fun ci ids ->
      List.iter
        (fun ch ->
          shards := { sh_index = !idx; sh_config = ci; sh_ids = ch } :: !shards;
          incr idx)
        (chunk cfg.shard_cap ids))
    groups;
  List.rev !shards

(* ------------------------- world snapshot prep ------------------------ *)

(* Warm the DBT until its translation state stops moving: run
   suspend/resume cycles (with the glitch flavor mixed in for glitchy
   configs, so the fallback path is translated too) until the engine's
   structural counters hold still for two consecutive cycles. For the
   superblock tier the threshold is dropped to 1 during warmup and
   parked at max_int after, so no trace forms mid-fleet — the shared
   code cache is then read-only across instances, which is what makes
   instance execution order invisible to the digest. *)
let warmup ark ~(dc : dconfig) =
  let e = ark.Ark_run.ark.Ark.engine in
  if dc.dc_superblock then e.Engine.sb_threshold <- 1;
  let glitchy = dc.dc_glitch_every > 0 && List.mem "wifi" dc.dc_devices in
  let wifi =
    if glitchy then Some (Platform.device (Ark_run.plat ark) "wifi")
    else None
  in
  let fingerprint () =
    ( e.Engine.blocks, e.Engine.host_emitted, e.Engine.patches,
      e.Engine.traces_formed )
  in
  let stable = ref 0 and cycles = ref 0 in
  while !stable < 2 && !cycles < 18 do
    (match wifi with
    | Some w when !cycles mod 3 = 1 -> w.Device.glitch_next_resume <- true
    | _ -> ());
    let fp0 = fingerprint () in
    ignore (Ark_run.suspend_resume_cycle ark);
    incr cycles;
    if fingerprint () = fp0 then incr stable else stable := 0
  done;
  if dc.dc_superblock then e.Engine.sb_threshold <- max_int;
  !cycles

(* Register restore hooks for all the simulator state the World module
   doesn't own: device models, ARK contexts and scalars, counters, the
   native runner's mutables, the interpreter's register file. *)
let install_hooks w (ark : Ark_run.t) =
  let plat = Ark_run.plat ark in
  let nat = ark.Ark_run.nat in
  let interp = nat.Native_run.interp in
  let a = ark.Ark_run.ark in
  let devs = List.map snd plat.Platform.devices in
  World.add_hook w (fun () ->
      let saved = List.map Device.capture devs in
      fun () -> List.iter2 Device.restore devs saved);
  World.add_hook w (fun () ->
      let saved =
        List.map
          (fun (c : Transkernel.Context.t) ->
            ( Array.copy c.Transkernel.Context.cpu.Exec.r,
              Exec.flags_word c.Transkernel.Context.cpu,
              c.Transkernel.Context.cpu.Exec.irq_on,
              c.Transkernel.Context.state, c.Transkernel.Context.started,
              Array.copy c.Transkernel.Context.env_save,
              c.Transkernel.Context.pending, c.Transkernel.Context.slices ))
          a.Ark.contexts
      in
      fun () ->
        List.iter2
          (fun (c : Transkernel.Context.t)
               (r, fl, irq, st, sd, env, pend, sl) ->
            Array.blit r 0 c.Transkernel.Context.cpu.Exec.r 0 16;
            Exec.set_flags_word c.Transkernel.Context.cpu fl;
            c.Transkernel.Context.cpu.Exec.irq_on <- irq;
            c.Transkernel.Context.state <- st;
            c.Transkernel.Context.started <- sd;
            c.Transkernel.Context.env_save <- Array.copy env;
            c.Transkernel.Context.pending <- pend;
            c.Transkernel.Context.slices <- sl)
          a.Ark.contexts saved);
  World.add_hook w (fun () ->
      let saved =
        ( a.Ark.current, a.Ark.in_irq, a.Ark.rr, a.Ark.draining,
          a.Ark.tick_on, a.Ark.emu_cycles, a.Ark.fell_back )
      in
      fun () ->
        let cur, irq, rr, dr, tick, emu, fb = saved in
        a.Ark.current <- cur;
        a.Ark.in_irq <- irq;
        a.Ark.rr <- rr;
        a.Ark.draining <- dr;
        a.Ark.tick_on <- tick;
        a.Ark.emu_cycles <- emu;
        a.Ark.fell_back <- fb);
  World.add_hook w (fun () ->
      let saved = Counters.to_assoc a.Ark.counters in
      fun () -> Counters.load a.Ark.counters saved);
  World.add_hook w (fun () ->
      let saved =
        ( nat.Native_run.events, nat.Native_run.warns,
          nat.Native_run.console, nat.Native_run.sleep_ns_total,
          nat.Native_run.sleep_ns, nat.Native_run.last_exit_r0 )
      in
      fun () ->
        let ev, wa, co, st, sn, r0 = saved in
        nat.Native_run.events <- ev;
        nat.Native_run.warns <- wa;
        nat.Native_run.console <- co;
        nat.Native_run.sleep_ns_total <- st;
        nat.Native_run.sleep_ns <- sn;
        nat.Native_run.last_exit_r0 <- r0);
  World.add_hook w (fun () ->
      let cpu = interp.Interp.cpu in
      let saved =
        ( Array.copy cpu.Exec.r, Exec.flags_word cpu, cpu.Exec.irq_on,
          interp.Interp.irq_saved )
      in
      fun () ->
        let r, fl, irq, sv = saved in
        Array.blit r 0 cpu.Exec.r 0 16;
        Exec.set_flags_word cpu fl;
        cpu.Exec.irq_on <- irq;
        interp.Interp.irq_saved <- sv);
  World.add_hook w (fun () ->
      let saved = (ark.Ark_run.events, ark.Ark_run.fallbacks) in
      fun () ->
        let ev, fb = saved in
        ark.Ark_run.events <- ev;
        ark.Ark_run.fallbacks <- fb)

(* A restored page invalidates any host-side decode memoized over it.
   The dense interpreter decode span is cheap to clear per page. If the
   page also carries DBT-covered guest code, flush only when a covered
   {e word} actually changed value: kernel-image pages mix code and
   data, and an instance dirtying data next to translated code must not
   force a whole-cache flush (runtime self-modifying stores are already
   handled by the engine's own write barrier). A real covered-word
   change trips [pending_flush] and the canary counter — it means
   translated code differed between instances, which the warmup
   fixpoint is supposed to make impossible. *)
let page_restored interp (engine : Engine.t) cover_flushes ~ram_base page
    ~(old : Bytes.t) =
  let lo = ram_base + (page lsl Mem.page_bits) in
  let hi = lo + Mem.page_size in
  let dlo = max lo Soc.kernel_base and dhi = min hi Soc.page_pool_base in
  if dlo < dhi then begin
    let i0 = (dlo - Soc.kernel_base) asr 2 in
    let i1 = ((dhi - Soc.kernel_base) asr 2) - 1 in
    let d = interp.Interp.decode in
    for k = i0 to min i1 (Array.length d - 1) do
      Array.unsafe_set d k Exec.undecoded
    done;
    let cover = engine.Engine.guest_cover in
    let mem = interp.Interp.soc.Soc.mem in
    let changed = ref false in
    for k = i0 to min i1 (Bytes.length cover - 1) do
      if (not !changed) && Bytes.unsafe_get cover k <> '\000' then begin
        let addr = Soc.kernel_base + (k lsl 2) in
        let off = addr - lo in
        let old_w =
          Char.code (Bytes.get old off)
          lor (Char.code (Bytes.get old (off + 1)) lsl 8)
          lor (Char.code (Bytes.get old (off + 2)) lsl 16)
          lor (Char.code (Bytes.get old (off + 3)) lsl 24)
        in
        if Mem.ram_read mem addr 4 <> old_w then changed := true
      end
    done;
    if !changed then begin
      engine.Engine.pending_flush <- true;
      incr cover_flushes
    end
  end

(* --------------------------- the shard task --------------------------- *)

(* Everything a shard returns. [o_host] is the only section allowed to
   vary with execution order (snapshot traffic does); it never enters
   the digest. *)
type shard_out = {
  o_metrics : J.json;
  o_counters : (string * int) list;
  o_host : (string * int) list;
}

type instance_row = {
  i_id : int;
  i_wakeups : int;
  i_fallbacks : int;
  i_energy_nj : int;
}

let ev_time code evs =
  List.fold_left
    (fun acc (e : Ark_run.phase_event) ->
      if acc >= 0 then acc
      else if e.Ark_run.ev_code = code then e.Ark_run.ev_time_ns
      else acc)
    (-1) evs

(* run one instance's whole arrival trace over the restored snapshot;
   all figures are deltas against the post-restore state, so they are
   independent of which instance ran before. Only arrivals that land
   inside the instance's window [now, now + duration) are simulated: a
   draw past the window's end means the device sleeps the window out
   (many instances in a sparse fleet wake zero times — that is the
   population shape the snapshot machinery exists for). The slept-out
   remainder is still charged deep-sleep energy, so an idle instance
   reports its true window cost, not zero. *)
let run_instance (cfg : config) (dc : dconfig) ark ~lat ~pressure ~energy_sk
    ~id =
  let rng = instance_rng ~seed:cfg.seed id in
  let soc = (Ark_run.plat ark).Platform.soc in
  let nat = ark.Ark_run.nat in
  let wifi =
    if dc.dc_glitch_every > 0 && List.mem "wifi" dc.dc_devices then
      Some (Platform.device (Ark_run.plat ark) "wifi")
    else None
  in
  let m3_0 = Core.activity soc.Soc.m3
  and cpu_0 = Core.activity soc.Soc.cpu in
  let dma_rd0 = soc.Soc.mem.Mem.dma_read_bytes
  and dma_wr0 = soc.Soc.mem.Mem.dma_write_bytes in
  let sleep0 = nat.Native_run.sleep_ns_total in
  let t_end = soc.Soc.clock.Clock.now + (cfg.duration_ms * 1_000_000) in
  let wakeups = ref 0 and falls = ref 0 in
  let finished = ref false in
  while (not !finished) && !wakeups < cfg.max_wakeups do
    let gap =
      Arrival.gap_ns cfg.arrival rng ~mean_gap_ms:cfg.mean_gap_ms
        ~now_ns:soc.Soc.clock.Clock.now
    in
    if soc.Soc.clock.Clock.now + gap >= t_end then finished := true
    else begin
      nat.Native_run.sleep_ns <- gap;
      (match wifi with
      | Some w when Random.State.int rng dc.dc_glitch_every = 0 ->
        w.Device.glitch_next_resume <- true
      | _ -> ());
      let before = List.length ark.Ark_run.events in
      let misses0 = soc.Soc.m3.Core.cache.Cache.misses in
      (match Ark_run.suspend_resume_cycle ark with
      | `Ok -> ()
      | `Fell_back _ -> incr falls);
      let evs = Ark_run.events_of_cycle ark ~before in
      let t_wake = ev_time 901 evs
      and t_up = ev_time Hyper.ph_resume_end evs in
      if t_wake >= 0 && t_up >= t_wake then Sketch.add lat (t_up - t_wake);
      Sketch.add pressure (soc.Soc.m3.Core.cache.Cache.misses - misses0);
      incr wakeups
    end
  done;
  let m3_d = Core.activity_delta m3_0 (Core.activity soc.Soc.m3)
  and cpu_d = Core.activity_delta cpu_0 (Core.activity soc.Soc.cpu) in
  let dma =
    ( soc.Soc.mem.Mem.dma_read_bytes - dma_rd0,
      soc.Soc.mem.Mem.dma_write_bytes - dma_wr0 )
  in
  (* sleep actually simulated, plus the slept-out window remainder *)
  let residual_ns = max 0 (t_end - soc.Soc.clock.Clock.now) in
  let slept_ms =
    float_of_int (nat.Native_run.sleep_ns_total - sleep0 + residual_ns)
    /. 1e6
  in
  let uj =
    Power.total (Power.of_activity ~params:Soc.m3_params ~act:m3_d
                   ~dma_bytes:dma ())
    +. Power.total (Power.of_activity ~params:Soc.a9_params ~act:cpu_d ())
    +. Power.deep_sleep_uj slept_ms
  in
  let nj = int_of_float (uj *. 1000.0) in
  Sketch.add energy_sk nj;
  { i_id = id; i_wakeups = !wakeups; i_fallbacks = !falls; i_energy_nj = nj }

let sketch_rows_json sk =
  J.Arr
    (List.map
       (fun (lo, hi, c) -> J.Arr [ J.Int lo; J.Int hi; J.Int c ])
       (Sketch.rows sk))

(* Per-span-kind duration telemetry: the causal tracer runs in every
   shard world and each closed span's duration feeds one of these
   sketches. The field list is fixed (not everything the tracer knows)
   so the fleet schema stays stable. Span durations are pure simulated
   time, so the digest stays jobs- and order-invariant. *)
let span_fields =
  [ ("span_irq_deliver_ns", Tk_stats.Span.sk_irq_deliver);
    ("span_resume_ns", Tk_stats.Span.sk_resume);
    ("span_dbt_translate_ns", Tk_stats.Span.sk_dbt_translate);
    ("span_run_ns", Tk_stats.Span.sk_run);
    ("span_suspend_ns", Tk_stats.Span.sk_suspend) ]

(* harvest one instance's closed spans into the per-kind sketches *)
let harvest_spans sp sks =
  Tk_stats.Span.iter sp
    (fun ~id:_ ~parent:_ ~kind ~core:_ ~t0 ~t1 ~arg:_ ->
      match List.assoc_opt kind sks with
      | Some sk -> Sketch.add sk (t1 - t0)
      | None -> ())

(** [shard_task ~built cfg shard] — boot one world for the shard's
    configuration, warm it, snapshot it, and interleave the member
    instances over the snapshot. *)
let shard_task ~built (cfg : config) (sh : shard) =
  let dc = dconfigs.(sh.sh_config) in
  let ark =
    Ark_run.create ~built ~devices:dc.dc_devices
      ~superblock:dc.dc_superblock ~quantum:cfg.quantum ()
  in
  let warm_cycles = warmup ark ~dc in
  let soc = (Ark_run.plat ark).Platform.soc in
  let w =
    World.create
      ~shared_ranges:
        [ (Soc.code_cache_base, Soc.code_cache_base + Soc.code_cache_size) ]
      soc
  in
  install_hooks w ark;
  let snap0 = World.fork w in
  let interp = ark.Ark_run.nat.Native_run.interp in
  let engine = ark.Ark_run.ark.Ark.engine in
  let cover_flushes = ref 0 in
  let on_page =
    page_restored interp engine cover_flushes ~ram_base:soc.Soc.mem.Mem.ram_base
  in
  let lat = Sketch.create ()
  and pressure = Sketch.create ()
  and energy_sk = Sketch.create () in
  (* per-kind span-duration sketches; the tracer goes live only after
     warmup + snapshot so causal trees cover fleet cycles alone *)
  let span_sks = List.map (fun (f, k) -> (k, (f, Sketch.create ()))) span_fields in
  Tk_stats.Span.enable soc.Soc.spans;
  let order =
    match cfg.schedule with
    | Chrono -> sh.sh_ids
    | Reversed -> List.rev sh.sh_ids
  in
  let rows =
    List.map
      (fun id ->
        World.restore w ~on_page snap0;
        (* instance isolation: every instance starts span-clean, like
           everything else behind the snapshot *)
        Tk_stats.Span.reset soc.Soc.spans;
        let r = run_instance cfg dc ark ~lat ~pressure ~energy_sk ~id in
        harvest_spans soc.Soc.spans
          (List.map (fun (k, (_, sk)) -> (k, sk)) span_sks);
        r)
      order
    |> List.sort (fun a b -> compare a.i_id b.i_id)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let wakeups = sum (fun r -> r.i_wakeups)
  and falls = sum (fun r -> r.i_fallbacks)
  and energy_nj = sum (fun r -> r.i_energy_nj) in
  let st = World.stats w in
  { o_metrics =
      J.Obj
        ([ ("config", J.Str dc.dc_name);
           ("superblock", J.Int (if dc.dc_superblock then 1 else 0));
           ("glitch_every", J.Int dc.dc_glitch_every);
           ("instances", J.Int (List.length rows));
           ("wakeups", J.Int wakeups); ("fallbacks", J.Int falls);
           ("energy_nj", J.Int energy_nj);
           ("warmup_cycles", J.Int warm_cycles);
           ("wakeup_ns", sketch_rows_json lat);
           ("pressure_misses", sketch_rows_json pressure);
           ("energy_nj_dist", sketch_rows_json energy_sk) ]
         @ List.map
             (fun (_, (f, sk)) -> (f, sketch_rows_json sk))
             span_sks
         @ [ ( "per_instance",
               J.Arr
                 (List.map
                    (fun r ->
                      J.Obj
                        [ ("id", J.Int r.i_id);
                          ("wakeups", J.Int r.i_wakeups);
                          ("fallbacks", J.Int r.i_fallbacks);
                          ("energy_nj", J.Int r.i_energy_nj) ])
                    rows) ) ]);
    o_counters =
      [ ("fleet.instances", List.length rows); ("fleet.wakeups", wakeups);
        ("fleet.fallbacks", falls); ("fleet.energy_nj", energy_nj);
        ("fleet.cover_flush", !cover_flushes) ];
    o_host =
      [ ("world.forks", st.World.forks);
        ("world.restores", st.World.restores);
        ("world.pages_loaded", st.World.pages_loaded);
        ("world.warmup_cycles", warm_cycles) ] }

(* ----------------------------- the fleet ------------------------------ *)

type t = {
  config : config;
  doc : J.json;
  digest : string;
  wall_s : float;
  errors : (int * string) list;  (** (shard index, message) *)
}

let failed t = t.errors <> []

(** [first_error t] — the lowest-shard-index worker error, if any
    (mirrors {!Tk_campaign.Campaign.first_error}). *)
let first_error t = match t.errors with [] -> None | e :: _ -> Some e

(* rebuild a sketch from the serialized rows of every shard (bucket
   rows reload bucket-stably, and bucket adds commute, so this equals
   the union whatever order shards merged in) *)
let merged_sketch field shard_metrics =
  let sk = Sketch.create () in
  List.iter
    (fun m ->
      match m with
      | J.Obj kvs -> (
        match List.assoc_opt field kvs with
        | Some (J.Arr rows) ->
          Sketch.load sk
            (List.filter_map
               (function
                 | J.Arr [ J.Int lo; J.Int hi; J.Int c ] -> Some (lo, hi, c)
                 | _ -> None)
               rows)
        | _ -> ())
      | _ -> ())
    shard_metrics;
  sk

let quantiles_json sk =
  J.Obj
    [ ("count", J.Int (Sketch.count sk));
      ("p50", J.Int (Sketch.quantile sk 0.50));
      ("p99", J.Int (Sketch.quantile sk 0.99));
      ("p999", J.Int (Sketch.quantile sk 0.999));
      ("max", J.Int (Sketch.max_value sk)) ]

(** [run config] — plan the shards, execute them on [config.jobs]
    domains, and assemble the fleet document. The kernel image is
    compiled once and shared (immutably) by every shard world. *)
let run (cfg : config) =
  let shards = plan cfg in
  let built = Platform.build_image () in
  let shard_arr = Array.of_list shards in
  let task i =
    (match cfg.chaos_fail with
    | Some j when j = i ->
      failwith (Printf.sprintf "chaos injection (shard %d)" i)
    | _ -> ());
    shard_task ~built cfg shard_arr.(i)
  in
  let wall0 = Unix.gettimeofday () in
  let outcomes = Pool.run ~jobs:cfg.jobs ~tasks:(Array.length shard_arr) task in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let errors = ref [] in
  let shard_docs =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Ok out ->
             J.Obj
               [ ("shard", J.Int i); ("metrics", out.o_metrics);
                 ("counters", J.counters_obj out.o_counters) ]
           | Error msg ->
             errors := (i, msg) :: !errors;
             J.Obj [ ("shard", J.Int i); ("error", J.Str msg) ])
         outcomes)
  in
  let errors = List.rev !errors in
  let ok_outs =
    Array.to_list outcomes
    |> List.filter_map (function Ok o -> Some o | Error _ -> None)
  in
  let merged = Counters.merge (List.map (fun o -> o.o_counters) ok_outs) in
  let counter k = Option.value ~default:0 (List.assoc_opt k merged) in
  let metrics_list =
    List.map
      (fun o -> o.o_metrics)
      ok_outs
  in
  let lat = merged_sketch "wakeup_ns" metrics_list
  and pressure = merged_sketch "pressure_misses" metrics_list
  and energy_sk = merged_sketch "energy_nj_dist" metrics_list in
  let span_agg =
    List.map (fun (f, _) -> (f, merged_sketch f metrics_list)) span_fields
  in
  let meta =
    J.Obj
      [ ("devices", J.Int cfg.devices);
        ("arrival", J.Str (Arrival.kind_name cfg.arrival));
        ("seed", J.Int cfg.seed); ("duration_ms", J.Int cfg.duration_ms);
        ("mean_gap_ms", J.Int cfg.mean_gap_ms);
        ("shard_cap", J.Int cfg.shard_cap);
        ("shards", J.Int (Array.length shard_arr));
        ( "configs",
          J.Arr
            (Array.to_list
               (Array.map (fun d -> J.Str d.dc_name) dconfigs)) ) ]
  in
  let shards_json = J.Arr shard_docs in
  let aggregate =
    J.Obj
      ([ ("instances", J.Int (counter "fleet.instances"));
        ("wakeups", J.Int (counter "fleet.wakeups"));
        ("fallbacks", J.Int (counter "fleet.fallbacks"));
        ("energy_uj", J.Num (float_of_int (counter "fleet.energy_nj") /. 1e3));
        ("wakeup_ns", quantiles_json lat);
        ("pressure_misses", quantiles_json pressure);
        ("energy_nj_dist", quantiles_json energy_sk) ]
       @ List.map (fun (f, sk) -> (f, quantiles_json sk)) span_agg
       @ [ ("shard_errors", J.Int (List.length errors));
           ("counters", J.counters_obj merged) ])
  in
  let digest =
    Run_manifest.digest_string
      (J.to_string
         (J.Obj
            [ ("meta", meta); ("shards", shards_json);
              ("aggregate", aggregate) ]))
  in
  let host_world = Counters.merge (List.map (fun o -> o.o_host) ok_outs) in
  let host =
    J.Obj
      [ ("jobs", J.Int cfg.jobs);
        ("schedule", J.Str (schedule_name cfg.schedule));
        ("quantum", J.Int cfg.quantum);
        ("wall_s", J.Num wall_s);
        ("host_cores", J.Int (Domain.recommended_domain_count ()));
        ("git_rev", J.Str (Run_manifest.git_rev ()));
        ("world", J.counters_obj host_world) ]
  in
  let doc =
    J.Obj
      [ ("schema", J.Str "arksim-fleet-v1"); ("meta", meta);
        ("shards", shards_json); ("aggregate", aggregate);
        ("digest", J.Str digest); ("host", host) ]
  in
  { config = cfg; doc; digest; wall_s; errors }

let write_file path t = J.write_file path t.doc

(** [counter t k] — an aggregate counter out of the fleet document
    (e.g. ["fleet.wakeups"]); 0 when absent. *)
let counter t k =
  match t.doc with
  | J.Obj kvs -> (
    match List.assoc_opt "aggregate" kvs with
    | Some (J.Obj agg) -> (
      match List.assoc_opt "counters" agg with
      | Some (J.Obj cs) -> (
        match List.assoc_opt k cs with Some (J.Int v) -> v | _ -> 0)
      | _ -> 0)
    | _ -> 0)
  | _ -> 0

(** [quantile_row ~count ~p50 ~p99 ~p999] — one summary row's quantile
    cells. A quantile needs samples behind it: p50 prints ["-"] with
    none, p99 below 100 and p999 below 1000. *)
let quantile_row ~count ~p50 ~p99 ~p999 =
  let cell min_n v = if count < min_n then "-" else string_of_int v in
  Printf.sprintf "%s/%s/%s ns (n=%d)" (cell 1 p50) (cell 100 p99)
    (cell 1000 p999) count

(** Collector-side human rendering (shard workers never print). *)
let print_summary t =
  let cfg = t.config in
  Printf.printf
    "fleet %s: %d instance(s) on %d job(s) in %.2f s — digest %s\n"
    (Arrival.kind_name cfg.arrival) cfg.devices cfg.jobs t.wall_s t.digest;
  (match t.doc with
  | J.Obj kvs -> (
    match List.assoc_opt "aggregate" kvs with
    | Some (J.Obj agg) ->
      let geti k =
        match List.assoc_opt k agg with Some (J.Int v) -> v | _ -> 0
      in
      let q k f =
        match List.assoc_opt k agg with
        | Some (J.Obj o) -> (
          match List.assoc_opt f o with Some (J.Int v) -> v | _ -> 0)
        | _ -> 0
      in
      Printf.printf "  wakeups %d  fallbacks %d\n" (geti "wakeups")
        (geti "fallbacks");
      List.iter
        (fun f ->
          Printf.printf "  %-21s p50/p99/p999 %s\n" f
            (quantile_row ~count:(q f "count") ~p50:(q f "p50")
               ~p99:(q f "p99") ~p999:(q f "p999")))
        ("wakeup_ns" :: List.map fst span_fields)
    | _ -> ())
  | _ -> ());
  List.iter
    (fun (i, msg) -> Printf.printf "  shard %d FAILED: %s\n" i msg)
    t.errors;
  if t.errors = [] then Printf.printf "  all shards completed\n"
