(** Measured experiment drivers shared by the benchmark harness and the
    integration tests.

    Each run executes one cold suspend/resume cycle (populating the DBT
    code cache) and measures a second, warm cycle — the paper reports
    warm-cache numbers (§7.1). Phase and per-device figures come from
    the guest's phase-marker hypercalls; whole-cycle energy from the
    activity deltas and the §7.4 power model. *)

open Tk_machine
open Tk_drivers
module Translator = Tk_dbt.Translator
module Power = Tk_energy.Power_model

type phase = {
  p_busy_ms : float;
  p_idle_ms : float;
  p_busy_cycles : int;
  p_instrs : int;
}

let phase_of_delta (d : Core.activity) =
  { p_busy_ms = float_of_int d.Core.a_busy_ps /. 1e9;
    p_idle_ms = float_of_int d.Core.a_idle_ps /. 1e9;
    p_busy_cycles = d.Core.a_busy_cycles;
    p_instrs = d.Core.a_instructions }

type run = {
  r_label : string;
  r_whole : phase;  (** suspend + resume, excluding deep sleep *)
  r_suspend : phase;
  r_resume : phase;
  r_devices : (string * phase * phase) list;  (** name, suspend, resume *)
  r_energy : Power.breakdown;
  r_fell_back : bool;
  (* engine statistics (zero for native) *)
  r_host_emitted : int;
  r_guest_translated : int;
  r_emu_cycles : int;
  r_engine_exits : int;
  r_rd_bytes : int;
  r_wr_bytes : int;
}

(* extract phase deltas from a (code, activity) event list, oldest
   first *)
let extract_phases events =
  let find code =
    List.find_opt (fun (c, _) -> c = code) events |> Option.map snd
  in
  let delta a b =
    match (find a, find b) with
    | Some x, Some y -> phase_of_delta (Core.activity_delta x y)
    | _ -> phase_of_delta (Core.activity_delta
                             { Core.a_busy_cycles = 0; a_busy_ps = 0;
                               a_idle_ps = 0; a_instructions = 0;
                               a_cache_misses = 0; a_rd_bytes = 0;
                               a_wr_bytes = 0 }
                             { Core.a_busy_cycles = 0; a_busy_ps = 0;
                               a_idle_ps = 0; a_instructions = 0;
                               a_cache_misses = 0; a_rd_bytes = 0;
                               a_wr_bytes = 0 })
  in
  let dev i =
    let base = Tk_kernel.Hyper.ph_dev_mark + (i * 10) in
    (Platform.dpm_label i, delta base (base + 1), delta (base + 2) (base + 3))
  in
  let ndev = List.length Platform.registration_order in
  ( delta Tk_kernel.Hyper.ph_suspend_begin Tk_kernel.Hyper.ph_suspend_end,
    delta Tk_kernel.Hyper.ph_resume_begin Tk_kernel.Hyper.ph_resume_end,
    List.init ndev dev )

let sum_phase a b =
  { p_busy_ms = a.p_busy_ms +. b.p_busy_ms;
    p_idle_ms = a.p_idle_ms +. b.p_idle_ms;
    p_busy_cycles = a.p_busy_cycles + b.p_busy_cycles;
    p_instrs = a.p_instrs + b.p_instrs }

(** [measure_native ()] — the native-execution arm. *)
let measure_native ?layout () =
  let nat = Native_run.create ?layout () in
  ignore (Native_run.suspend_resume_cycle nat);
  let soc = nat.Native_run.plat.Platform.soc in
  let before = Core.activity soc.Soc.cpu in
  let dma_rd0 = soc.Soc.mem.Mem.dma_read_bytes
  and dma_wr0 = soc.Soc.mem.Mem.dma_write_bytes in
  let cycle_events = Native_run.suspend_resume_cycle nat in
  let after = Core.activity soc.Soc.cpu in
  let whole_delta = Core.activity_delta before after in
  let events =
    List.map
      (fun (e : Native_run.phase_event) ->
        (e.Native_run.ev_code, e.Native_run.ev_cpu))
      cycle_events
  in
  let suspend, resume, devices = extract_phases events in
  let dma =
    ( soc.Soc.mem.Mem.dma_read_bytes - dma_rd0,
      soc.Soc.mem.Mem.dma_write_bytes - dma_wr0 )
  in
  { r_label = "native";
    r_whole = phase_of_delta whole_delta;
    r_suspend = suspend; r_resume = resume; r_devices = devices;
    r_energy =
      Power.of_activity ~params:Soc.a9_params ~act:whole_delta ~dma_bytes:dma
        ();
    r_fell_back = false; r_host_emitted = 0; r_guest_translated = 0;
    r_emu_cycles = 0; r_engine_exits = 0;
    r_rd_bytes = whole_delta.Core.a_rd_bytes + fst dma;
    r_wr_bytes = whole_delta.Core.a_wr_bytes + snd dma }

(** [measure_mode mode] — one offloaded arm (Ark / Mid / Baseline). *)
let measure_mode ?layout ?m3_cache_kb ?(label = "") mode =
  let ark = Ark_run.create ?layout ?m3_cache_kb ~mode () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let soc = (Ark_run.plat ark).Platform.soc in
  let before = Core.activity soc.Soc.m3 in
  let dma_rd0 = soc.Soc.mem.Mem.dma_read_bytes
  and dma_wr0 = soc.Soc.mem.Mem.dma_write_bytes in
  let emu0 = ark.Ark_run.ark.Transkernel.Ark.emu_cycles in
  let ev_before = List.length ark.Ark_run.events in
  let res = Ark_run.suspend_resume_cycle ark in
  let after = Core.activity soc.Soc.m3 in
  let whole_delta = Core.activity_delta before after in
  let events =
    List.map
      (fun (e : Ark_run.phase_event) -> (e.Ark_run.ev_code, e.Ark_run.ev_m3))
      (Ark_run.events_of_cycle ark ~before:ev_before)
  in
  let suspend, resume, devices = extract_phases events in
  let dma =
    ( soc.Soc.mem.Mem.dma_read_bytes - dma_rd0,
      soc.Soc.mem.Mem.dma_write_bytes - dma_wr0 )
  in
  let e = ark.Ark_run.ark.Transkernel.Ark.engine in
  { r_label =
      (if label <> "" then label
       else
         match mode with
         | Translator.Ark -> "ARK"
         | Translator.Mid -> "baseline+reg-passthrough"
         | Translator.Baseline -> "baseline");
    r_whole = phase_of_delta whole_delta;
    r_suspend = suspend; r_resume = resume; r_devices = devices;
    r_energy =
      Power.of_activity ~params:Soc.m3_params ~act:whole_delta ~dma_bytes:dma
        ();
    r_fell_back = (match res with `Ok -> false | `Fell_back _ -> true);
    r_host_emitted = e.Tk_dbt.Engine.host_emitted;
    r_guest_translated = e.Tk_dbt.Engine.guest_translated;
    r_emu_cycles = ark.Ark_run.ark.Transkernel.Ark.emu_cycles - emu0;
    r_engine_exits = e.Tk_dbt.Engine.engine_exits;
    r_rd_bytes = whole_delta.Core.a_rd_bytes + fst dma;
    r_wr_bytes = whole_delta.Core.a_wr_bytes + snd dma }

(** [overhead ~native ~offloaded] — busy-cycle ratio, the paper's
    overhead metric (§7.3). *)
let overhead ~(native : phase) ~(offloaded : phase) =
  if native.p_busy_cycles = 0 then 0.0
  else float_of_int offloaded.p_busy_cycles /. float_of_int native.p_busy_cycles

(** [stress_run ~runs ~glitch_every ?rng ()] — the §7.3 fallback stress
    test: many offloaded cycles with the WiFi firmware glitch injected
    in a few. Without [rng] the glitch lands on a fixed stride (every
    [glitch_every]-th cycle, the historical behaviour); with [rng] each
    cycle glitches with probability [1/glitch_every] drawn from that
    state, so a campaign task's glitch schedule is a pure function of
    its task seed. Returns (total runs, fallback count, fallback
    reasons, the run). *)
let stress_run ?(runs = 200) ?(glitch_every = 50) ?rng () =
  let ark = Ark_run.create () in
  let wifi = Platform.device (Ark_run.plat ark) "wifi" in
  let glitch_now i =
    glitch_every > 0
    &&
    match rng with
    | None -> i mod glitch_every = 0
    | Some st -> Random.State.int st glitch_every = 0
  in
  let fell = ref 0 in
  let reasons = ref [] in
  for i = 1 to runs do
    if glitch_now i then wifi.Device.glitch_next_resume <- true;
    match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r ->
      incr fell;
      reasons := r :: !reasons
  done;
  (runs, !fell, !reasons, ark)

(** [stress] — {!stress_run} with the fixed-stride glitch schedule. *)
let stress ?runs ?glitch_every () = stress_run ?runs ?glitch_every ()
