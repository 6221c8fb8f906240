(* Platform simulator: clock, caches, interrupt fabric, memory, timers. *)

open Tk_machine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_clock_ordering () =
  let c = Clock.create () in
  let log = ref [] in
  let _c1 : unit -> unit = Clock.at c 100 (fun () -> log := 1 :: !log) in
  let _c2 : unit -> unit = Clock.at c 50 (fun () -> log := 2 :: !log) in
  let _c3 : unit -> unit = Clock.at c 100 (fun () -> log := 3 :: !log) in
  Clock.advance c 100;
  Alcotest.(check (list int)) "fires in time order, FIFO on ties" [ 2; 1; 3 ]
    (List.rev !log)

let test_clock_cancel () =
  let c = Clock.create () in
  let fired = ref false in
  let cancel = Clock.at c 10 (fun () -> fired := true) in
  cancel ();
  Clock.advance c 100;
  checkb "cancelled event does not fire" false !fired

let test_clock_skip () =
  let c = Clock.create () in
  let fired = ref false in
  let _c : unit -> unit = Clock.at c 500 (fun () -> fired := true) in
  (match Clock.skip_to_next_event c with
  | Some skipped -> checki "skips 500ns" 500 skipped
  | None -> Alcotest.fail "expected an event");
  checkb "event fired" true !fired;
  checkb "no more events" true (Clock.skip_to_next_event c = None)

let test_cache_basic () =
  let cache = Cache.create ~name:"t" ~size_kb:1 ~miss_penalty:10 in
  checki "first access misses" 10 (Cache.access cache ~write:false 0x1000);
  checki "second access hits" 0 (Cache.access cache ~write:false 0x1000);
  checki "same line hits" 0 (Cache.access cache ~write:false 0x101C);
  (* 1 KB direct-mapped = 32 sets; +32*32 bytes conflicts *)
  checki "conflicting line misses" 10 (Cache.access cache ~write:false 0x1400);
  checki "original evicted" 10 (Cache.access cache ~write:false 0x1000)

let test_cache_writeback () =
  let cache = Cache.create ~name:"t" ~size_kb:1 ~miss_penalty:10 in
  ignore (Cache.access cache ~write:true 0x1000);
  let wr0 = cache.Cache.wr_bytes in
  ignore (Cache.access cache ~write:false 0x1400);
  checki "dirty eviction writes back a line" 32 (cache.Cache.wr_bytes - wr0);
  let flushed = Cache.flush cache in
  checkb "flush reports dirty lines" true (flushed >= 0);
  checki "flush invalidates" 10 (Cache.access cache ~write:false 0x1400)

let test_fabric_routing () =
  let soc = Soc.create () in
  let fab = soc.Soc.fabric in
  (* a device line routes to both controllers with different numbers *)
  let line = Soc.dev_irq 0 in
  Intc.enable fab.Intc.gic line true;
  Intc.raise_line fab line;
  checkb "gic sees it" true (Intc.highest fab.Intc.gic = Some line);
  let nline = match fab.Intc.route line with Some n -> n | None -> -1 in
  checkb "routed to nvic" true (nline >= 0);
  checkb "different line number" true (nline <> line);
  checki "reverse route" line (fab.Intc.reverse_route nline);
  (* a CPU-only line does not reach the NVIC *)
  checkb "timer line unrouted" true (fab.Intc.route Soc.irq_cpu_timer = None)

let test_intc_ack_eoi () =
  let ic = Intc.create ~name:"t" ~nlines:8 in
  Intc.enable ic 3 true;
  Intc.enable ic 5 true;
  Intc.set_pending ic 5;
  Intc.set_pending ic 3;
  checki "lowest line first" 3 (Intc.ack ic);
  checkb "in service masks others" true (Intc.highest ic = None);
  Intc.eoi ic 3;
  checki "next pending" 5 (Intc.ack ic);
  Intc.eoi ic 5;
  checki "spurious" 1023 (Intc.ack ic)

let test_gic_mmio () =
  let soc = Soc.create () in
  let base = Soc.gic_base in
  Mem.write soc.Soc.mem (base + Intc.enable_set_off) 4 7;
  checkb "enabled via mmio" true soc.Soc.fabric.Intc.gic.Intc.enabled.(7);
  Intc.set_pending soc.Soc.fabric.Intc.gic 7;
  checki "IAR acks" 7 (Mem.read soc.Soc.mem (base + Intc.iar_off) 4);
  Mem.write soc.Soc.mem (base + Intc.eoi_off) 4 7;
  checkb "after eoi nothing in service" true
    (soc.Soc.fabric.Intc.gic.Intc.in_service = None)

let test_mem_bounds () =
  let soc = Soc.create () in
  Mem.write soc.Soc.mem Soc.ram_base 4 0xDEADBEEF;
  checki "ram roundtrip" 0xDEADBEEF (Mem.read soc.Soc.mem Soc.ram_base 4);
  Mem.write soc.Soc.mem (Soc.ram_base + 5) 1 0xFF;
  checki "byte write" 0xFF (Mem.read soc.Soc.mem (Soc.ram_base + 5) 1);
  (match Mem.read soc.Soc.mem 0x60000000 4 with
  | _ -> Alcotest.fail "expected bus fault"
  | exception Mem.Bus_fault _ -> ())

let test_dma_counters () =
  let soc = Soc.create () in
  let before = soc.Soc.mem.Mem.dma_read_bytes in
  ignore (Mem.dma_read soc.Soc.mem Soc.ram_base 128);
  checki "dma read counted" 128 (soc.Soc.mem.Mem.dma_read_bytes - before);
  Mem.dma_write soc.Soc.mem Soc.ram_base [ 1; 2; 3 ];
  checki "dma write landed" 1 (Mem.read soc.Soc.mem Soc.ram_base 1)

let test_timer_tick () =
  let soc = Soc.create () in
  Timer.start_tick soc.Soc.cpu_timer 1000;
  Clock.advance soc.Soc.clock 3500;
  checkb "tick raised the line" true
    soc.Soc.fabric.Intc.gic.Intc.pending.(Soc.irq_cpu_timer);
  Timer.stop_tick soc.Soc.cpu_timer;
  Intc.clear_pending soc.Soc.fabric.Intc.gic Soc.irq_cpu_timer;
  Clock.advance soc.Soc.clock 5000;
  checkb "stopped tick stays quiet" false
    soc.Soc.fabric.Intc.gic.Intc.pending.(Soc.irq_cpu_timer)

let test_core_accounting () =
  let soc = Soc.create () in
  let cpu = soc.Soc.cpu in
  Core.charge cpu 1200;  (* 1200 cycles at 1.2 GHz = 1 us *)
  checkb "busy ~1us" true
    (let ns = Core.busy_ns cpu in ns >= 995 && ns <= 1000);
  let _c : unit -> unit =
    Clock.at soc.Soc.clock (soc.Soc.clock.Clock.now + 5000) (fun () -> ())
  in
  checkb "idles to event" true (Core.idle_until_event cpu);
  checki "idle ns" 5000 (Core.idle_ns cpu)

let test_cpi_model () =
  let soc = Soc.create () in
  let m3 = soc.Soc.m3 in
  let total = ref 0 in
  for _ = 1 to 3000 do
    total := !total + Core.instr_cycles m3
  done;
  (* m3 CPI = 1 + 4/3 = 2.33 *)
  let cpi = float_of_int !total /. 3000.0 in
  checkb "m3 CPI ~2.33" true (cpi > 2.3 && cpi < 2.4);
  checki "a9 CPI exactly 1" 1 (Core.instr_cycles soc.Soc.cpu)

let test_device_model () =
  let soc = Soc.create () in
  let d =
    Tk_drivers.Device.create soc ~name:"t" ~index:0 ~suspend_us:10
      ~resume_us:20 ()
  in
  let base = Soc.dev_base 0 in
  Mem.write soc.Soc.mem (base + Tk_drivers.Device.r_cmd) 4 1;
  checki "busy during transition" 3 (Mem.read soc.Soc.mem base 4);
  Clock.advance soc.Soc.clock 11_000;
  (* power_on cleared, cmd_done set *)
  checki "suspended" 4 (Mem.read soc.Soc.mem base 4);
  ignore d

let test_device_glitch () =
  let soc = Soc.create () in
  let d =
    Tk_drivers.Device.create soc ~name:"t" ~index:0 ~suspend_us:10
      ~resume_us:20 ()
  in
  d.Tk_drivers.Device.power_on <- false;
  d.Tk_drivers.Device.glitch_next_resume <- true;
  let base = Soc.dev_base 0 in
  Mem.write soc.Soc.mem (base + Tk_drivers.Device.r_cmd) 4 2;
  Clock.advance soc.Soc.clock 100_000;
  checki "wedged: busy forever, no done" 2 (Mem.read soc.Soc.mem base 4);
  checki "glitch consumed" 1 d.Tk_drivers.Device.glitches_hit

(* ------------------ interpreter self-modifying code ------------------ *)

(* A loop whose first pass stores new encodings over two words it has
   already executed, [.p0] and [.p1]; the second pass must run the new
   words. The aligned case rewrites [.p0] whole. The straddling case is
   one 4-byte store at [.p0 + 2]: its low half lands in the upper half
   of [.p0] and its high half in the lower half of [.p1], so both
   pre-decoded slots must be dropped. Old and new words are picked to
   share the untouched halves. *)
let smc_image ~straddle =
  let open Tk_isa in
  let open Tk_isa.Types in
  let enc i = V7a.encode_exn (at i) in
  let p0 = Dp (ADD, false, 0, 0, Imm 1) and n0 = Dp (ADD, false, 4, 0, Imm 1) in
  let p1 = Dp (ADD, false, 5, 5, Imm 1) and n1 = Dp (ADD, false, 5, 5, Imm 7) in
  checki "new .p0 keeps the old low half" (enc p0 land 0xFFFF)
    (enc n0 land 0xFFFF);
  checki "new .p1 keeps the old high half" (enc p1 lsr 16) (enc n1 lsr 16);
  let value, off =
    if straddle then ((enc n0 lsr 16) lor ((enc n1 land 0xFFFF) lsl 16), 2)
    else (enc n0, 0)
  in
  let items =
    [ Asm.Ins (at (Movw (1, 2))); Asm.Label ".top"; Asm.Ins (at p0);
      Asm.Ins (at p1); Asm.Ins (at (Movw (2, value land 0xFFFF)));
      Asm.Ins (at (Movt (2, value lsr 16))); Asm.Adr (3, ".top");
      Asm.Ins
        (at (Mem { ld = false; size = Word; rt = 2; rn = 3; off = Oimm off;
                   idx = Offset }));
      Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
      Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
      Asm.Bcc (NE, ".top");
      Asm.Ins (at (Bx lr)) ]
  in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "smcfn"; items } ] []

let test_interp_smc ~straddle ~traced () =
  let open Tk_isa in
  let image = smc_image ~straddle in
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let interp = Interp.create ~soc () in
  if traced then Tk_stats.Trace.enable soc.Soc.trace;
  let stop = ref false in
  interp.Interp.on_svc <- (fun _ _ _ -> stop := true);
  let stub = Soc.kernel_base + (4 * Array.length image.Asm.words) + 64 in
  Mem.ram_write soc.Soc.mem stub 4 (V7a.encode_exn (Types.at (Types.Svc 0)));
  let r = interp.Interp.cpu.Exec.r in
  r.(Types.lr) <- stub;
  Interp.set_pc interp (Asm.symbol image "smcfn");
  let steps = ref 0 in
  while not !stop do
    incr steps;
    if !steps > 100 then Alcotest.fail "runaway";
    Interp.step interp
  done;
  checki "second pass ran the new .p0 (r4 = r0 + 1)" 2 r.(4);
  checki "stale .p0 did not run again" 1 r.(0);
  checki "r5: new .p1 only when the store straddled" (if straddle then 8 else 2)
    r.(5);
  if traced then begin
    (* each pass drops every rewritten word while it holds a decode *)
    let dropped = ref 0 in
    Tk_stats.Trace.iter soc.Soc.trace (fun ~time:_ ~core:_ ~kind ~a:_ ~b:_ ->
        if kind = Tk_stats.Trace.ev_invalidate then incr dropped);
    checki "traced invalidations" (if straddle then 4 else 2) !dropped
  end

(* property: events always fire in nondecreasing time order *)
let prop_clock_order =
  QCheck.Test.make ~count:200 ~name:"clock fires in time order"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_bound 10_000))
    (fun times ->
      let c = Clock.create () in
      let fired = ref [] in
      List.iter
        (fun at ->
          let _cancel : unit -> unit =
            Clock.at c at (fun () -> fired := at :: !fired)
          in
          ())
        times;
      Clock.advance c 20_000;
      let got = List.rev !fired in
      got = List.sort compare times && List.length got = List.length times)

(* property: a second access to the same line always hits if nothing
   conflicting intervened *)
let prop_cache_rehit =
  QCheck.Test.make ~count:200 ~name:"cache re-hit"
    QCheck.(int_bound 0xFFFFF)
    (fun addr ->
      let cache = Cache.create ~name:"p" ~size_kb:4 ~miss_penalty:7 in
      ignore (Cache.access cache ~write:false addr);
      Cache.access cache ~write:false (addr lxor 3) = 0)

let () =
  Alcotest.run "machine"
    [ ( "clock",
        [ Alcotest.test_case "event ordering" `Quick test_clock_ordering;
          Alcotest.test_case "cancellation" `Quick test_clock_cancel;
          Alcotest.test_case "skip to next event" `Quick test_clock_skip ] );
      ( "cache",
        [ Alcotest.test_case "hits and conflicts" `Quick test_cache_basic;
          Alcotest.test_case "writeback traffic" `Quick test_cache_writeback ] );
      ( "interrupts",
        [ Alcotest.test_case "fabric routing" `Quick test_fabric_routing;
          Alcotest.test_case "ack/eoi protocol" `Quick test_intc_ack_eoi;
          Alcotest.test_case "gic mmio interface" `Quick test_gic_mmio ] );
      ( "memory",
        [ Alcotest.test_case "ram and faults" `Quick test_mem_bounds;
          Alcotest.test_case "dma traffic" `Quick test_dma_counters ] );
      ( "timers", [ Alcotest.test_case "periodic tick" `Quick test_timer_tick ] );
      ( "interp smc",
        [ Alcotest.test_case "aligned store" `Quick
            (test_interp_smc ~straddle:false ~traced:false);
          Alcotest.test_case "straddling store" `Quick
            (test_interp_smc ~straddle:true ~traced:false);
          Alcotest.test_case "aligned store, traced" `Quick
            (test_interp_smc ~straddle:false ~traced:true);
          Alcotest.test_case "straddling store, traced" `Quick
            (test_interp_smc ~straddle:true ~traced:true) ] );
      ( "cores",
        [ Alcotest.test_case "busy/idle accounting" `Quick
            test_core_accounting;
          Alcotest.test_case "fractional CPI" `Quick test_cpi_model ] );
      ( "devices",
        [ Alcotest.test_case "power transitions" `Quick test_device_model;
          Alcotest.test_case "glitch injection" `Quick test_device_glitch ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_clock_order;
          QCheck_alcotest.to_alcotest prop_cache_rehit ] ) ]
