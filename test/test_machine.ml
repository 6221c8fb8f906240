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

(* WFI's fast-forward, bounded by [~limit]: an event before the limit
   fires and time lands on it; an event at the limit fires there; one
   past it stays pending with time at the limit; an empty queue answers
   [None] and time stays put *)
let test_clock_skip () =
  let skip_with ~event ~limit =
    let c = Clock.create () in
    Clock.advance c 100;
    let fired = ref false in
    let _c : unit -> unit = Clock.at c event (fun () -> fired := true) in
    let skipped = Clock.skip_to_next_event c ~limit in
    (c, skipped, !fired)
  in
  let c, skipped, fired = skip_with ~event:500 ~limit:max_int in
  checkb "no limit: skips 400ns" true (skipped = Some 400);
  checkb "no limit: event fired" true fired;
  checki "no limit: time at the event" 500 c.Clock.now;
  checkb "then no more events" true
    (Clock.skip_to_next_event c ~limit:max_int = None);
  let c, skipped, fired = skip_with ~event:500 ~limit:800 in
  checkb "before the limit: skips 400ns" true (skipped = Some 400);
  checkb "before the limit: event fired" true fired;
  checki "before the limit: time at the event" 500 c.Clock.now;
  let c, skipped, fired = skip_with ~event:500 ~limit:500 in
  checkb "at the limit: skips 400ns" true (skipped = Some 400);
  checkb "at the limit: event fired" true fired;
  checki "at the limit: time at the limit" 500 c.Clock.now;
  let c, skipped, fired = skip_with ~event:500 ~limit:300 in
  checkb "past the limit: skips 200ns" true (skipped = Some 200);
  checkb "past the limit: event unfired" false fired;
  checki "past the limit: time at the limit" 300 c.Clock.now;
  checkb "past the limit: event still pending" true
    (Clock.next_event_time c = Some 500);
  let c = Clock.create () in
  Clock.advance c 100;
  checkb "empty queue: None" true
    (Clock.skip_to_next_event c ~limit:1000 = None);
  checki "empty queue: time unmoved" 100 c.Clock.now

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

(* MMIO dispatch: a device access allocates nothing, and where two
   regions overlap, the one registered last takes the access *)
let test_mmio_dispatch () =
  let soc = Soc.create () in
  let mem = soc.Soc.mem in
  let count = Soc.cpu_timer_base and idle_reg = Soc.cpu_timer_base + 0x10 in
  ignore (Mem.read mem count 4);
  Mem.write mem idle_reg 4 0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Mem.read mem count 4))
  done;
  checki "MMIO read words" 0 (int_of_float (Gc.minor_words () -. w0));
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Mem.write mem idle_reg 4 0
  done;
  checki "no-op MMIO write words" 0 (int_of_float (Gc.minor_words () -. w0));
  let log = ref [] in
  let region name rbase rsize : Mem.region =
    { rbase; rsize; rname = name;
      rread = (fun off _ -> log := (name, off) :: !log; 0);
      rwrite = (fun off _ _ -> log := (name, off) :: !log) }
  in
  let base = 0x60000000 in
  Mem.add_region mem (region "first" base 0x100);
  Mem.add_region mem (region "later" (base + 0x80) 0x100);
  ignore (Mem.read mem (base + 0x10) 4);
  ignore (Mem.read mem (base + 0x90) 4);
  Mem.write mem (base + 0xF0) 4 1;
  Mem.write mem (base + 0x170) 4 1;
  Alcotest.(check (list (pair string int)))
    "overlap: the later region wins"
    [ ("first", 0x10); ("later", 0x10); ("later", 0x70); ("later", 0xF0) ]
    (List.rev !log)

(* Paged DRAM: a small memory of four pages, checked against a byte-wise
   reference model. *)
let small_mem () =
  Mem.create ~ram_base:Soc.ram_base ~ram_size:(4 * Mem.page_size)

let word32 rng = (Random.State.bits rng lsl 2) lxor Random.State.bits rng

(* every 2- and 4-byte access that straddles a page boundary, through
   each wide entry point, against a byte-array model of an 8-byte
   window around the boundary (so the neighbours are checked too) *)
let test_mem_straddle () =
  let mem = small_mem () in
  let rng = Random.State.make [| 16 |] in
  let writes =
    [ (2, "ram_write 2", fun a v -> Mem.ram_write mem a 2 v);
      (4, "ram_write 4", fun a v -> Mem.ram_write mem a 4 v);
      (4, "ram_write32", fun a v -> Mem.ram_write32 mem a v);
      (2, "write 2", fun a v -> Mem.write mem a 2 v);
      (4, "write 4", fun a v -> Mem.write mem a 4 v) ]
  in
  let reads =
    [ (2, "ram_read 2", fun a -> Mem.ram_read mem a 2);
      (4, "ram_read 4", fun a -> Mem.ram_read mem a 4);
      (4, "ram_read32", fun a -> Mem.ram_read32 mem a);
      (2, "read 2", fun a -> Mem.read mem a 2);
      (4, "read 4", fun a -> Mem.read mem a 4) ]
  in
  for page = 1 to 3 do
    let boundary = Soc.ram_base + (page * Mem.page_size) in
    let lo = boundary - 4 in
    let model = Bytes.create 8 in
    let refill () =
      for k = 0 to 7 do
        let b = Random.State.int rng 256 in
        Bytes.set model k (Char.chr b);
        Mem.ram_write mem (lo + k) 1 b
      done
    in
    let model_read a n =
      let v = ref 0 in
      for k = n - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get model (a - lo + k))
      done;
      !v
    in
    let check_window what =
      for k = 0 to 7 do
        checki
          (Printf.sprintf "%s: byte at boundary%+d" what (k - 4))
          (Char.code (Bytes.get model k))
          (Mem.ram_read mem (lo + k) 1)
      done
    in
    List.iter
      (fun (n, name, write) ->
        for k = 1 to n - 1 do
          let a = boundary - k in
          List.iter
            (fun v ->
              refill ();
              write a v;
              for j = 0 to n - 1 do
                Bytes.set model (a - lo + j) (Char.chr ((v lsr (8 * j)) land 0xFF))
              done;
              check_window (Printf.sprintf "%s at boundary-%d" name k))
            [ word32 rng land ((1 lsl (8 * n)) - 1); (1 lsl (8 * n)) - 1;
              1 lsl ((8 * n) - 1) ]
        done)
      writes;
    List.iter
      (fun (n, name, read) ->
        for k = 1 to n - 1 do
          refill ();
          let a = boundary - k in
          checki
            (Printf.sprintf "%s at boundary-%d" name k)
            (model_read a n) (read a)
        done)
      reads
  done

let test_mem_zero_page () =
  let mem = small_mem () in
  Mem.ram_write mem Soc.ram_base 4 0x01020304;
  let p = 2 in
  let base = Soc.ram_base + (p * Mem.page_size) in
  List.iter
    (fun off ->
      let a = base + off in
      checki "byte" 0 (Mem.ram_read mem a 1);
      if off + 2 <= Mem.page_size then checki "half" 0 (Mem.ram_read mem a 2);
      if off + 4 <= Mem.page_size then begin
        checki "word" 0 (Mem.ram_read mem a 4);
        checki "word32" 0 (Mem.ram_read32 mem a)
      end)
    [ 0; 1; 2; 3; 100; Mem.page_size - 4; Mem.page_size - 1 ];
  checkb "never-written page is the zero page" false (Mem.page_allocated mem p);
  checkb "the written page has its own" true (Mem.page_allocated mem 0)

(* after [Mem.share], every store entry point copies exactly the page or
   pages it writes, and the shared pages keep their bytes; the copy is
   then owned, so a second store writes it in place *)
let test_mem_cow_stores () =
  let page_of a = (a - Soc.ram_base) lsr Mem.page_bits in
  let a = Soc.ram_base + Mem.page_size + 0x40 (* inside page 1 *)
  and b = Soc.ram_base + (2 * Mem.page_size) (* pages 1 | 2 *) in
  let image =
    { Tk_isa.Asm.base = b - 8; code_size = 16;
      words = [| 0x11111111; 0x22222222; 0x33333333; 0x44444444 |];
      symbols = Hashtbl.create 1; sym_of_addr = Hashtbl.create 1;
      frag_sizes = [] }
  in
  List.iter
    (fun (what, lo, hi, store) ->
      let mem = small_mem () in
      for p = 0 to Mem.npages mem - 1 do
        Mem.ram_write32 mem (Soc.ram_base + (p * Mem.page_size) + 8) (p + 1)
      done;
      let shared = Mem.share mem in
      let before = Array.map Bytes.copy shared in
      store mem;
      Array.iteri
        (fun i pg ->
          let written = i >= page_of lo && i <= page_of hi in
          checkb (Printf.sprintf "%s: page %d copied" what i) written
            (mem.Mem.pages.(i) != pg);
          checkb (Printf.sprintf "%s: page %d's store landed" what i) written
            (not (Bytes.equal mem.Mem.pages.(i) before.(i)));
          checkb (Printf.sprintf "%s: shared page %d unchanged" what i) true
            (Bytes.equal pg before.(i)))
        shared;
      let owned = Array.copy mem.Mem.pages in
      store mem;
      checkb (what ^ ": second store copies nothing") true
        (Array.for_all2 ( == ) owned mem.Mem.pages))
    [ ("ram_write 1", a, a, fun m -> Mem.ram_write m a 1 0x5A);
      ("ram_write 2", a, a + 1, fun m -> Mem.ram_write m a 2 0xBEEF);
      ("ram_write 4", a, a + 3, fun m -> Mem.ram_write m a 4 0xDEADBEEF);
      ("ram_write32", a, a + 3, fun m -> Mem.ram_write32 m a 0xDEADBEEF);
      ("write 4", a, a + 3, fun m -> Mem.write m a 4 0xDEADBEEF);
      ( "ram_write 2 straddling", b - 1, b,
        fun m -> Mem.ram_write m (b - 1) 2 0xBEEF );
      ( "ram_write 4 straddling", b - 2, b + 1,
        fun m -> Mem.ram_write m (b - 2) 4 0xDEADBEEF );
      ( "ram_write32 straddling", b - 1, b + 2,
        fun m -> Mem.ram_write32 m (b - 1) 0xDEADBEEF );
      ( "dma_write", b - 2, b + 1,
        fun m -> Mem.dma_write m (b - 2) [ 1; 2; 3; 4 ] );
      ("load_image", b - 8, b + 7, fun m -> Mem.load_image m image) ]

(* a straddle off the top of RAM raises before it stores or copies any
   byte: the in-RAM part of the access keeps its old content, and the
   page stays shared *)
let test_mem_top_straddle () =
  let mem = small_mem () in
  let last = Mem.npages mem - 1 in
  let top = Soc.ram_base + (Mem.npages mem * Mem.page_size) in
  for k = 1 to 3 do
    Mem.ram_write mem (top - k) 1 (0xA0 + k)
  done;
  let shared = Mem.share mem in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (what, f) ->
      raises what f;
      for k = 1 to 3 do
        checki (Printf.sprintf "%s: byte top-%d" what k) (0xA0 + k)
          (Mem.ram_read mem (top - k) 1)
      done;
      checkb (what ^ ": page still shared") true
        (mem.Mem.pages.(last) == shared.(last)))
    [ ("ram_write 2 at top-1", fun () -> Mem.ram_write mem (top - 1) 2 0xFFFF);
      ("ram_write 4 at top-1", fun () -> Mem.ram_write mem (top - 1) 4 0);
      ("ram_write 4 at top-2", fun () -> Mem.ram_write mem (top - 2) 4 0);
      ("ram_write32 at top-3", fun () -> Mem.ram_write32 mem (top - 3) 0);
      ("write 4 at top-3", fun () -> Mem.write mem (top - 3) 4 0) ];
  raises "ram_read 2 at top-1" (fun () -> ignore (Mem.ram_read mem (top - 1) 2));
  raises "ram_read32 at top-3" (fun () -> ignore (Mem.ram_read32 mem (top - 3)))

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
  checkb "idles to event" true (Core.idle_until cpu ~limit:max_int);
  checki "idle ns" 5000 (Core.idle_ns cpu);
  checkb "no event: no idle" false (Core.idle_until cpu ~limit:max_int);
  checki "idle ns unchanged" 5000 (Core.idle_ns cpu)

(* [Core.retire]: a fused partner books its fetch stall and no base CPI,
   an ordinary instruction [instr_cycles + stall]. The M3's fractional
   CPI and a 24-byte stride, which mixes hits and misses, exercise both;
   a twin core computes each charge by hand. The retires run inside a
   deferred run, as in the execution loops, so each reading settles the
   owed cycles first. *)
let test_core_retire () =
  let soc = Soc.create () in
  let m3 = soc.Soc.m3 and twin = (Soc.create ()).Soc.m3 in
  let outer = Core.enter m3 max_int in
  let busy () =
    Core.settle m3;
    m3.Core.busy_cycles
  in
  for k = 0 to 199 do
    let addr = Soc.ram_base + (k * 24) in
    let fused = k mod 3 = 2 in
    let stall = Cache.access twin.Core.cache ~write:false addr in
    let expect = (if fused then 0 else Core.instr_cycles twin) + stall in
    let busy0 = busy () and stalls = m3.Core.stall_cycles in
    Core.retire m3 addr ~fused;
    let what =
      Printf.sprintf "%s 0x%x" (if fused then "fused" else "plain") addr
    in
    checki (what ^ ": busy cycles") expect (busy () - busy0);
    checki (what ^ ": stall cycles") stall (m3.Core.stall_cycles - stalls)
  done;
  Core.leave m3 outer;
  checki "every instruction counted" 200 m3.Core.instructions;
  checkb "both fetch outcomes seen" true
    (m3.Core.cache.Cache.hits > 0 && m3.Core.cache.Cache.misses > 0);
  checki "CPI carry in step with the twin" twin.Core.cpi_acc m3.Core.cpi_acc;
  checki "clock holds the busy time" (Core.busy_ns m3) soc.Soc.clock.Clock.now

(* [Core.load] and [Core.store]: RAM goes through the cache, its stall
   charged and traced with the access; anything else is MMIO at the
   core's penalty. [store] says whether it wrote RAM. *)
let test_core_data_path () =
  let soc = Soc.create () in
  let a9 = soc.Soc.cpu and mem = soc.Soc.mem and rc = soc.Soc.recorder in
  let tcore = Tk_stats.Trace.core_cpu in
  Tk_stats.Trace.enable soc.Soc.trace;
  let miss = a9.Core.cache.Cache.miss_penalty in
  let mmio = a9.Core.p.Core.mmio_penalty in
  let charged f =
    let busy = a9.Core.busy_cycles in
    let r = f () in
    (r, a9.Core.busy_cycles - busy)
  in
  let ram = Soc.ram_base + 0x2000 in
  let gic = Soc.gic_base in
  let wrote, c = charged (fun () -> Core.store a9 mem rc ~tcore ram 4 0x1234) in
  checkb "RAM store: wrote RAM" true wrote;
  checki "RAM store: miss stall" miss c;
  let v, c = charged (fun () -> Core.load a9 mem rc ~tcore ram 4) in
  checki "RAM load: value" 0x1234 v;
  checki "RAM load: hit" 0 c;
  let v, c = charged (fun () -> Core.load a9 mem rc ~tcore (ram + 1) 1) in
  checki "RAM byte load: value" 0x12 v;
  checki "RAM byte load: hit" 0 c;
  let wrote, c =
    charged (fun () ->
        Core.store a9 mem rc ~tcore (gic + Intc.enable_set_off) 4 7)
  in
  checkb "MMIO store: no RAM written" false wrote;
  checki "MMIO store: penalty" mmio c;
  checkb "MMIO store: reached the device" true
    soc.Soc.fabric.Intc.gic.Intc.enabled.(7);
  Intc.set_pending soc.Soc.fabric.Intc.gic 7;
  let v, c =
    charged (fun () -> Core.load a9 mem rc ~tcore (gic + Intc.iar_off) 4)
  in
  checki "MMIO load: value" 7 v;
  checki "MMIO load: penalty" mmio c;
  checki "stall cycles count only the miss" miss a9.Core.stall_cycles;
  let accesses = ref [] in
  Tk_stats.Trace.iter soc.Soc.trace (fun ~time:_ ~core ~kind ~a ~b ->
      if kind = Tk_stats.Trace.ev_read || kind = Tk_stats.Trace.ev_write then
        accesses :=
          Printf.sprintf "%s %s 0x%x %d" (Tk_stats.Trace.core_name core)
            (Tk_stats.Trace.kind_name kind) a b
          :: !accesses);
  let ev kind a b =
    Printf.sprintf "%s %s 0x%x %d" (Tk_stats.Trace.core_name tcore)
      (Tk_stats.Trace.kind_name kind) a b
  in
  Alcotest.(check (list string))
    "each access traced with its stall"
    [ ev Tk_stats.Trace.ev_write ram miss; ev Tk_stats.Trace.ev_read ram 0;
      ev Tk_stats.Trace.ev_read (ram + 1) 0;
      ev Tk_stats.Trace.ev_write (gic + Intc.enable_set_off) mmio;
      ev Tk_stats.Trace.ev_read (gic + Intc.iar_off) mmio ]
    (List.rev !accesses)

(* Deferred accounting is exact. Twin platforms run one random sequence
   of charges on one core: retires (plain and fused), RAM loads and
   stores that hit and miss, explicit and taken-branch charges, reads
   of the CPU timer's counter and of the recorder's time hook (which
   settle without firing), timer writes that arm an IRQ, and events
   armed at random times (as a callback would arm them, between
   [Core.enter c min_int] and [Core.leave]) that log the clock and the
   core's counters when they fire. One twin runs inside a deferred run
   bounded by a random deadline; the other applies every charge at
   once. After each operation both log whether the clock has reached
   the deadline, the test a run loop makes, and whether the timer IRQ
   is pending. Logs and final counters must agree exactly. *)
let fuzz_scale =
  match Sys.getenv_opt "TK_FUZZ_SCALE" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

type charge_op =
  | Retire of int * bool  (** fetch address, fused *)
  | Load of int
  | Store of int
  | Charge of int
  | Count  (** read the CPU timer's counter (MMIO) *)
  | Peek  (** read the recorder's time hook, as a sampler tick does *)
  | Oneshot of int  (** arm the CPU timer's one-shot IRQ, ns from now *)
  | Event of int  (** arm a logging event, ns from now *)

let gen_charge_ops rs n =
  let code = ref Soc.kernel_base and data = ref (Soc.ram_base + 0x40000) in
  List.init n (fun _ ->
      match Random.State.int rs 100 with
      | k when k < 50 ->
        (* straight-line fetches, with a jump now and then *)
        code :=
          if Random.State.int rs 16 = 0 then
            Soc.kernel_base + (4 * Random.State.int rs 0x40000)
          else !code + 4;
        Retire (!code, Random.State.int rs 4 = 0)
      | k when k < 75 ->
        data :=
          if Random.State.bool rs then !data + 4
          else Soc.ram_base + 0x40000 + (4 * Random.State.int rs 0x100000);
        if k < 65 then Load !data else Store !data
      | k when k < 85 ->
        (* taken branches cost 3; other charges are translation- or
           emulation-sized *)
        Charge (if Random.State.bool rs then 3 else Random.State.int rs 300)
      | k when k < 87 -> Count
      | k when k < 89 -> Peek
      | k when k < 92 -> Oneshot (Random.State.int rs 3000)
      | _ -> Event (Random.State.int rs 3000))

type charge_log =
  | Fired of int * int * int * int * int
      (** arming op, now, busy cycles, instructions, frac_ps *)
  | Counter of int * int  (** op, value read *)
  | Peeked of int * int  (** op, time read *)
  | Reached of int  (** first op after which now >= deadline *)
  | Irq of int  (** op after which the timer IRQ was pending *)

let run_charges ~deferred ~m3 ~deadline ops =
  let soc = Soc.create () in
  let c = if m3 then soc.Soc.m3 else soc.Soc.cpu in
  let clock = soc.Soc.clock and mem = soc.Soc.mem and rc = soc.Soc.recorder in
  let gic = soc.Soc.fabric.Intc.gic in
  let tcore = Tk_stats.Trace.core_cpu in
  let log = ref [] and reached = ref false and owed = ref false in
  let outer = if deferred then Core.enter c deadline else 0 in
  List.iteri
    (fun i op ->
      (match op with
      | Retire (a, fused) -> Core.retire c a ~fused
      | Load a -> ignore (Core.load c mem rc ~tcore a 4)
      | Store a -> ignore (Core.store c mem rc ~tcore a 4 i)
      | Charge n -> Core.charge c n
      | Count ->
        log := Counter (i, Core.load c mem rc ~tcore Soc.cpu_timer_base 4) :: !log
      | Peek ->
        log := Peeked (i, rc.Tk_stats.Recorder.sub.Tk_stats.Substrate.now ()) :: !log
      | Oneshot ns ->
        ignore (Core.store c mem rc ~tcore (Soc.cpu_timer_base + 0x0C) 4 ns)
      | Event ns ->
        let o = Core.enter c min_int in
        let _cancel : unit -> unit =
          Clock.after clock ns (fun () ->
              log :=
                Fired
                  (i, clock.Clock.now, c.Core.busy_cycles, c.Core.instructions,
                   c.Core.frac_ps)
                :: !log)
        in
        Core.leave c o);
      if c.Core.owed > 0 then owed := true;
      if (not !reached) && clock.Clock.now >= deadline then begin
        reached := true;
        log := Reached i :: !log
      end;
      if gic.Intc.pending.(Soc.irq_cpu_timer) then begin
        Intc.clear_pending gic Soc.irq_cpu_timer;
        log := Irq i :: !log
      end)
    ops;
  if deferred then Core.leave c outer;
  ( List.rev !log,
    [ clock.Clock.now; c.Core.frac_ps; c.Core.cpi_acc; c.Core.busy_cycles;
      c.Core.stall_cycles; c.Core.instructions ],
    !owed )

let test_deferred_twins () =
  let sequences = 60 * fuzz_scale in
  let deferring = ref 0 and reaching = ref 0 in
  for k = 0 to sequences - 1 do
    let seed = 0x7d1 + k in
    let rs = Random.State.make [| seed |] in
    let m3 = k mod 2 = 1 in
    let ops = gen_charge_ops rs 1500 in
    let deadline =
      match Random.State.int rs 4 with
      | 0 -> max_int
      | _ -> 1_000 + Random.State.int rs (if m3 then 200_000 else 60_000)
    in
    let log_d, end_d, owed = run_charges ~deferred:true ~m3 ~deadline ops in
    let log_s, end_s, _ = run_charges ~deferred:false ~m3 ~deadline ops in
    let what = Printf.sprintf "seed 0x%x (%s)" seed (if m3 then "m3" else "a9") in
    checkb (what ^ ": same event, counter, deadline and IRQ log") true
      (log_d = log_s);
    Alcotest.(check (list int))
      (what ^ ": now, frac_ps, cpi_acc, busy, stall, instructions") end_s end_d;
    checkb (what ^ ": events fired") true
      (List.exists (function Fired _ -> true | _ -> false) log_s);
    if owed then incr deferring;
    if List.exists (function Reached _ -> true | _ -> false) log_s then
      incr reaching
  done;
  checki "every sequence deferred some cycles" sequences !deferring;
  checkb "some sequences reach their deadline, some do not" true
    (!reaching > 0 && !reaching < sequences)

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
          Alcotest.test_case "dma traffic" `Quick test_dma_counters;
          Alcotest.test_case "MMIO dispatch: no allocation, last wins"
            `Quick test_mmio_dispatch;
          Alcotest.test_case "page-straddling accesses" `Quick
            test_mem_straddle;
          Alcotest.test_case "never-written page reads zero" `Quick
            test_mem_zero_page;
          Alcotest.test_case "every store path copies a shared page" `Quick
            test_mem_cow_stores;
          Alcotest.test_case "straddle at top of RAM" `Quick
            test_mem_top_straddle ] );
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
          Alcotest.test_case "fractional CPI" `Quick test_cpi_model;
          Alcotest.test_case "retire, plain and fused" `Quick test_core_retire;
          Alcotest.test_case "deferred charges = immediate charges" `Quick
            test_deferred_twins;
          Alcotest.test_case "load and store, RAM and MMIO" `Quick
            test_core_data_path ] );
      ( "devices",
        [ Alcotest.test_case "power transitions" `Quick test_device_model;
          Alcotest.test_case "glitch injection" `Quick test_device_glitch ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_clock_order;
          QCheck_alcotest.to_alcotest prop_cache_rehit ] ) ]
