(* World snapshots: fork/restore isolation and replay fidelity.

   The fleet runner's correctness rests on three properties pinned
   here. (1) Isolation: a snapshot is immutable — however the live
   world diverges after a fork, restoring the snapshot brings back the
   exact captured state, and doing so never perturbs any *other*
   snapshot. (2) Replay: running the same input trace from the same
   snapshot twice produces byte-identical simulated observables, and
   those match a straight run that never snapshotted at all — restore
   is not "close enough", it is the same world. (3) Mechanics: RAM
   pages are copy-on-write — forks share every page by reference, a
   store copies only its own page, restore puts the snapshot's pages
   back without copying and reports exactly the pages whose bytes it
   changed, and shared ranges stay exempt. *)

open Tk_machine
open Tk_harness
module Fleet = Tk_fleet.Fleet
module Platform = Tk_drivers.Platform
module Counters = Tk_stats.Counters
module J = Run_manifest

(* minimal device mix: cycles cost ~6 ms, so the suite stays quick *)
let dc_minimal =
  Fleet.dconfigs.(Array.length Fleet.dconfigs - 1)

let mk () =
  let ark = Ark_run.create ~devices:dc_minimal.Fleet.dc_devices () in
  ignore (Fleet.warmup ark ~dc:dc_minimal);
  let soc = (Ark_run.plat ark).Platform.soc in
  let w =
    World.create
      ~shared_ranges:
        [ (Soc.code_cache_base, Soc.code_cache_base + Soc.code_cache_size) ]
      soc
  in
  Fleet.install_hooks w ark;
  (ark, w, soc)

let ram_digest (soc : Soc.t) =
  let mem = soc.Soc.mem in
  Mem.digest mem ~lo:mem.Mem.ram_base
    ~hi:(mem.Mem.ram_base + mem.Mem.ram_size)

(* every simulated observable a manifest would be built from: RAM,
   simulated time, kernel counters, cumulative sleep, phase events *)
let observables (ark : Ark_run.t) (soc : Soc.t) =
  let counters =
    List.sort compare
      (Counters.to_assoc ark.Ark_run.ark.Transkernel.Ark.counters)
  in
  J.to_string
    (J.Obj
       [ ("ram", J.Int (ram_digest soc));
         ("now", J.Int soc.Soc.clock.Clock.now);
         ( "counters",
           J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters) );
         ( "sleep_total",
           J.Int ark.Ark_run.nat.Native_run.sleep_ns_total );
         ("events", J.Int (List.length ark.Ark_run.events)) ])

let cycle_ms (ark : Ark_run.t) ms =
  ark.Ark_run.nat.Native_run.sleep_ns <- ms * 1_000_000;
  match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back why -> Alcotest.failf "cycle fell back: %s" why

(* --------------------------- isolation ------------------------------- *)

let test_fork_isolation () =
  let ark, w, soc = mk () in
  let snap0 = World.fork w in
  let obs0 = observables ark soc in
  (* diverge: run a program the snapshot never saw *)
  cycle_ms ark 5;
  cycle_ms ark 9;
  let snap_b = World.fork w in
  let obs_b = observables ark soc in
  Alcotest.(check bool) "divergence changed the observables" false
    (obs0 = obs_b);
  World.restore w snap0;
  Alcotest.(check string) "restore(snap0) replays the fork-point state"
    obs0 (observables ark soc);
  (* run a *different* divergent program over snap0, then prove the
     sibling snapshot was untouched by all of it *)
  cycle_ms ark 3;
  World.restore w snap_b;
  Alcotest.(check string) "sibling snapshot unperturbed by divergent runs"
    obs_b (observables ark soc);
  World.restore w snap0;
  Alcotest.(check string) "snap0 still intact after restoring the sibling"
    obs0 (observables ark soc)

(* ----------------------------- replay -------------------------------- *)

let trace = [ 3; 5; 7 ]

let run_trace ark soc =
  List.iter (cycle_ms ark) trace;
  observables ark soc

let test_restore_replays_byte_identical () =
  let ark, w, soc = mk () in
  let snap0 = World.fork w in
  let first = run_trace ark soc in
  World.restore w snap0;
  let second = run_trace ark soc in
  Alcotest.(check string) "same trace from same snapshot, byte-identical"
    first second;
  (* a fresh world that never forked nor restored must land on the very
     same observables: snapshotting is invisible to the simulation *)
  let ark2 = Ark_run.create ~devices:dc_minimal.Fleet.dc_devices () in
  ignore (Fleet.warmup ark2 ~dc:dc_minimal);
  let soc2 = (Ark_run.plat ark2).Platform.soc in
  let straight = run_trace ark2 soc2 in
  Alcotest.(check string) "straight run matches snapshot replay" straight
    first

let test_pending_events_replayed () =
  (* one-shot clock events queued at fork time (device completions,
     ARK's conditional tick) are captured and come back on restore *)
  let ark, w, soc = mk () in
  cycle_ms ark 4;
  let snap = World.fork w in
  let pending = List.length (Clock.pending soc.Soc.clock) in
  cycle_ms ark 6;
  World.restore w snap;
  Alcotest.(check int) "queued one-shot events are back"
    pending
    (List.length (Clock.pending soc.Soc.clock));
  (* and the restored queue is live: the world keeps running *)
  cycle_ms ark 2

(* ---------------------------- mechanics ------------------------------ *)

let poke_addr = Soc.page_pool_base + 0x40
let page_of (soc : Soc.t) addr =
  (addr - soc.Soc.mem.Mem.ram_base) asr Mem.page_bits

let test_pages_copy_on_write () =
  let _ark, w, soc = mk () in
  let mem = soc.Soc.mem in
  let snap_a = World.fork w in
  let snap = World.fork w in
  Alcotest.(check bool) "two forks hold physically identical pages" true
    (Array.for_all2 ( == ) snap_a.World.s_pages snap.World.s_pages);
  let page = page_of soc poke_addr in
  let off = (poke_addr - mem.Mem.ram_base) land Mem.page_mask in
  let old = Mem.ram_read mem poke_addr 1 in
  let v = (old + 1) land 0xFF in
  Mem.ram_write mem poke_addr 1 v;
  Array.iteri
    (fun i pg ->
      Alcotest.(check bool)
        (Printf.sprintf "page %d copied only if stored to" i)
        (i = page)
        (mem.Mem.pages.(i) != pg))
    snap.World.s_pages;
  Alcotest.(check int) "the snapshot keeps the old byte" old
    (Char.code (Bytes.get snap.World.s_pages.(page) off));
  let loaded0 = (World.stats w).World.pages_loaded in
  let calls = ref [] in
  World.restore w snap ~on_page:(fun i ~old -> calls := (i, old) :: !calls);
  Alcotest.(check bool) "restore puts the snapshot's pages back by reference"
    true
    (Array.for_all2 ( == ) snap.World.s_pages mem.Mem.pages);
  (match !calls with
  | [ (i, prior) ] ->
    Alcotest.(check int) "on_page names the changed page" page i;
    Alcotest.(check int) "and hands over its prior bytes" v
      (Char.code (Bytes.get prior off))
  | l -> Alcotest.failf "on_page fired %d times, want 1" (List.length l));
  Alcotest.(check int) "one page loaded" (loaded0 + 1)
    (World.stats w).World.pages_loaded;
  (* the restored page is shared again: the next store copies it *)
  Mem.ram_write mem poke_addr 1 v;
  Alcotest.(check int) "the snapshot is never written" old
    (Char.code (Bytes.get snap.World.s_pages.(page) off))

(* a snapshot taken before the code-cache write: restoring it would
   revert the write if the exemption did not hold *)
let test_shared_range_exempt () =
  let _ark, w, soc = mk () in
  let mem = soc.Soc.mem in
  let addr = Soc.code_cache_base + 0x100 in
  let page = page_of soc addr in
  let snap = World.fork w in
  let v = (Mem.ram_read mem addr 1 + 1) land 0xFF in
  Mem.ram_write mem addr 1 v;
  let seen = ref false in
  World.restore w snap ~on_page:(fun i ~old:_ -> if i = page then seen := true);
  Alcotest.(check int) "restore leaves the shared page alone" v
    (Mem.ram_read mem addr 1);
  Alcotest.(check bool) "and reports no change to it" false !seen

let test_restore_reverts_poke () =
  let _ark, w, soc = mk () in
  let mem = soc.Soc.mem in
  let snap0 = World.fork w in
  let old = Mem.ram_read mem poke_addr 1 in
  Mem.ram_write mem poke_addr 1 ((old + 1) land 0xFF);
  let snap1 = World.fork w in
  World.restore w snap0;
  Alcotest.(check int) "restore reverts the diverged byte" old
    (Mem.ram_read mem poke_addr 1);
  World.restore w snap1;
  Alcotest.(check int) "and the sibling still holds its version"
    ((old + 1) land 0xFF)
    (Mem.ram_read mem poke_addr 1)

(* A page never written before the fork, written by an instance and
   restored: it must read back as zeros, and DRAM as a whole must
   digest as it did at the fork. *)
let test_restore_to_zero_page () =
  let _ark, w, soc = mk () in
  let mem = soc.Soc.mem in
  let in_code_cache p =
    let a = mem.Mem.ram_base + (p lsl Mem.page_bits) in
    a >= Soc.code_cache_base && a < Soc.code_cache_base + Soc.code_cache_size
  in
  let rec unwritten p =
    if p < 0 then Alcotest.fail "no never-written page after warmup"
    else if Mem.page_allocated mem p || in_code_cache p then unwritten (p - 1)
    else p
  in
  let page = unwritten (Mem.npages mem - 1) in
  let addr = mem.Mem.ram_base + (page lsl Mem.page_bits) + 0x20 in
  let digest0 = ram_digest soc in
  let snap0 = World.fork w in
  Mem.ram_write mem addr 4 0xDEADBEEF;
  Mem.ram_write mem (addr + Mem.page_size - 0x40) 1 0x5A;
  let snap1 = World.fork w in
  Alcotest.(check bool) "the diverged page was captured" true
    (snap1.World.s_pages.(page) != snap0.World.s_pages.(page));
  World.restore w snap0;
  Alcotest.(check int) "restored word reads zero" 0 (Mem.ram_read mem addr 4);
  Alcotest.(check int) "restored byte reads zero" 0
    (Mem.ram_read mem (addr + Mem.page_size - 0x40) 1);
  Alcotest.(check int) "DRAM digest equals the fork point's" digest0
    (ram_digest soc);
  World.restore w snap1;
  Alcotest.(check int) "the sibling still holds its word" 0xDEADBEEF
    (Mem.ram_read mem addr 4)

let () =
  Alcotest.run "world"
    [ ( "isolation",
        [ Alcotest.test_case "divergent runs never leak across forks"
            `Quick test_fork_isolation;
          Alcotest.test_case "raw divergence reverts, sibling keeps its own"
            `Quick test_restore_reverts_poke ] );
      ( "replay",
        [ Alcotest.test_case "restore replays byte-identical observables"
            `Quick test_restore_replays_byte_identical;
          Alcotest.test_case "pending one-shot clock events survive"
            `Quick test_pending_events_replayed ] );
      ( "mechanics",
        [ Alcotest.test_case "pages are shared until stored to" `Quick
            test_pages_copy_on_write;
          Alcotest.test_case "shared ranges exempt from capture/restore"
            `Quick test_shared_range_exempt;
          Alcotest.test_case "restore back to a never-written page" `Quick
            test_restore_to_zero_page ] ) ]
