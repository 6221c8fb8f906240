(* The persistent translation cache: serialization round-trip, key
   hygiene (a digest mismatch or corrupt file is an ordinary cold
   start), and the warm-start contract — a warm run replays cached
   blocks and traces at exactly the instants cold translation would
   produce them, with the same simulated charges, so every simulated
   counter is identical to the cold run's. Only host-side translation
   work is skipped. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt
module Ark_run = Tk_harness.Ark_run
module Native_run = Tk_harness.Native_run

let rep n i = List.init n (fun _ -> Asm.Ins i)

(* the same two-block hot loop shape the superblock suite uses *)
let hot_image () =
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 200)));
      Asm.Label ".top" ]
    @ rep 18 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins (at (Bx Types.lr)) ]
  in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "hotfn"; items } ] []

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tkcache-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* one superblock-tier run of the hot loop; [store] attaches a
   persistent cache *)
let run_hot ?store image =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  engine.Engine.superblock <- true;
  engine.Engine.sb_threshold <- 4;
  engine.Engine.store <- store;
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <-
    Engine.entry_host engine (Asm.symbol image "hotfn");
  (try Engine.run engine cpu ~fuel:5_000_000 with
  | Engine.Context_exit -> ()
  | e -> Alcotest.failf "engine: %s" (Printexc.to_string e));
  let act = Core.activity soc.Soc.m3 in
  let regs = Array.init 16 (fun i -> Engine.guest_reg engine cpu i) in
  (regs, Exec.flags_word cpu, act, engine)

(* ------------------------------ tests -------------------------------- *)

let test_roundtrip () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, _, _, engine = run_hot ~store:(Cache_store.create ~key) image in
      let st = Option.get engine.Engine.store in
      Alcotest.(check bool) "cold run populated the store" true
        (Hashtbl.length st.Cache_store.blocks > 0
        && Hashtbl.length st.Cache_store.traces > 0);
      Cache_store.save ~dir st;
      match Cache_store.load ~dir ~key with
      | None -> Alcotest.fail "saved cache failed to load"
      | Some got ->
        Alcotest.(check string) "key survives" key got.Cache_store.key;
        Alcotest.(check int) "all blocks survive"
          (Hashtbl.length st.Cache_store.blocks)
          (Hashtbl.length got.Cache_store.blocks);
        Alcotest.(check int) "all traces survive"
          (Hashtbl.length st.Cache_store.traces)
          (Hashtbl.length got.Cache_store.traces))

let test_key_mismatch_cold () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, _, _, engine = run_hot ~store:(Cache_store.create ~key) image in
      Cache_store.save ~dir (Option.get engine.Engine.store);
      (* absent key: no such file *)
      Alcotest.(check bool) "unknown key misses" true
        (Cache_store.load ~dir ~key:"00000000" = None);
      (* stale key: pretend the image changed but the file name matched *)
      Sys.rename
        (Cache_store.path ~dir ~key)
        (Cache_store.path ~dir ~key:"deadbeef");
      Alcotest.(check bool) "digest-mismatched file rejected" true
        (Cache_store.load ~dir ~key:"deadbeef" = None))

let test_corrupt_cold () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Cache_store.path ~dir ~key:"cafe1234" in
      let oc = open_out_bin path in
      output_string oc "not a translation cache at all";
      close_out oc;
      Alcotest.(check bool) "corrupt file is a cold start" true
        (Cache_store.load ~dir ~key:"cafe1234" = None))

(* Every corruption of a saved cache — bits flipped anywhere, or the
   file cut short anywhere — must load as a cold start: the header lines
   are compared exactly and the payload is checked against its digest
   before any byte of it reaches [Marshal]. Without the digest, random
   flips in the payload crashed the process or raised from deep inside
   the engine. *)
let test_corruption_battery () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, _, _, engine = run_hot ~store:(Cache_store.create ~key) image in
      Cache_store.save ~dir (Option.get engine.Engine.store);
      let file = Cache_store.path ~dir ~key in
      let good = In_channel.with_open_bin file In_channel.input_all in
      let load bytes =
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc bytes);
        Cache_store.load ~dir ~key
      in
      let cold label bytes =
        if load bytes <> None then
          Alcotest.failf "%s: corrupted cache loaded" label
      in
      let n = String.length good in
      for len = 0 to n - 1 do
        cold (Printf.sprintf "truncated to %d of %d bytes" len n)
          (String.sub good 0 len)
      done;
      let flip b pos bit =
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)))
      in
      (* every single-bit flip in the header lines *)
      for pos = 0 to min n 64 - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string good in
          flip b pos bit;
          cold (Printf.sprintf "bit %d of byte %d flipped" bit pos)
            (Bytes.to_string b)
        done
      done;
      (* four random flips per case, anywhere in the file *)
      let rng = Random.State.make [| 12 |] in
      for case = 1 to 300 do
        let b = Bytes.of_string good in
        for _ = 1 to 4 do
          flip b (Random.State.int rng n) (Random.State.int rng 8)
        done;
        let s = Bytes.to_string b in
        if s <> good then cold (Printf.sprintf "random flips, case %d" case) s
      done;
      Alcotest.(check bool) "the intact file still loads" true
        (load good <> None))

(* the fixed-tmp race fix: concurrent writers sharing one cache dir use
   unique per-process tmp names, so one save can never rename another's
   half-written file into place; after both commit, the dir holds only
   final cache files (every tmp unlinked) and each loads intact *)
let test_concurrent_saves () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _, _, _, e1 = run_hot ~store:(Cache_store.create ~key) image in
      let _, _, _, e2 = run_hot ~store:(Cache_store.create ~key) image in
      let s1 = Option.get e1.Engine.store
      and s2 = Option.get e2.Engine.store in
      (* interleave the two saves on domains: same target file, distinct
         tmp files, last rename wins *)
      let d1 = Domain.spawn (fun () -> Cache_store.save ~dir s1) in
      Cache_store.save ~dir s2;
      Domain.join d1;
      Array.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "no tmp residue (%s)" f)
            false
            (Filename.check_suffix f ".tmp"))
        (Sys.readdir dir);
      match Cache_store.load ~dir ~key with
      | None -> Alcotest.fail "winner's file failed to load"
      | Some got ->
        Alcotest.(check int) "winner's blocks intact"
          (Hashtbl.length s1.Cache_store.blocks)
          (Hashtbl.length got.Cache_store.blocks))

(* an unwritable cache dir degrades to a warning: the run stays cold
   instead of crashing (fleet shards must survive a read-only mount).
   chmod is no barrier to root, so unwritability is staged with a
   regular file where the directory should be — mkdir and temp_file
   both fail with Sys_error on it, for any uid *)
let test_unwritable_dir_runs_cold () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tkcache-notadir-%d-%d" (Unix.getpid ())
         (Random.bits ()))
  in
  let oc = open_out dir in
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove dir)
    (fun () ->
      let _, _, _, engine = run_hot ~store:(Cache_store.create ~key) image in
      (* must not raise; nothing persisted *)
      Cache_store.save ~dir (Option.get engine.Engine.store);
      Alcotest.(check bool) "nothing persisted, next start is cold" true
        (Cache_store.load ~dir ~key = None))

(* warm replay must not move a single simulated counter: the cache
   eliminates host-side translation work, never simulated cycles *)
let test_warm_equals_cold () =
  let image = hot_image () in
  let key =
    Cache_store.key_of_image ~base:image.Asm.base ~words:image.Asm.words
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let regs_c, flags_c, act_c, engine_c =
        run_hot ~store:(Cache_store.create ~key) image
      in
      Cache_store.save ~dir (Option.get engine_c.Engine.store);
      let warm = Option.get (Cache_store.load ~dir ~key) in
      let regs_w, flags_w, act_w, engine_w = run_hot ~store:warm image in
      Alcotest.(check bool) "warm run replayed from the store" true
        (engine_w.Engine.cache_warm_hits > 0);
      Alcotest.(check int) "cold run had no warm hits" 0
        engine_c.Engine.cache_warm_hits;
      Alcotest.(check (array int)) "guest registers identical" regs_c regs_w;
      Alcotest.(check int) "flags identical" flags_c flags_w;
      Alcotest.(check int) "instructions identical"
        act_c.Core.a_instructions act_w.Core.a_instructions;
      Alcotest.(check int) "busy cycles identical" act_c.Core.a_busy_cycles
        act_w.Core.a_busy_cycles;
      Alcotest.(check int) "cache misses identical"
        act_c.Core.a_cache_misses act_w.Core.a_cache_misses;
      Alcotest.(check int) "traces re-formed at the same instants"
        engine_c.Engine.traces_formed engine_w.Engine.traces_formed;
      Alcotest.(check int) "fusions identical" engine_c.Engine.fusions_applied
        engine_w.Engine.fusions_applied)

(* the harness plumbing: a full offloaded cycle cold with --cache-dir,
   then warm — byte-identical simulated outcome, warm hits observed *)
let test_harness_warm_cycle () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cycle () =
        let ark = Ark_run.create ~superblock:true ~cache_dir:dir () in
        (match Ark_run.suspend_resume_cycle ark with
        | `Ok -> ()
        | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
        Ark_run.save_cache ark;
        let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
        let act = Core.activity soc.Soc.m3 in
        let e = ark.Ark_run.ark.Transkernel.Ark.engine in
        ( act.Core.a_instructions, act.Core.a_busy_cycles,
          act.Core.a_cache_misses, soc.Soc.clock.Clock.now,
          e.Engine.cache_warm_hits )
      in
      let ic, bc, mc, tc, warm_c = cycle () in
      let iw, bw, mw, tw, warm_w = cycle () in
      Alcotest.(check int) "cold cycle starts cold" 0 warm_c;
      Alcotest.(check bool) "second cycle warm-started" true (warm_w > 0);
      Alcotest.(check int) "instructions identical" ic iw;
      Alcotest.(check int) "busy cycles identical" bc bw;
      Alcotest.(check int) "cache misses identical" mc mw;
      Alcotest.(check int) "simulated time identical" tc tw)

let () =
  Random.self_init ();
  Alcotest.run "cache_store"
    [ ( "persistence",
        [ Alcotest.test_case "save/load round-trip" `Quick test_roundtrip;
          Alcotest.test_case "digest mismatch is a cold start" `Quick
            test_key_mismatch_cold;
          Alcotest.test_case "corrupt file is a cold start" `Quick
            test_corrupt_cold;
          Alcotest.test_case "bit flips and truncation are cold starts"
            `Quick test_corruption_battery;
          Alcotest.test_case "concurrent saves never clobber" `Quick
            test_concurrent_saves;
          Alcotest.test_case "unwritable dir degrades to cold" `Quick
            test_unwritable_dir_runs_cold ] );
      ( "warm start",
        [ Alcotest.test_case "warm counters = cold counters" `Quick
            test_warm_equals_cold;
          Alcotest.test_case "full cycle warm = cold" `Quick
            test_harness_warm_cycle ] ) ]
