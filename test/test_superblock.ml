(* The superblock tier: trace formation over hot block chains, macro-op
   fusion, and store-driven invalidation of a formed multi-block trace.

   The engine-level tests run small hand-built guest programs side by
   side ({!Side_by_side}) through the native interpreter and a
   superblock-tier engine and diff the architectural outcome. The SMC
   regression stores a fresh encoding into the SECOND constituent block
   of a formed trace: the whole trace must be evicted and the rewritten
   word picked up at the next block boundary, exactly when the
   interpreter's decode cache would pick it up. Stores into the image's
   data window, past the code section, are probed and must invalidate
   nothing. The harness-level test runs a full offloaded suspend/resume
   cycle with the tier on. *)

open Tk_isa
open Tk_isa.Types
open Tk_dbt
open Side_by_side
module Ark_run = Tk_harness.Ark_run

(* ------------------------- trace formation --------------------------- *)

let test_formation () =
  let image = hot_image () in
  let n = run_native image "hotfn" in
  let s, engine = run_sb image "hotfn" in
  check_arch "hot loop" n s;
  Alcotest.(check bool) "a multi-block trace formed" true
    (engine.Engine.traces_formed >= 1);
  Alcotest.(check bool) "cmp+branch idiom fused" true
    (engine.Engine.fusions_applied >= 1);
  Alcotest.(check int) "nothing invalidated" 0 engine.Engine.invalidations

(* a threshold the loop never reaches leaves the tier inert *)
let test_below_threshold () =
  let image = hot_image () in
  let n = run_native image "hotfn" in
  let s, engine = run_sb ~threshold:1_000_000 image "hotfn" in
  check_arch "cold loop" n s;
  Alcotest.(check int) "no trace formed" 0 engine.Engine.traces_formed

(* ------------------------- store invalidation ------------------------ *)

(* hot store loop writing the counter into the kernel image's data
   window, past the code section: every store pays the cover-map probe,
   and none may invalidate a translation *)
let store_image () =
  let data = base + 0x8000 in
  let str_data =
    Mem { ld = false; size = Word; rt = 0; rn = 3; off = Oimm 0; idx = Offset }
  in
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 200)));
      Asm.Label ".top";
      Asm.Ins (at (Movw (3, data land 0xFFFF)));
      Asm.Ins (at (Movt (3, data lsr 16))) ]
    @ rep 13 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at str_data);
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "storefn"; items } ] []

let test_smc_in_trace () =
  let image = smc_image () in
  let n = run_native image "smcfn" in
  let s, engine = run_sb image "smcfn" in
  check_arch "smc loop" n s;
  Alcotest.(check bool) "trace had formed before the store" true
    (engine.Engine.traces_formed >= 1);
  Alcotest.(check bool) "store into the trace was caught" true
    (engine.Engine.invalidations >= 1);
  Alcotest.(check bool) "whole cache evicted" true
    (engine.Engine.flushes >= 1)

let test_image_data_stores () =
  let image = store_image () in
  let n = run_native image "storefn" in
  let s, engine = run_sb image "storefn" in
  check_arch "store loop" n s;
  Alcotest.(check bool) "a trace formed over the store loop" true
    (engine.Engine.traces_formed >= 1);
  Alcotest.(check int) "nothing invalidated" 0 engine.Engine.invalidations;
  Alcotest.(check int) "no flush" 0 engine.Engine.flushes

(* ----------------------- full offloaded cycle ------------------------ *)

let test_full_cycle () =
  let ark = Ark_run.create ~superblock:true () in
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let e = ark.Ark_run.ark.Transkernel.Ark.engine in
  Alcotest.(check bool) "traces formed during the offloaded phases" true
    (e.Engine.traces_formed >= 1);
  Alcotest.(check bool) "macro-ops fused" true (e.Engine.fusions_applied >= 1)

let () =
  Alcotest.run "superblock"
    [ ( "trace formation",
        [ Alcotest.test_case "hot chain forms and matches native" `Quick
            test_formation;
          Alcotest.test_case "unreached threshold stays inert" `Quick
            test_below_threshold ] );
      ( "invalidation",
        [ Alcotest.test_case "store into a formed trace evicts it" `Quick
            test_smc_in_trace;
          Alcotest.test_case "image-data stores do not invalidate" `Quick
            test_image_data_stores ] );
      ( "harness",
        [ Alcotest.test_case "offloaded cycle completes with traces" `Quick
            test_full_cycle ] ) ]
