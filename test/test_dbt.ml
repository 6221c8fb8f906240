(* The DBT engine: differential execution. Random straight-line guest
   code must produce identical architectural state when run natively on
   the simulated A9 and when translated and run on the simulated M3 —
   for every engine configuration. This is the §7.3 correctness
   methodology ("comparing execution results side-by-side with native
   execution") as a property test. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt

let buf_base = 0x10500000
let buf_size = 16384
let buf_mid = buf_base + (buf_size / 2)

(* -------------------------- generators ------------------------------ *)

(* destination registers never include the memory base r8 / index r9 *)
let gen_rd = QCheck.Gen.oneofl [ 0; 1; 2; 3; 4; 5; 6; 7; 10 ]
let gen_rs = QCheck.Gen.oneofl [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
let gen_cond = QCheck.Gen.map cond_of_int (QCheck.Gen.int_range 0 14)

let gen_shift_kind =
  QCheck.Gen.map shift_kind_of_int (QCheck.Gen.int_range 0 3)

let gen_operand2 =
  let open QCheck.Gen in
  oneof
    [ map (fun v -> Imm v)
        (oneof
           [ int_range 0 255;
             map (fun b -> Bits.ror32 b 2) (int_range 0 255);
             map (fun b -> Bits.ror32 b 8) (int_range 0 255);
             map (fun b -> Bits.ror32 b 30) (int_range 0 255) ]);
      map (fun r -> Reg r) gen_rs;
      map3 (fun r k a -> Sreg (r, k, a)) gen_rs gen_shift_kind (int_range 0 31);
      map3 (fun r k rs -> Sregreg (r, k, rs)) gen_rs gen_shift_kind gen_rs ]

let gen_dp =
  let open QCheck.Gen in
  let* o = map dp_op_of_int (int_range 0 15) in
  let* s = bool in
  let* rd = gen_rd in
  let* rn = gen_rs in
  let* op2 = gen_operand2 in
  return (Dp (o, s, rd, rn, op2))

let gen_mem =
  let open QCheck.Gen in
  let* ld = bool in
  let* size = map mem_size_of_int (int_range 0 2) in
  let* rt = oneofl [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let* idx = oneofl [ Offset; Offset; Pre; Post ] in
  let* off =
    oneof
      [ (let* o = int_range (-64) 64 in
         return (Oimm (if idx = Offset then o * 8 else o)));
        (* r9 holds a small index set up by the harness *)
        map2 (fun k a -> Oreg (9, k, a)) (oneofl [ LSL; LSL; LSR ])
          (int_range 0 2) ]
  in
  return (Mem { ld; size; rt; rn = 8; off; idx })

let gen_misc =
  let open QCheck.Gen in
  oneof
    [ map2 (fun rd i -> Movw (rd, i)) gen_rd (int_range 0 0xFFFF);
      map2 (fun rd i -> Movt (rd, i)) gen_rd (int_range 0 0xFFFF);
      map3 (fun s rd (rn, rm) -> Mul (s, rd, rn, rm)) bool gen_rd
        (pair gen_rs gen_rs);
      map3 (fun rd rn rm -> Udiv (rd, rn, rm)) gen_rd gen_rs gen_rs;
      map2 (fun rd rm -> Clz (rd, rm)) gen_rd gen_rs;
      map2 (fun rd rm -> Rev (rd, rm)) gen_rd gen_rs;
      map2 (fun rd rm -> Sxt (Byte, rd, rm)) gen_rd gen_rs;
      map2 (fun rd rm -> Uxt (Half, rd, rm)) gen_rd gen_rs;
      map2 (fun rd rm -> Swp (rd, rm, 8)) gen_rd
        (oneofl [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
      (* push/pop over the test buffer *)
      map (fun regs -> Stm (8, true, List.sort_uniq compare regs))
        (list_size (int_range 1 4) (oneofl [ 0; 1; 2; 3; 4; 5; 6; 7 ]));
      map (fun regs -> Ldm (8, true, List.sort_uniq compare regs))
        (list_size (int_range 1 4) (oneofl [ 0; 1; 2; 3; 4; 5; 6; 7 ])) ]

let gen_inst =
  QCheck.Gen.map2
    (fun cond op -> { cond; op })
    gen_cond
    QCheck.Gen.(frequency [ (5, gen_dp); (3, gen_mem); (2, gen_misc) ])

let gen_program = QCheck.Gen.list_size (QCheck.Gen.int_range 4 24) gen_inst

let arb_program =
  QCheck.make
    ~print:(fun l -> String.concat "\n" (List.map to_string l))
    gen_program

(* --------------------------- harnesses ------------------------------ *)

let build_image prog =
  let items = List.map (fun i -> Asm.Ins i) prog @ [ Asm.Ins (at (Bx lr)) ] in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "testfn"; items } ] []

let fill_buffer soc =
  for i = 0 to (buf_size / 4) - 1 do
    Mem.ram_write soc.Soc.mem (buf_base + (4 * i)) 4
      ((i * 2654435761) land 0xFFFFFFFF)
  done

let seed_regs set =
  set 0 0x12345678;
  set 1 0xFFFFFFF0;
  set 2 17;
  set 3 0x80000000;
  set 4 3;
  set 5 0xCAFEBABE;
  set 6 0;
  set 7 0x7FFFFFFF;
  set 8 buf_mid;
  set 9 6;
  set 10 0x0BADF00D

type result = { regs : int array; flags : int; digest : int }

let run_native prog =
  let soc = Soc.create () in
  let image = build_image prog in
  Mem.load_image soc.Soc.mem image;
  fill_buffer soc;
  let interp = Interp.create ~soc () in
  let stop = ref false in
  interp.Interp.on_svc <- (fun _ _ _ -> stop := true);
  let cpu = interp.Interp.cpu in
  seed_regs (fun i v -> cpu.Exec.r.(i) <- Bits.mask32 v);
  (* return lands on a stub we place via lr = an SVC in spare RAM *)
  let stub = Soc.kernel_base + (4 * Array.length image.Asm.words) + 64 in
  Mem.ram_write soc.Soc.mem stub 4 (V7a.encode_exn (at (Svc 0)));
  cpu.Exec.r.(Types.lr) <- stub;
  Interp.set_pc interp (Asm.symbol image "testfn");
  (try
     while not !stop do
       Interp.step interp
     done
   with e -> Alcotest.failf "native: %s" (Printexc.to_string e));
  { regs = Array.copy cpu.Exec.r;
    flags = Exec.flags_word cpu;
    digest = Mem.digest soc.Soc.mem ~lo:buf_base ~hi:(buf_base + buf_size) }

let run_dbt mode prog =
  let soc = Soc.create () in
  let image = build_image prog in
  Mem.load_image soc.Soc.mem image;
  fill_buffer soc;
  let engine = Engine.create ~soc ~mode () in
  let cpu = Exec.make_cpu () in
  (match mode with
  | Translator.Ark ->
    seed_regs (fun i v ->
        if i = 10 then Engine.set_guest_reg engine cpu 10 v
        else cpu.Exec.r.(i) <- Bits.mask32 v);
    cpu.Exec.r.(Types.lr) <- Layout.exit_magic
  | Translator.Mid | Translator.Baseline ->
    cpu.Exec.r.(11) <- Layout.env_base;
    seed_regs (fun i v -> Engine.set_guest_reg engine cpu i v);
    Engine.set_guest_reg engine cpu Types.lr Layout.exit_magic);
  cpu.Exec.r.(Types.pc) <-
    Engine.entry_host engine (Asm.symbol image "testfn");
  (try Engine.run engine cpu ~fuel:5_000_000
   with
  | Engine.Context_exit -> ()
  | e -> Alcotest.failf "dbt: %s" (Printexc.to_string e));
  let regs = Array.init 16 (fun i -> Engine.guest_reg engine cpu i) in
  { regs;
    flags =
      (match mode with
      | Translator.Baseline ->
        Mem.ram_read soc.Soc.mem Layout.env_guest_flags 4
      | _ -> Exec.flags_word cpu);
    digest = Mem.digest soc.Soc.mem ~lo:buf_base ~hi:(buf_base + buf_size) }

let differ mode prog =
  let n = run_native prog in
  let d = run_dbt mode prog in
  let mismatch = ref [] in
  for i = 0 to 10 do
    (* r11 is mode-reserved, r12 is the documented dead register,
       r13/r14/r15 are control state *)
    if n.regs.(i) <> d.regs.(i) then
      mismatch := Printf.sprintf "r%d: native=0x%x dbt=0x%x" i n.regs.(i)
                    d.regs.(i)
                  :: !mismatch
  done;
  if n.flags <> d.flags then
    mismatch := Printf.sprintf "flags: 0x%x vs 0x%x" n.flags d.flags :: !mismatch;
  if n.digest <> d.digest then mismatch := "memory digest differs" :: !mismatch;
  if !mismatch <> [] then
    QCheck.Test.fail_reportf "mode mismatch:\n%s"
      (String.concat "\n" !mismatch)
  else true

(* filter shapes each mode's translator legitimately rejects *)
let translatable mode prog =
  List.for_all
    (fun i ->
      (match i.op with
      | Mem { ld = true; rt; rn; idx = Pre | Post; _ } -> rt <> rn
      | _ -> true)
      &&
      match mode with
      | Translator.Mid ->
        (* Mid reserves r10 (scratch) and r11 (env base) *)
        (not (List.mem 10 (regs_read i)))
        && not (List.mem 10 (regs_written i))
      | Translator.Ark | Translator.Baseline -> true)
    prog

let prop_mode name mode =
  QCheck.Test.make ~count:300 ~name arb_program (fun prog ->
      QCheck.assume (translatable mode prog);
      differ mode prog)

(* ------------------------- unit tests ------------------------------- *)

let test_patching () =
  (* a call-and-return pair exercises S_call patching and host returns *)
  let callee =
    { Asm.name = "callee";
      items =
        [ Asm.Ins (at (Dp (ADD, false, 0, 0, Imm 1))); Asm.Ins (at (Bx lr)) ] }
  in
  let caller =
    { Asm.name = "caller";
      items =
        [ Asm.Ins (at (Stm (Types.sp, true, [ 4; Types.lr ])));
          Asm.Call "callee";
          Asm.Call "callee";
          Asm.Ins (at (Ldm (Types.sp, true, [ 4; Types.pc ]))) ] }
  in
  let soc = Soc.create () in
  let image = Asm.link ~base:Soc.kernel_base [ caller; callee ] [] in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  let run () =
    let cpu = Exec.make_cpu () in
    cpu.Exec.r.(0) <- 40;
    cpu.Exec.r.(Types.sp) <- Soc.stack_top 8;
    cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
    cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image "caller");
    (try Engine.run engine cpu ~fuel:100000 with Engine.Context_exit -> ());
    cpu.Exec.r.(0)
  in
  Alcotest.(check int) "first run" 42 (run ());
  let patches_after_first = engine.Engine.patches in
  Alcotest.(check int) "second run" 42 (run ());
  Alcotest.(check int) "no repatching on warm code" patches_after_first
    engine.Engine.patches;
  Alcotest.(check bool) "call sites were patched" true
    (patches_after_first >= 2)

let test_loop_translation () =
  (* a counted loop: exercises conditional branches and chaining *)
  let frag =
    { Asm.name = "loopfn";
      items =
        [ Asm.Ins (at (Movw (0, 0)));
          Asm.Ins (at (Movw (1, 100)));
          Asm.Label ".top";
          Asm.Ins (at (Dp (ADD, false, 0, 0, Imm 3)));
          Asm.Ins (at (Dp (SUB, true, 1, 1, Imm 1)));
          Asm.Bcc (NE, ".top");
          Asm.Ins (at (Bx Types.lr)) ] }
  in
  let soc = Soc.create () in
  let image = Asm.link ~base:Soc.kernel_base [ frag ] [] in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image "loopfn");
  (try Engine.run engine cpu ~fuel:100000 with Engine.Context_exit -> ());
  Alcotest.(check int) "loop result" 300 cpu.Exec.r.(0)

let test_indirect_call () =
  let callee =
    { Asm.name = "cal2";
      items =
        [ Asm.Ins (at (Dp (MOV, false, 0, 0, Imm 99))); Asm.Ins (at (Bx Types.lr)) ] }
  in
  let caller =
    { Asm.name = "icaller";
      items =
        [ Asm.Ins (at (Stm (Types.sp, true, [ 4; Types.lr ])));
          Asm.Adr (3, "cal2");
          Asm.Ins (at (Blx_r 3));
          Asm.Ins (at (Ldm (Types.sp, true, [ 4; Types.pc ]))) ] }
  in
  let soc = Soc.create () in
  let image = Asm.link ~base:Soc.kernel_base [ caller; callee ] [] in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.sp) <- Soc.stack_top 8;
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image "icaller");
  (try Engine.run engine cpu ~fuel:100000 with Engine.Context_exit -> ());
  Alcotest.(check int) "indirect call result" 99 cpu.Exec.r.(0)

(* The run loop indexes the engine's per-word arrays unchecked, and they
   are only one word longer than the code cache's high-water mark. A
   block whose last word falls through (here: its final transfer
   overwritten with a no-op) must fault at the first word past the
   cursor, not run on into words nothing emitted. *)
let test_fall_through_past_cursor () =
  let frag =
    { Asm.name = "straight";
      items =
        [ Asm.Ins (at (Dp (MOV, false, 0, 0, Imm 7))); Asm.Ins (at (Bx Types.lr)) ] }
  in
  let soc = Soc.create () in
  let image = Asm.link ~base:Soc.kernel_base [ frag ] [] in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image "straight");
  let last = ((engine.Engine.cursor - Soc.code_cache_base) asr 2) - 1 in
  engine.Engine.host_decode.(last) <-
    Exec.decoded (at (Dp (MOV, false, 1, 1, Reg 1)));
  match Engine.run engine cpu ~fuel:100000 with
  | () -> Alcotest.fail "run returned"
  | exception Engine.Host_error msg ->
    Alcotest.(check string) "faults at the cursor"
      (Printf.sprintf "host pc outside code cache: 0x%x" engine.Engine.cursor)
      msg
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)

(* ------------------- block-terminal invariant ----------------------- *)

(* The engine's one run loop probes for block starts, the exit sentinel
   and the quantum deadline only after a control transfer. That is sound
   only if every translated block and formed trace ends in an
   unconditional one — an engine site, or a host instruction that
   writes pc — so straight-line fall-through never reaches another
   block's head. *)
let ends_in_transfer (emits : Translator.emit list) =
  match List.rev emits with
  | Translator.E_site (AL, _, _) :: _ -> true
  | Translator.E_inst ({ cond = AL; op } as i) :: _ -> (
    match op with
    | B _ | Bl _ | Bx _ | Blx_r _ -> true
    | _ -> List.mem Types.pc (regs_written i))
  | _ -> false

let mode_name = function
  | Translator.Ark -> "ark"
  | Translator.Mid -> "mid"
  | Translator.Baseline -> "baseline"

let test_blocks_end_in_transfer () =
  let built = Tk_drivers.Platform.build_image () in
  let image = built.Tk_kernel.Image.image in
  List.iter
    (fun mode ->
      let ark = Tk_harness.Ark_run.create ~built ~mode () in
      let engine = ark.Tk_harness.Ark_run.ark.Transkernel.Ark.engine in
      let ctx =
        { Translator.mode; classify_target = engine.Engine.classify_target;
          block_limit = engine.Engine.block_limit;
          read_guest =
            (fun a -> V7a.decode image.Asm.words.((a - image.Asm.base) / 4));
          legalize = Translator.default_legalize }
      in
      Hashtbl.iter
        (fun gpc name ->
          let b = Translator.translate ctx ~gpc in
          if not (ends_in_transfer b.Translator.b_emits) then
            Alcotest.failf "%s: block at %s (0x%x) can fall through"
              (mode_name mode) name gpc)
        image.Asm.sym_of_addr)
    [ Translator.Ark; Translator.Mid; Translator.Baseline ]

let test_traces_end_in_transfer () =
  let ark = Tk_harness.Ark_run.create ~superblock:true () in
  let engine = ark.Tk_harness.Ark_run.ark.Transkernel.Ark.engine in
  (* an admit-everything certifier sees every plan the run forms *)
  let plans = ref [] in
  engine.Engine.sb_certify <-
    Some
      (fun p ->
        plans := p :: !plans;
        true);
  (match Tk_harness.Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  Alcotest.(check bool) "the cycle formed traces" true (!plans <> []);
  List.iter
    (fun (p : Superblock.plan) ->
      if not (ends_in_transfer p.Superblock.p_emits) then
        Alcotest.failf "trace at 0x%x can fall through" p.Superblock.p_head)
    !plans

let () =
  Alcotest.run "dbt"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest
            (prop_mode "ark = native (random code)" Translator.Ark);
          QCheck_alcotest.to_alcotest
            (prop_mode "mid = native (random code)" Translator.Mid);
          QCheck_alcotest.to_alcotest
            (prop_mode "baseline = native (random code)" Translator.Baseline) ] );
      ( "engine",
        [ Alcotest.test_case "call-site patching" `Quick test_patching;
          Alcotest.test_case "loop chaining" `Quick test_loop_translation;
          Alcotest.test_case "indirect calls" `Quick test_indirect_call;
          Alcotest.test_case "fall-through past the cursor faults" `Quick
            test_fall_through_past_cursor;
          Alcotest.test_case "every block ends in a control transfer"
            `Quick test_blocks_end_in_transfer;
          Alcotest.test_case "every trace ends in a control transfer"
            `Quick test_traces_end_in_transfer ] ) ]
