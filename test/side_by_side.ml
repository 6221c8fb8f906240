(* Side-by-side fixtures shared by the superblock and certifier suites:
   run a small hand-built guest program through the native interpreter
   and through a superblock-tier engine, and diff the architectural
   outcome (the §7.3 methodology). The hot programs are shaped so the
   loop body straddles the 16-instruction block limit — formation must
   stitch a chain of at least two translation blocks. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt

let rep n i = List.init n (fun _ -> Asm.Ins i)
let ret = at (Bx Types.lr)
let base = Soc.kernel_base

type arch = { regs : int array; flags : int }

let run_native image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let interp = Interp.create ~soc () in
  let stop = ref false in
  interp.Interp.on_svc <- (fun _ _ _ -> stop := true);
  let cpu = interp.Interp.cpu in
  let stub = base + (4 * Array.length image.Asm.words) + 64 in
  Mem.ram_write soc.Soc.mem stub 4 (V7a.encode_exn (at (Svc 0)));
  cpu.Exec.r.(Types.lr) <- stub;
  Interp.set_pc interp (Asm.symbol image entry);
  let steps = ref 0 in
  (try
     while not !stop do
       incr steps;
       if !steps > 1_000_000 then failwith "native runaway";
       Interp.step interp
     done
   with e -> Alcotest.failf "native arm: %s" (Printexc.to_string e));
  { regs = Array.copy cpu.Exec.r; flags = Exec.flags_word cpu }

(* superblock engine run, with an optional online certifier hook *)
let run_sb ?(threshold = 4) ?admit image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  engine.Engine.superblock <- true;
  engine.Engine.sb_threshold <- threshold;
  engine.Engine.sb_certify <- admit;
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image entry);
  (try Engine.run engine cpu ~fuel:5_000_000 with
  | Engine.Context_exit -> ()
  | e -> Alcotest.failf "superblock arm: %s" (Printexc.to_string e));
  ( { regs = Array.init 16 (fun i -> Engine.guest_reg engine cpu i);
      flags = Exec.flags_word cpu },
    engine )

let check_arch label n s =
  for i = 0 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "%s: r%d matches native" label i)
      n.regs.(i) s.regs.(i)
  done;
  Alcotest.(check int) (label ^ ": flags match native") n.flags s.flags

(* hot loop whose body spans two chained translation blocks: 18 pad adds
   overflow the 16-instruction block limit, so the backedge block chain
   is [.top][.top+0x40] — formation must stitch both. The guest never
   touches r12, so the planner re-homes r10 into it. *)
let hot_image () =
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (10, 0)));
      Asm.Ins (at (Movw (1, 200))); Asm.Label ".top" ]
    @ rep 18 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at (Dp (ADD, false, 10, 10, Imm 3)));
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "hotfn"; items } ] []

(* The §7.3 SMC shape. The loop's first block holds the patch target;
   the second constituent block stores a new encoding over it on the
   iteration where r1 = 20 (well after formation at threshold 4).
   Program order puts the store AFTER the patch site within the
   iteration, so both arms execute the old word on the store iteration
   and must pick up the new word on the next — the DBT side via
   whole-trace eviction at the backedge. *)
let smc_image () =
  let enc = V7a.encode_exn (at (Dp (ADD, false, 0, 0, Imm 100))) in
  let str_word =
    Mem { ld = false; size = Word; rt = 2; rn = 3; off = Oimm 0; idx = Offset }
  in
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 40)));
      Asm.Label ".top"; Asm.Label ".patch";
      Asm.Ins (at (Dp (ADD, false, 0, 0, Imm 2))) ]
    @ rep 15 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ (* second block of the chain starts here *)
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 20)));
        Asm.Bcc (NE, ".skip");
        Asm.Ins (at (Movw (2, enc land 0xFFFF)));
        Asm.Ins (at (Movt (2, enc lsr 16)));
        Asm.Adr (3, ".patch");
        Asm.Ins (at str_word);
        Asm.Label ".skip";
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "smcfn"; items } ] []
