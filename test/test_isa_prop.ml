(* ISA codec property battery: seeded-PRNG fuzz over both encoders.

   Two properties per ISA:

   - round-trip: for canonical-form instructions within each encoder's
     documented constraints, [decode (encode i) = i] structurally. The
     generators are constraint-aware (e.g. V7M modified immediates,
     LSL#0 register-shift canonicalization, writeback offset ranges) so
     every generated instruction must encode; an [Error] from the
     encoder is itself a test failure.

   - totality: [decode_total] never raises, for any 32-bit word —
     malformed words (bad cond nibble, unknown class/sub-op) become a
     defined [Udf] the executor can trap on. This is what lets the
     interpreters fetch from arbitrary guest memory without host-side
     exceptions leaking simulation state.

   A third property holds the executor to itself: the closure
   [Exec.compile] builds for an instruction must do exactly what
   [Exec.step] does — same registers, flags, IRQ enable, outcome and
   sequence of environment calls — on random instructions of both ISAs
   and on every specialised shape forced through each condition, both
   S values and pc in each register slot.

   Iteration counts scale with TK_FUZZ_SCALE (CI keeps it at 1; crank
   it locally for a deeper soak). Failures print the generator seed and
   iteration index, which reproduce the case exactly. *)

open Tk_isa
open Tk_isa.Types

let scale =
  match Sys.getenv_opt "TK_FUZZ_SCALE" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let base_seed = 0x15a90

(* ------------------------ shared generators -------------------------- *)

let rnd = Random.State.int
let flip = Random.State.bool
let reg st = rnd st 16
let gcond st = cond_of_int (rnd st 15)
let msize st = mem_size_of_int (rnd st 3)
let skind st = shift_kind_of_int (rnd st 4)
let imm16 st = rnd st 0x10000

let word32 st = rnd st 0x10000 lor (rnd st 0x10000 lsl 16)

let idx3 st = match rnd st 3 with 0 -> Offset | 1 -> Pre | _ -> Post

(* branch offsets: word-aligned, signed 23-bit word offset *)
let branch_off st = (rnd st (1 lsl 23) - (1 lsl 22)) * 4

(* reg lists round-trip through a 16-bit mask: sorted, unique *)
let reglist st =
  let mask = rnd st 0x10000 in
  List.filter (fun r -> mask land (1 lsl r) <> 0) (List.init 16 Fun.id)

(* ------------------------------ V7A ---------------------------------- *)

(* any 8-bit value rotated right by an even amount is encodable *)
let imm_v7a st = Bits.ror32 (rnd st 256) (2 * rnd st 16)

let operand2_v7a st =
  match rnd st 4 with
  | 0 -> Imm (imm_v7a st)
  | 1 -> Reg (reg st)
  | 2 ->
    (* LSL #0 is canonicalized to a bare Reg by decode *)
    let k = skind st and a = rnd st 32 in
    if k = LSL && a = 0 then Reg (reg st) else Sreg (reg st, k, a)
  | _ -> Sregreg (reg st, skind st, reg st)

let misc_v7a st =
  match rnd st 16 with
  | 0 -> Mul (flip st, reg st, reg st, reg st)
  | 1 -> Mla (reg st, reg st, reg st, reg st)
  | 2 -> Udiv (reg st, reg st, reg st)
  | 3 -> Clz (reg st, reg st)
  | 4 -> Sxt (msize st, reg st, reg st)
  | 5 -> Uxt (msize st, reg st, reg st)
  | 6 -> Rev (reg st, reg st)
  | 7 -> Mrs (reg st)
  | 8 -> Msr (reg st)
  | 9 -> Svc (imm16 st)
  | 10 -> Wfi
  | 11 -> Cps (flip st)
  | 12 -> Irq_ret
  | 13 -> Swp (reg st, reg st, reg st)
  | 14 -> Nop
  | _ -> Udf (imm16 st)

let gen_v7a st : inst =
  let op =
    match rnd st 24 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
      Dp (dp_op_of_int (rnd st 16), flip st, reg st, reg st, operand2_v7a st)
    | 6 | 7 | 8 ->
      Mem
        { ld = flip st; size = msize st; rt = reg st; rn = reg st;
          idx = idx3 st; off = Oimm (rnd st 4095 - 2047) }
    | 9 | 10 ->
      Mem
        { ld = flip st; size = msize st; rt = reg st; rn = reg st;
          idx = idx3 st; off = Oreg (reg st, skind st, rnd st 32) }
    | 11 ->
      if flip st then Ldm (reg st, flip st, reglist st)
      else Stm (reg st, flip st, reglist st)
    | 12 -> B (branch_off st)
    | 13 -> Bl (branch_off st)
    | 14 -> if flip st then Bx (reg st) else Blx_r (reg st)
    | 15 -> Movw (reg st, imm16 st)
    | 16 -> Movt (reg st, imm16 st)
    | _ -> misc_v7a st
  in
  { cond = gcond st; op }

(* ------------------------------ V7M ---------------------------------- *)

(* the four Thumb-2 modified-immediate families *)
let imm_v7m st =
  match rnd st 5 with
  | 0 -> rnd st 256
  | 1 ->
    let b = 1 + rnd st 255 in
    b lor (b lsl 16)
  | 2 ->
    let b = 1 + rnd st 255 in
    (b lsl 8) lor (b lsl 24)
  | 3 ->
    let b = 1 + rnd st 255 in
    b lor (b lsl 8) lor (b lsl 16) lor (b lsl 24)
  | _ -> Bits.ror32 (0x80 lor rnd st 128) (8 + rnd st 24)

(* RSC has no V7M encoding *)
let rec dp_op_v7m st =
  let o = dp_op_of_int (rnd st 16) in
  if o = RSC then dp_op_v7m st else o

let dp_v7m st =
  match rnd st 6 with
  | 0 | 1 -> Dp (dp_op_v7m st, flip st, reg st, reg st, Imm (imm_v7m st))
  | 2 -> Dp (dp_op_v7m st, flip st, reg st, reg st, Reg (reg st))
  | 3 | 4 ->
    let k = skind st and a = rnd st 32 in
    let op2 =
      if k = LSL && a = 0 then Reg (reg st) else Sreg (reg st, k, a)
    in
    Dp (dp_op_v7m st, flip st, reg st, reg st, op2)
  | _ ->
    (* register-shift appears only as a bare move *)
    Dp (MOV, flip st, reg st, reg st, Sregreg (reg st, skind st, reg st))

let misc_v7m st =
  match rnd st 14 with
  | 0 -> Mul (flip st, reg st, reg st, reg st)
  | 1 -> Mla (reg st, reg st, reg st, reg st)
  | 2 -> Udiv (reg st, reg st, reg st)
  | 3 -> Clz (reg st, reg st)
  | 4 -> Sxt (msize st, reg st, reg st)
  | 5 -> Uxt (msize st, reg st, reg st)
  | 6 -> Rev (reg st, reg st)
  | 7 -> Mrs (reg st)
  | 8 -> Msr (reg st)
  | 9 -> Svc (imm16 st)
  | 10 -> Wfi
  | 11 -> Cps (flip st)
  | 12 -> Nop
  | _ -> Udf (imm16 st)

let gen_v7m st : inst =
  let op =
    match rnd st 24 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> dp_v7m st
    | 6 | 7 | 8 ->
      (* immediate offsets: [-255, 4095] plain, |o| <= 255 writeback *)
      let idx = idx3 st in
      let o =
        match idx with
        | Offset -> rnd st (4095 + 256) - 255
        | Pre | Post -> rnd st 511 - 255
      in
      Mem
        { ld = flip st; size = msize st; rt = reg st; rn = reg st; idx;
          off = Oimm o }
    | 9 | 10 ->
      (* register offsets: no writeback, LSL #0..3 only *)
      Mem
        { ld = flip st; size = msize st; rt = reg st; rn = reg st;
          idx = Offset; off = Oreg (reg st, LSL, rnd st 4) }
    | 11 ->
      if flip st then Ldm (reg st, flip st, reglist st)
      else Stm (reg st, flip st, reglist st)
    | 12 -> B (branch_off st)
    | 13 -> Bl (branch_off st)
    | 14 -> if flip st then Bx (reg st) else Blx_r (reg st)
    | 15 -> Movw (reg st, imm16 st)
    | 16 -> Movt (reg st, imm16 st)
    | _ -> misc_v7m st
  in
  { cond = gcond st; op }

(* ---------------------------- properties ----------------------------- *)

let roundtrip name encode decode decode_total gen iters () =
  let st = Random.State.make [| base_seed |] in
  for i = 1 to iters do
    let inst = gen st in
    match encode inst with
    | Error e ->
      Alcotest.failf "%s round-trip #%d (seed 0x%x): unencodable %s (%s)"
        name i base_seed (to_string inst) e
    | Ok w ->
      let inst' = decode w in
      if inst' <> inst then
        Alcotest.failf "%s round-trip #%d (seed 0x%x): %s -> 0x%08x -> %s"
          name i base_seed (to_string inst) w (to_string inst');
      if decode_total w <> inst then
        Alcotest.failf
          "%s round-trip #%d (seed 0x%x): decode_total disagrees with \
           decode on 0x%08x"
          name i base_seed w
  done

let totality name decode_total iters () =
  let st = Random.State.make [| base_seed + 7 |] in
  for i = 1 to iters do
    let w = word32 st in
    match decode_total w with
    | (_ : inst) -> ()
    | exception e ->
      Alcotest.failf "%s decode_total #%d (seed 0x%x) raised on 0x%08x: %s"
        name i (base_seed + 7) w (Printexc.to_string e)
  done

(* hand-picked malformed words: decode raises, decode_total yields Udf *)
let total_edges () =
  let check name decode decode_total w =
    (match decode w with
    | i ->
      Alcotest.failf "%s: expected decode to reject 0x%08x, got %s" name w
        (to_string i)
    | exception _ -> ());
    match decode_total w with
    | { op = Udf _; _ } -> ()
    | i ->
      Alcotest.failf "%s: expected Udf from decode_total 0x%08x, got %s" name
        w (to_string i)
  in
  (* cond nibble 15 is reserved in both ISAs *)
  check "v7a" V7a.decode V7a.decode_total 0xF0000000;
  check "v7m" V7m.decode V7m.decode_total 0xF0000000;
  (* V7A class 6 sub-ops 16..31 are unallocated *)
  check "v7a" V7a.decode V7a.decode_total ((6 lsl 25) lor (17 lsl 20));
  (* V7M class 3 has no sub-ops 12 (SWP) or 13 *)
  check "v7m" V7m.decode V7m.decode_total ((3 lsl 25) lor (12 lsl 20));
  check "v7m" V7m.decode V7m.decode_total ((3 lsl 25) lor (13 lsl 20))

(* ----------------------- compiled = step ----------------------------- *)

(* Every effect an instruction has beyond registers, flags and IRQ
   enable goes through its environment; this one logs each call in
   order. Loads read a fixed function of (address, size), so two runs
   from one state see the same memory. *)
type call =
  | Load of int * int
  | Store of int * int * int
  | Svc_call of int
  | Wfi_call
  | Irq_ret_call
  | Undef_call of inst

let recording_env () =
  let log = ref [] in
  let push c = log := c :: !log in
  let env =
    { Exec.load =
        (fun a nb ->
          push (Load (a, nb));
          ((a * 0x9E3779B1) lxor (a lsr 7)) land ((1 lsl (8 * nb)) - 1));
      store = (fun a nb v -> push (Store (a, nb, v)));
      svc = (fun _ n -> push (Svc_call n));
      wfi = (fun _ -> push Wfi_call);
      irq_ret = (fun _ -> push Irq_ret_call);
      undef = (fun _ i -> push (Undef_call i)) }
  in
  env, log

(* register values biased toward the carry/overflow edges *)
let reg_value st =
  match rnd st 8 with
  | 0 -> 0
  | 1 -> 0xFFFFFFFF
  | 2 -> 0x7FFFFFFF
  | 3 -> 0x80000000
  | 4 -> rnd st 256
  | _ -> word32 st

(* run [inst] both ways from one random state; [None] if they agree *)
let compiled_vs_step st inst =
  let addr = word32 st land lnot 3 in
  let a = Exec.make_cpu () in
  Array.iteri (fun i _ -> a.Exec.r.(i) <- reg_value st) a.Exec.r;
  a.Exec.r.(pc) <- addr;
  a.Exec.n <- flip st; a.Exec.z <- flip st; a.Exec.c <- flip st;
  a.Exec.v <- flip st; a.Exec.irq_on <- flip st;
  let b = Exec.make_cpu () in
  Exec.copy_into a b;
  let env_a, log_a = recording_env () and env_b, log_b = recording_env () in
  let out_a = Exec.step a env_a ~addr inst in
  let out_b = (Exec.decoded inst).Exec.run b env_b addr in
  let differs what x y = if x <> y then Some what else None in
  List.find_map Fun.id
    [ differs "outcome" out_a out_b;
      List.find_map
        (fun i ->
          differs (Printf.sprintf "r%d" i) a.Exec.r.(i) b.Exec.r.(i))
        (List.init 16 Fun.id);
      differs "flags" (Exec.flags_word a) (Exec.flags_word b);
      differs "irq_on" a.Exec.irq_on b.Exec.irq_on;
      differs "env calls" !log_a !log_b ]
  |> Option.map (fun what -> Printf.sprintf "0x%x: %s" addr what)

let check_compiled label seed i st inst =
  match compiled_vs_step st inst with
  | None -> ()
  | Some why ->
    Alcotest.failf "%s #%d (seed 0x%x): compiled %s disagrees with step at %s"
      label i seed (to_string inst) why

let compiled_random name gen iters () =
  let seed = base_seed + 11 in
  let st = Random.State.make [| seed |] in
  for i = 1 to iters do
    check_compiled name seed i st (gen st)
  done

(* The shapes [Exec.compile] specialises, as functions of the S bit and
   their register slots (rd/rt first). Operand values other than
   registers are drawn per case. *)
let specialised_shapes : (string * int * (Random.State.t -> bool -> reg array -> op)) list =
  let mem ld idx st regs off =
    Mem { ld; size = msize st; rt = regs.(0); rn = regs.(1); off; idx }
  in
  let dp o op2 s regs = Dp (o, s, regs.(0), regs.(1), op2 regs) in
  let imm st _ = Imm (reg_value st) in
  [ ("ldr #imm", 2, fun st _ r -> mem true Offset st r (Oimm (rnd st 4095 - 2047)));
    ("str #imm", 2, fun st _ r -> mem false Offset st r (Oimm (rnd st 4095 - 2047)));
    ("str #imm post", 2, fun st _ r -> mem false Post st r (Oimm (rnd st 511 - 255)));
    ("ldr reg lsl", 3, fun st _ r -> mem true Offset st r (Oreg (r.(2), LSL, rnd st 32)));
    ("str reg lsl", 3, fun st _ r -> mem false Offset st r (Oreg (r.(2), LSL, rnd st 32)));
    ("mov #imm", 2, fun st -> dp MOV (imm st));
    ("add #imm", 2, fun st -> dp ADD (imm st));
    ("sub #imm", 2, fun st -> dp SUB (imm st));
    ("and #imm", 2, fun st -> dp AND (imm st));
    ("cmp #imm", 2, fun st -> dp CMP (imm st));
    ("add reg", 3, fun _ -> dp ADD (fun r -> Reg r.(2)));
    ("cmp reg", 3, fun _ -> dp CMP (fun r -> Reg r.(2)));
    ("eor reg lsr", 3, fun st -> dp EOR (fun r -> Sreg (r.(2), LSR, rnd st 32)));
    ("msr", 1, fun _ _ r -> Msr r.(0));
    ("mrs", 1, fun _ _ r -> Mrs r.(0));
    ("b", 0, fun st _ _ -> B (branch_off st)) ]

let compiled_shapes () =
  let seed = base_seed + 13 in
  let st = Random.State.make [| seed |] in
  let i = ref 0 in
  List.iter
    (fun (name, slots, shape) ->
      for c = 0 to 14 do
        List.iter
          (fun s ->
            (* [pc_slot = slots]: no pc operand *)
            for pc_slot = 0 to slots do
              for _ = 1 to 4 * scale do
                incr i;
                let regs =
                  Array.init slots (fun k -> if k = pc_slot then pc else rnd st 15)
                in
                let inst = { cond = cond_of_int c; op = shape st s regs } in
                check_compiled name seed !i st inst
              done
            done)
          [ false; true ]
      done)
    specialised_shapes

let n = 10_000 * scale

let () =
  Alcotest.run "isa-prop"
    [ ( "round-trip",
        [ Alcotest.test_case "v7a decode (encode i) = i" `Quick
            (roundtrip "v7a" V7a.encode V7a.decode V7a.decode_total gen_v7a n);
          Alcotest.test_case "v7m decode (encode i) = i" `Quick
            (roundtrip "v7m" V7m.encode V7m.decode V7m.decode_total gen_v7m n)
        ] );
      ( "totality",
        [ Alcotest.test_case "v7a decode_total never raises" `Quick
            (totality "v7a" V7a.decode_total n);
          Alcotest.test_case "v7m decode_total never raises" `Quick
            (totality "v7m" V7m.decode_total n);
          Alcotest.test_case "malformed words become Udf" `Quick total_edges
        ] );
      ( "compiled = step",
        [ Alcotest.test_case "random v7a instructions" `Quick
            (compiled_random "v7a" gen_v7a n);
          Alcotest.test_case "random v7m instructions" `Quick
            (compiled_random "v7m" gen_v7m n);
          Alcotest.test_case "specialised shapes x cond x S x pc slot" `Quick
            compiled_shapes ] ) ]
