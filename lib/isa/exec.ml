(** Single-instruction semantics, shared by both ISAs.

    V7A and V7M implement the same semantics in different encodings, so
    one executor serves both the simulated Cortex-A9 (decoding {!V7a}
    words — "native execution") and the simulated Cortex-M3 (decoding
    {!V7m} words out of the DBT code cache). The equivalence of the two
    paths is what the differential property tests check.

    Conventions (documented simplifications vs architectural ARM):
    {ul
    {- reads of PC (r15) yield [instruction address + 8] (A32 style);}
    {- an [Imm] or plain [Reg] operand2 leaves the carry flag unchanged
       (we do not model the encoder's rotation carry-out);}
    {- shift amounts are taken literally (no "LSR #0 means 32").}} *)

open Types

(** Architectural state of one core: 16 registers, NZCV flags, IRQ enable.
    Values are 32-bit-masked OCaml ints. *)
type cpu = {
  r : int array;
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable irq_on : bool;
  mutable branched : bool;
      (** scratch used by {!step} to record a PC write without
          allocating a per-instruction ref cell; only meaningful while
          a [step] call is in flight *)
}

let make_cpu () =
  { r = Array.make 16 0; n = false; z = false; c = false; v = false;
    irq_on = false; branched = false }

(** [copy_into src dst] copies all architectural state. *)
let copy_into src dst =
  Array.blit src.r 0 dst.r 0 16;
  dst.n <- src.n; dst.z <- src.z; dst.c <- src.c; dst.v <- src.v;
  dst.irq_on <- src.irq_on

(** [flags_word cpu] packs NZCV into bits 31:28 (MRS view). *)
let flags_word cpu =
  (Bool.to_int cpu.n lsl 31) lor (Bool.to_int cpu.z lsl 30)
  lor (Bool.to_int cpu.c lsl 29) lor (Bool.to_int cpu.v lsl 28)

(** [set_flags_word cpu w] unpacks bits 31:28 into NZCV (MSR view). *)
let set_flags_word cpu w =
  cpu.n <- Bits.bit w 31; cpu.z <- Bits.bit w 30;
  cpu.c <- Bits.bit w 29; cpu.v <- Bits.bit w 28

(** Environment an instruction executes against: memory plus the traps
    that escape pure data flow. The owner (core interpreter or DBT
    engine) decides what those mean. *)
type env = {
  load : int -> int -> int;  (** [load addr nbytes], zero-extended *)
  store : int -> int -> int -> unit;  (** [store addr nbytes value] *)
  svc : cpu -> int -> unit;
  wfi : cpu -> unit;
  irq_ret : cpu -> unit;
  undef : cpu -> inst -> unit;  (** UDF or unimplementable op *)
}

(** [cond_holds cpu c] evaluates condition [c] against the flags. *)
let cond_holds cpu = function
  | AL -> true
  | EQ -> cpu.z
  | NE -> not cpu.z
  | CS -> cpu.c
  | CC -> not cpu.c
  | MI -> cpu.n
  | PL -> not cpu.n
  | VS -> cpu.v
  | VC -> not cpu.v
  | HI -> cpu.c && not cpu.z
  | LS -> (not cpu.c) || cpu.z
  | GE -> cpu.n = cpu.v
  | LT -> cpu.n <> cpu.v
  | GT -> (not cpu.z) && cpu.n = cpu.v
  | LE -> cpu.z || cpu.n <> cpu.v

(* [shift_value] split into a value half and a carry half so the hot
   paths (which usually need only one of the two) stay tuple-free *)
let shift_res kind v amt =
  let v = Bits.mask32 v in
  match kind, amt with
  | _, 0 -> v
  | LSL, a when a < 32 -> Bits.mask32 (v lsl a)
  | LSL, _ -> 0
  | LSR, a when a < 32 -> v lsr a
  | LSR, _ -> 0
  | ASR, a when a < 32 -> Bits.mask32 (Bits.s32 v asr a)
  | ASR, _ -> if Bits.bit v 31 then 0xFFFFFFFF else 0
  | ROR, a -> Bits.ror32 v (a land 31)

let shift_carry kind v amt carry_in =
  let v = Bits.mask32 v in
  match kind, amt with
  | _, 0 -> carry_in
  | LSL, a when a < 32 -> Bits.bit v (32 - a)
  | LSL, _ -> false
  | LSR, a when a < 32 -> Bits.bit v (a - 1)
  | LSR, _ -> false
  | ASR, a when a < 32 -> Bits.bit v (a - 1)
  | ASR, _ -> Bits.bit v 31
  | ROR, a -> Bits.bit (Bits.ror32 v (a land 31)) 31

let shift_value kind v amt carry_in =
  shift_res kind v amt, shift_carry kind v amt carry_in

(** Result of executing one instruction: did it write the PC? *)
type outcome = Next | Branched

(* Register access for [step]. Top-level (rather than closures inside
   [step]) so that the non-flambda compiler emits zero allocations per
   executed instruction — this loop is the simulator's hottest path.
   Register numbers are 4-bit decode fields (both decoders mask them to
   0..15), so the accesses skip the bounds check. [rset] records a PC
   write in [cpu.branched]. *)
let rget cpu addr r =
  if r = pc then Bits.mask32 (addr + 8) else Array.unsafe_get cpu.r r

let rset cpu r v =
  if r = pc then begin
    Array.unsafe_set cpu.r pc (Bits.mask32 v land lnot 1);
    cpu.branched <- true
  end
  else Array.unsafe_set cpu.r r (Bits.mask32 v)

let dp_logical cpu s shc res =
  if s then begin
    cpu.n <- Bits.bit res 31; cpu.z <- res = 0; cpu.c <- shc
  end;
  res

(* TST/TEQ (like CMP/CMN) always set flags; they have no S bit *)
let dp_flags cpu shc res =
  cpu.n <- Bits.bit res 31;
  cpu.z <- res = 0;
  cpu.c <- shc

let dp_arith cpu ~s ~sub ~rev ~carry rnv op2v =
  let a = if rev then op2v else rnv in
  let b = if rev then rnv else op2v in
  let b' = if sub then Bits.mask32 (lnot b) else b in
  let cin = Bool.to_int carry in
  let full = a + b' + cin in
  let res = Bits.mask32 full in
  if s then begin
    cpu.n <- Bits.bit res 31;
    cpu.z <- res = 0;
    cpu.c <- full > 0xFFFFFFFF;
    let sa = Bits.bit a 31 and sb = Bits.bit b' 31 and sr = Bits.bit res 31 in
    cpu.v <- sa = sb && sa <> sr
  end;
  res

(** [step cpu env ~addr inst] executes [inst] located at [addr]. Returns
    {!Branched} iff the instruction wrote PC (the caller otherwise
    advances PC by 4). All register/flag effects are applied to [cpu]. *)
let step cpu env ~addr ({ cond; op } as inst) : outcome =
  if not (cond_holds cpu cond) then Next
  else begin
    cpu.branched <- false;
    (match op with
    | Dp (o, s, rd, rn, op2) ->
      (* value and shifter-carry are computed separately (both reads are
         pure) so the common Imm/Reg operands never build a pair *)
      let op2v =
        match op2 with
        | Imm v -> Bits.mask32 v
        | Reg r -> rget cpu addr r
        | Sreg (r, k, a) -> shift_res k (rget cpu addr r) a
        | Sregreg (r, k, rs) ->
          shift_res k (rget cpu addr r) (rget cpu addr rs land 0xFF)
      in
      let shc =
        match op2 with
        | Imm _ | Reg _ -> cpu.c
        | Sreg (r, k, a) -> shift_carry k (rget cpu addr r) a cpu.c
        | Sregreg (r, k, rs) ->
          shift_carry k (rget cpu addr r) (rget cpu addr rs land 0xFF) cpu.c
      in
      let rnv = rget cpu addr rn in
      (match o with
      | MOV -> rset cpu rd (dp_logical cpu s shc op2v)
      | MVN -> rset cpu rd (dp_logical cpu s shc (Bits.mask32 (lnot op2v)))
      | AND -> rset cpu rd (dp_logical cpu s shc (rnv land op2v))
      | ORR -> rset cpu rd (dp_logical cpu s shc (rnv lor op2v))
      | EOR -> rset cpu rd (dp_logical cpu s shc (rnv lxor op2v))
      | BIC -> rset cpu rd (dp_logical cpu s shc (rnv land lnot op2v))
      | TST -> dp_flags cpu shc (rnv land op2v)
      | TEQ -> dp_flags cpu shc (rnv lxor op2v)
      | ADD ->
        rset cpu rd (dp_arith cpu ~s ~sub:false ~rev:false ~carry:false rnv op2v)
      | ADC ->
        rset cpu rd (dp_arith cpu ~s ~sub:false ~rev:false ~carry:cpu.c rnv op2v)
      | SUB ->
        rset cpu rd (dp_arith cpu ~s ~sub:true ~rev:false ~carry:true rnv op2v)
      | SBC ->
        rset cpu rd (dp_arith cpu ~s ~sub:true ~rev:false ~carry:cpu.c rnv op2v)
      | RSB ->
        rset cpu rd (dp_arith cpu ~s ~sub:true ~rev:true ~carry:true rnv op2v)
      | RSC ->
        rset cpu rd (dp_arith cpu ~s ~sub:true ~rev:true ~carry:cpu.c rnv op2v)
      | CMP ->
        (* CMP/CMN always set flags regardless of the s bit *)
        let full = rnv + Bits.mask32 (lnot op2v) + 1 in
        let res = Bits.mask32 full in
        cpu.n <- Bits.bit res 31;
        cpu.z <- res = 0;
        cpu.c <- full > 0xFFFFFFFF;
        let sb = Bits.bit (Bits.mask32 (lnot op2v)) 31 in
        cpu.v <- Bits.bit rnv 31 = sb && Bits.bit rnv 31 <> Bits.bit res 31
      | CMN ->
        let full = rnv + op2v in
        let res = Bits.mask32 full in
        cpu.n <- Bits.bit res 31;
        cpu.z <- res = 0;
        cpu.c <- full > 0xFFFFFFFF;
        cpu.v <- Bits.bit rnv 31 = Bits.bit op2v 31
                 && Bits.bit rnv 31 <> Bits.bit res 31)
    | Movw (rd, i) -> rset cpu rd i
    | Movt (rd, i) -> rset cpu rd ((rget cpu addr rd land 0xFFFF) lor (i lsl 16))
    | Mul (s, rd, rn, rm) ->
      let res = Bits.mask32 (rget cpu addr rn * rget cpu addr rm) in
      if s then begin cpu.n <- Bits.bit res 31; cpu.z <- res = 0 end;
      rset cpu rd res
    | Mla (rd, rn, rm, ra) ->
      rset cpu rd
        ((rget cpu addr rn * rget cpu addr rm) + rget cpu addr ra)
    | Udiv (rd, rn, rm) ->
      let d = rget cpu addr rm in
      rset cpu rd (if d = 0 then 0 else rget cpu addr rn / d)
    | Mem { ld; size; rt; rn; off; idx } ->
      let offv =
        match off with
        | Oimm i -> i
        | Oreg (rm, k, a) -> shift_res k (rget cpu addr rm) a
      in
      let base = rget cpu addr rn in
      let addr_eff =
        match idx with
        | Offset | Pre -> Bits.mask32 (base + offv)
        | Post -> base
      in
      let nb = bytes_of_mem_size size in
      if ld then begin
        let v = env.load addr_eff nb in
        (* writeback first so a loaded rt = rn wins *)
        (match idx with
        | Pre -> rset cpu rn (base + offv)
        | Post -> rset cpu rn (base + offv)
        | Offset -> ());
        rset cpu rt v
      end
      else begin
        let vmask = (1 lsl (nb * 8)) - 1 in
        env.store addr_eff nb (rget cpu addr rt land vmask);
        match idx with
        | Pre | Post -> rset cpu rn (base + offv)
        | Offset -> ()
      end
    | Ldm (rn, wb, regs) ->
      let base = rget cpu addr rn in
      (* writeback before the loaded values land, so a loaded rt = rn
         wins — same final state as load-all-then-set, without building
         an intermediate value list per instruction (loads still issue
         left to right, and none of them reads the register file) *)
      if wb then rset cpu rn (base + (4 * List.length regs));
      List.iteri
        (fun i r -> rset cpu r (env.load (Bits.mask32 (base + (4 * i))) 4))
        regs
    | Stm (rn, wb, regs) ->
      let base = rget cpu addr rn in
      let n = List.length regs in
      let start = Bits.mask32 (base - (4 * n)) in
      List.iteri
        (fun i r ->
          env.store (Bits.mask32 (start + (4 * i))) 4 (rget cpu addr r))
        regs;
      if wb then rset cpu rn start
    | B off -> rset cpu pc (addr + off)
    | Bl off ->
      rset cpu lr (addr + 4);
      rset cpu pc (addr + off)
    | Bx r -> rset cpu pc (rget cpu addr r)
    | Blx_r r ->
      let target = rget cpu addr r in
      rset cpu lr (addr + 4);
      rset cpu pc target
    | Clz (rd, rm) -> rset cpu rd (Bits.clz32 (rget cpu addr rm))
    | Sxt (sz, rd, rm) ->
      let v = rget cpu addr rm in
      rset cpu rd
        (match sz with
        | Byte -> Bits.mask32 (Bits.sext (v land 0xFF) 8)
        | Half -> Bits.mask32 (Bits.sext (v land 0xFFFF) 16)
        | Word -> v)
    | Uxt (sz, rd, rm) ->
      let v = rget cpu addr rm in
      rset cpu rd
        (match sz with Byte -> v land 0xFF | Half -> v land 0xFFFF | Word -> v)
    | Rev (rd, rm) ->
      let v = rget cpu addr rm in
      rset cpu rd
        (((v land 0xFF) lsl 24) lor ((v land 0xFF00) lsl 8)
        lor ((v lsr 8) land 0xFF00) lor ((v lsr 24) land 0xFF))
    | Mrs rd -> rset cpu rd (flags_word cpu)
    | Msr rs -> set_flags_word cpu (rget cpu addr rs)
    | Svc n -> env.svc cpu n
    | Wfi -> env.wfi cpu
    | Cps en -> cpu.irq_on <- en
    | Irq_ret -> env.irq_ret cpu; cpu.branched <- true
    | Swp (rd, rm, rn) ->
      let a = rget cpu addr rn in
      let old = env.load a 4 in
      env.store a 4 (rget cpu addr rm);
      rset cpu rd old
    | Nop -> ()
    | Udf _ -> env.undef cpu inst);
    if cpu.branched then Branched else Next
  end

(** An instruction compiled for repeated execution: [code cpu env addr]
    has exactly the effects and result of [step cpu env ~addr inst]. *)
type code = cpu -> env -> int -> outcome

(** [compile inst] resolves [inst]'s operands once and returns a closure
    that executes it. The shapes that make up most of what the kernel
    and its translations execute get a specialised closure with
    registers, immediate, shift, size, index mode and condition fixed.
    Every other shape runs {!step}, which stays the reference semantics;
    so does a hot shape with a pc operand, an S bit ([cmp] aside, which
    always sets flags) or, branches aside, a condition other than AL. *)
let compile ({ cond; op } as inst) : code =
  (* The specialised bodies repeat [step]'s arithmetic for their shape,
     masking and bit tests written inline: with cross-module inlining
     off, a [Bits] call per operation costs more than the operation.
     Register values are taken raw, as [rget] takes them, so results
     and flags match [step] bit for bit. *)
  let m = 0xFFFFFFFF in
  let via_step : code = fun cpu env addr -> step cpu env ~addr inst in
  match op with
  | B off ->
    if cond = AL then fun cpu _ addr ->
      Array.unsafe_set cpu.r pc ((addr + off) land 0xFFFFFFFE);
      Branched
    else fun cpu _ addr ->
      if cond_holds cpu cond then begin
        Array.unsafe_set cpu.r pc ((addr + off) land 0xFFFFFFFE);
        Branched
      end
      else Next
  | Mem { ld; size; rt; rn; off; idx }
    when cond = AL && rt <> pc && rn <> pc -> (
    let nb = bytes_of_mem_size size in
    let vmask = (1 lsl (nb * 8)) - 1 in
    match ld, off, idx with
    | true, Oimm o, Offset -> fun cpu env _ ->
      let r = cpu.r in
      Array.unsafe_set r rt
        (env.load ((Array.unsafe_get r rn + o) land m) nb land m);
      Next
    | false, Oimm o, Offset -> fun cpu env _ ->
      let r = cpu.r in
      env.store ((Array.unsafe_get r rn + o) land m) nb
        (Array.unsafe_get r rt land vmask);
      Next
    | false, Oimm o, Post -> fun cpu env _ ->
      let r = cpu.r in
      let base = Array.unsafe_get r rn in
      env.store base nb (Array.unsafe_get r rt land vmask);
      Array.unsafe_set r rn ((base + o) land m);
      Next
    | true, Oreg (rm, LSL, a), Offset when rm <> pc && a < 32 ->
      fun cpu env _ ->
      let r = cpu.r in
      let offv = (Array.unsafe_get r rm lsl a) land m in
      Array.unsafe_set r rt
        (env.load ((Array.unsafe_get r rn + offv) land m) nb land m);
      Next
    | false, Oreg (rm, LSL, a), Offset when rm <> pc && a < 32 ->
      fun cpu env _ ->
      let r = cpu.r in
      let offv = (Array.unsafe_get r rm lsl a) land m in
      env.store ((Array.unsafe_get r rn + offv) land m) nb
        (Array.unsafe_get r rt land vmask);
      Next
    | _ -> via_step)
  | Dp (o, s, rd, rn, op2)
    when cond = AL && rd <> pc && rn <> pc && (o = CMP || not s) -> (
    match o, op2 with
    | MOV, Imm v ->
      let v = v land m in
      fun cpu _ _ -> Array.unsafe_set cpu.r rd v; Next
    | ADD, Imm v ->
      let v = v land m in
      fun cpu _ _ ->
        let r = cpu.r in
        Array.unsafe_set r rd ((Array.unsafe_get r rn + v) land m);
        Next
    | SUB, Imm v ->
      let nv = lnot (v land m) land m in
      fun cpu _ _ ->
        let r = cpu.r in
        Array.unsafe_set r rd ((Array.unsafe_get r rn + nv + 1) land m);
        Next
    | AND, Imm v ->
      let v = v land m in
      fun cpu _ _ ->
        let r = cpu.r in
        Array.unsafe_set r rd (Array.unsafe_get r rn land v);
        Next
    | ADD, Reg rm when rm <> pc -> fun cpu _ _ ->
      let r = cpu.r in
      Array.unsafe_set r rd
        ((Array.unsafe_get r rn + Array.unsafe_get r rm) land m);
      Next
    | EOR, Sreg (rm, LSR, a) when rm <> pc && a < 32 -> fun cpu _ _ ->
      let r = cpu.r in
      Array.unsafe_set r rd
        ((Array.unsafe_get r rn lxor ((Array.unsafe_get r rm land m) lsr a))
        land m);
      Next
    | CMP, Imm v ->
      let nv = lnot (v land m) land m in
      let sb = nv lsr 31 = 1 in
      fun cpu _ _ ->
        let rnv = Array.unsafe_get cpu.r rn in
        let full = rnv + nv + 1 in
        let res = full land m in
        let sa = (rnv lsr 31) land 1 = 1 and sr = res lsr 31 = 1 in
        cpu.n <- sr;
        cpu.z <- res = 0;
        cpu.c <- full > m;
        cpu.v <- sa = sb && sa <> sr;
        Next
    | CMP, Reg rm when rm <> pc -> fun cpu _ _ ->
      let r = cpu.r in
      let rnv = Array.unsafe_get r rn in
      let nv = lnot (Array.unsafe_get r rm) land m in
      let full = rnv + nv + 1 in
      let res = full land m in
      let sa = (rnv lsr 31) land 1 = 1 and sb = nv lsr 31 = 1
      and sr = res lsr 31 = 1 in
      cpu.n <- sr;
      cpu.z <- res = 0;
      cpu.c <- full > m;
      cpu.v <- sa = sb && sa <> sr;
      Next
    | _ -> via_step)
  | Msr rs when cond = AL && rs <> pc -> fun cpu _ _ ->
    let w = Array.unsafe_get cpu.r rs in
    cpu.n <- (w lsr 31) land 1 = 1;
    cpu.z <- (w lsr 30) land 1 = 1;
    cpu.c <- (w lsr 29) land 1 = 1;
    cpu.v <- (w lsr 28) land 1 = 1;
    Next
  | Mrs rd when cond = AL && rd <> pc -> fun cpu _ _ ->
    Array.unsafe_set cpu.r rd (flags_word cpu);
    Next
  | _ -> via_step

(** A pre-decode slot: the instruction and its compiled form. *)
type decoded = { inst : inst; run : code }

let decoded inst = { inst; run = compile inst }

(** The one empty-slot marker of the pre-decode arrays, compared by
    physical equality ([==]); the loops decode a slot holding it instead
    of running it. *)
let undecoded = decoded { cond = AL; op = Udf (-1) }
