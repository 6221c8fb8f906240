(** Whole-image abstract interpretation for SMC-clean region proof.

    A report for [arksim analyze]: which kernel code can never write
    into the image's code section, the only place translated guest
    words live? Most kernel code only writes its data section, the
    stack, the page pool or MMIO. A light abstract interpretation over
    the recovered {!Cfg} classifies every store's target and marks a
    guest {e word} SMC-clean when its instruction cannot write into the
    code section (functions also get an aggregate verdict). The merged
    ranges of clean words are reported, and every finding is Info.
    Nothing at run time consumes them: the superblock engine probes
    every image-window store against its cover map.

    Abstract domain, deliberately minimal (registers only, one basic
    block at a time, no widening needed because there are no loops
    inside a block):

    {ul
    {- [Const v] — the register holds the literal [v]
       ([movw]/[movt]/[mov #imm] chains and [+-] on constants);}
    {- [SpRel k] — stack-derived: [sp_entry + k]. Trusted only while
       every SP write in the function is a push/pop or [sp +- #imm]
       (the same discipline {!Image_lint.stack_delta} bounds);}
    {- [Top] — anything else.}}

    Store targets classify as stack, image code, image data, other RAM,
    MMIO, or unknown; only {e code} and {e unknown} make a function
    unclean. Per-function stack displacement falls out of the [SpRel]
    tracking for free and is reported as the deepest static frame. *)

open Tk_isa
open Tk_isa.Types
module Soc = Tk_machine.Soc

type aval = Top | Const of int | SpRel of int

type store_class =
  | C_stack  (** SP-relative, SP-discipline intact *)
  | C_code  (** inside the image's code section: SMC evidence *)
  | C_image_data  (** image window, past the code section *)
  | C_ram  (** RAM outside the probe window (pool, env, stacks) *)
  | C_mmio  (** device/GIC register space *)
  | C_unknown  (** target not provable *)

let class_name = function
  | C_stack -> "stack"
  | C_code -> "code"
  | C_image_data -> "image-data"
  | C_ram -> "ram"
  | C_mmio -> "mmio"
  | C_unknown -> "unknown"

(* ------------------------ transfer function -------------------------- *)

let v_add a b =
  match (a, b) with
  | Const x, Const y -> Const (Bits.mask32 (x + y))
  | SpRel x, Const y | Const y, SpRel x -> SpRel (x + y)
  | _ -> Top

let v_sub a b =
  match (a, b) with
  | Const x, Const y -> Const (Bits.mask32 (x - y))
  | SpRel x, Const y -> SpRel (x - y)
  | _ -> Top

let eval_op2 (st : aval array) = function
  | Imm v -> Const v
  | Reg r -> st.(r)
  | Sreg _ | Sregreg _ -> Top

(* register effects of one instruction (stores are classified
   separately). Conditional writes join with the unknown not-taken arm,
   i.e. go straight to Top. *)
let transfer (st : aval array) (i : inst) =
  let wr r v = st.(r) <- (if i.cond = AL then v else Top) in
  (match i.op with
  | Movw (rd, v) -> wr rd (Const v)
  | Movt (rd, v) ->
    wr rd
      (match st.(rd) with
      | Const c -> Const (Bits.mask32 ((v lsl 16) lor (c land 0xFFFF)))
      | _ -> Top)
  | Dp (MOV, false, rd, _, op2) -> wr rd (eval_op2 st op2)
  | Dp (ADD, false, rd, rn, op2) -> wr rd (v_add st.(rn) (eval_op2 st op2))
  | Dp (SUB, false, rd, rn, op2) -> wr rd (v_sub st.(rn) (eval_op2 st op2))
  | Mem { ld; rt; rn; off = Oimm k; idx = Pre | Post; _ } ->
    if ld then wr rt Top;
    wr rn (v_add st.(rn) (Const k))
  | Ldm (rn, wb, regs) ->
    List.iter (fun r -> wr r Top) regs;
    if wb then wr rn (v_add st.(rn) (Const (4 * List.length regs)))
  | Stm (rn, wb, regs) ->
    if wb then wr rn (v_sub st.(rn) (Const (4 * List.length regs)))
  | _ -> List.iter (fun r -> wr r Top) (regs_written i))

(* --------------------------- store targets --------------------------- *)

(* the [lo, hi) byte spans one instruction may store to, or None for
   unbounded; evaluated BEFORE the transfer (pre-state addresses) *)
let store_spans (st : aval array) (i : inst) =
  let of_base base span =
    match base with
    | SpRel _ -> Some (`Stack)
    | Const c -> Some (`Span (span c))
    | Top -> Some `Unknown
  in
  match i.op with
  | Mem { ld = false; size; rn; off; idx; _ } -> (
    let nbytes = bytes_of_mem_size size in
    match off, idx with
    | Oimm k, (Offset | Pre) -> of_base st.(rn) (fun c -> (c + k, c + k + nbytes))
    | Oimm _, Post -> of_base st.(rn) (fun c -> (c, c + nbytes))
    | Oreg _, _ -> Some `Unknown)
  | Stm (rn, _, regs) ->
    (* decrement-before: words land just below the base *)
    let n = 4 * List.length regs in
    of_base st.(rn) (fun c -> (c - n, c))
  | Swp (_, _, rn) -> of_base st.(rn) (fun c -> (c, c + 4))
  | _ -> None

let classify_span (image : Asm.image) (lo, hi) =
  let code_lo = image.Asm.base and code_hi = image.Asm.base + image.Asm.code_size in
  if hi <= lo then C_unknown
  else if lo < code_hi && hi > code_lo then C_code
  else if lo >= Soc.kernel_base && hi <= Soc.page_pool_base then C_image_data
  else if lo >= Soc.ram_base && hi <= Soc.code_cache_base + Soc.code_cache_size
  then C_ram
  else if lo >= Soc.cpu_timer_base then C_mmio
  else C_unknown

(* --------------------------- the analysis ---------------------------- *)

type fverdict = {
  v_name : string;
  v_entry : int;
  v_size : int;  (** code bytes, [\[v_entry, v_entry + v_size)] *)
  v_stores : int;
  v_clean : bool;  (** no store can reach the image's code section *)
  v_frame : int;  (** deepest static SP displacement seen (bytes) *)
  v_first_unclean : string option;  (** site + disassembly, for findings *)
}

type report = {
  a_funcs : fverdict list;  (** address order *)
  a_clean : int;
  a_hist : (string * int) list;  (** store-target histogram, whole image *)
  a_clean_ranges : (int * int) list;
      (** merged [\[lo, hi)] guest ranges of clean {e words}.
          Word-granular, not function-granular: a word is clean iff its
          instruction either performs no store or its store target is
          provably outside the code section, so one pointer-chased store
          only disqualifies its own word, not its whole function. *)
  a_max_frame : int;
  findings : Finding.t list;
}

(* is the function's SP discipline bounded pushes/pops only? reuse the
   lint pass's delta classifier so the two agree on what "disciplined"
   means *)
let sp_trusted (t : Cfg.t) (f : Cfg.func) =
  List.for_all
    (fun (b : Cfg.block) ->
      List.for_all
        (fun (_addr, i) -> Image_lint.stack_delta i <> None)
        b.Cfg.b_insts)
    (Cfg.func_blocks t f)

(** [analyze t] — classify every store in every function, produce
    per-function SMC-clean verdicts and the merged clean-range list. *)
let analyze (t : Cfg.t) : report =
  let image = t.Cfg.image in
  let hist = Hashtbl.create 8 in
  let bump cls =
    Hashtbl.replace hist cls
      (1 + Option.value ~default:0 (Hashtbl.find_opt hist cls))
  in
  let findings = ref [] in
  (* per-word cleanliness over the code section, default unclean: data
     slots and words outside any known function are never clean.
     A word's abstract pre-state is sound for every execution because a
     basic block is single-entry and the engine only begins translation
     blocks at CFG leaders (call/jump targets, return sites) — a
     block-limit split continuation is still only reachable by falling
     through the words above it. *)
  let wclean = Array.make (image.Asm.code_size / 4) false in
  let funcs =
    List.map
      (fun (f : Cfg.func) ->
        let trusted = sp_trusted t f in
        let stores = ref 0 and clean = ref true and frame = ref 0 in
        let first_unclean = ref None in
        List.iter
          (fun (b : Cfg.block) ->
            let st = Array.make 16 Top in
            st.(13) <- SpRel 0;
            List.iter
              (fun (addr, i) ->
                (match store_spans st i with
                | None -> wclean.((addr - image.Asm.base) asr 2) <- true
                | Some target ->
                  incr stores;
                  let cls =
                    match target with
                    | `Stack -> if trusted then C_stack else C_unknown
                    | `Unknown -> C_unknown
                    | `Span span -> classify_span image span
                  in
                  bump cls;
                  if cls = C_code || cls = C_unknown then begin
                    clean := false;
                    if !first_unclean = None then
                      first_unclean :=
                        Some
                          (Printf.sprintf "%s: `%s' -> %s"
                             (Asm.nearest_symbol image addr)
                             (to_string i) (class_name cls))
                  end
                  else wclean.((addr - image.Asm.base) asr 2) <- true);
                transfer st i;
                (match st.(13) with
                | SpRel k when -k > !frame -> frame := -k
                | _ -> ()))
              b.Cfg.b_insts)
          (Cfg.func_blocks t f);
        { v_name = f.Cfg.f_name;
          v_entry = f.Cfg.f_entry;
          v_size = f.Cfg.f_size;
          v_stores = !stores;
          v_clean = !clean;
          v_frame = !frame;
          v_first_unclean = !first_unclean })
      t.Cfg.funcs
  in
  List.iter
    (fun v ->
      match v.v_first_unclean with
      | Some site when not v.v_clean ->
        findings :=
          Finding.v ~pass:"absint" ~severity:Finding.Info ~code:"smc-unclean"
            ~where:v.v_name
            (Printf.sprintf
               "%d store(s) not provably outside translated code; first: %s"
               v.v_stores site)
          :: !findings
      | _ -> ())
    funcs;
  (* merge runs of clean words into maximal [lo, hi) ranges *)
  let ranges = ref [] and run_lo = ref None in
  let flush_run hi_k =
    match !run_lo with
    | Some lo_k ->
      ranges :=
        (image.Asm.base + (4 * lo_k), image.Asm.base + (4 * hi_k)) :: !ranges;
      run_lo := None
    | None -> ()
  in
  Array.iteri
    (fun k c ->
      if c then (if !run_lo = None then run_lo := Some k)
      else flush_run k)
    wclean;
  flush_run (Array.length wclean);
  let ranges = List.rev !ranges in
  let hist =
    List.sort compare (Hashtbl.fold (fun k v acc -> (class_name k, v) :: acc) hist [])
  in
  { a_funcs = funcs;
    a_clean = List.length (List.filter (fun v -> v.v_clean) funcs);
    a_hist = hist;
    a_clean_ranges = ranges;
    a_max_frame = List.fold_left (fun m v -> max m v.v_frame) 0 funcs;
    findings = List.rev !findings }

(** [clean_words r] — guest words covered by the clean ranges. *)
let clean_words (r : report) =
  List.fold_left (fun acc (lo, hi) -> acc + ((hi - lo) / 4)) 0 r.a_clean_ranges

(** [print_report r] — the SMC-clean summary ([arksim analyze
    --absint]). *)
let print_report (r : report) =
  Tk_stats.Report.kv "SMC-clean abstract interpretation"
    [ ("functions", string_of_int (List.length r.a_funcs));
      ("SMC-clean functions", string_of_int r.a_clean);
      ("clean ranges", string_of_int (List.length r.a_clean_ranges));
      ("clean guest words", string_of_int (clean_words r));
      ("deepest static frame (bytes)", string_of_int r.a_max_frame) ];
  Tk_stats.Report.table ~title:"store-target classification"
    ~aligns:[ Tk_stats.Report.L; Tk_stats.Report.R ]
    ~header:[ "target"; "stores" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) r.a_hist)
