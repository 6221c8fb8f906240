(** Superblock (trace) formation for the IR-less DBT tier above [Ark].

    A superblock is the concatenation of a hot chain of translation
    blocks linked by always-taken terminals (AL direct jumps and
    fallthrough tails). The planner re-translates each constituent
    block, drops the interior terminal sites — so execution falls
    straight through block boundaries with no dispatch, no patching, no
    per-block probe — and keeps every side exit and the final terminal
    as ordinary engine sites, which the existing dispatcher chains and
    patches exactly as it does for plain blocks.

    On top of the concatenation the planner applies the register-caching
    transform: ARK emulates guest r10 in the env block
    ([Layout.env_r10]) because host r10 is the scratch register, so
    every r10-using guest instruction pays a
    materialize-env-base + load (and possibly store) wrap. Inside a
    trace whose guest code never touches r12 (the secondary dead
    register), guest r10 is re-homed into host r12 for the whole trace:
    one reload at the head, a spill before every engine site or trace
    exit while the slot is dirty, and a reload after every resumable
    site. Between those boundaries r10-using instructions run as single
    substituted host instructions.

    The result is pure data ({!plan}) — Marshal-safe, so
    {!Cache_store} persists plans alongside plain blocks for
    warm-starting. *)

open Tk_isa.Types

exception Abort of string
(** chain not formable (link mismatch, too short); the engine abandons
    formation and keeps executing the plain blocks *)

type plan = {
  p_head : int;  (** guest address of the chain head *)
  p_blocks : (int * int) list;
      (** constituent (guest start, guest count), head first *)
  p_guest_count : int;  (** total guest instructions covered *)
  p_cached_r10 : bool;  (** r10-in-r12 caching applied *)
  p_emits : Translator.emit list;  (** the woven trace body *)
}

(* ------------------------- chain formation --------------------------- *)

let max_blocks = 8

(* a block whose terminal is an always-taken direct transfer has a
   statically-known successor *)
let successor (b : Translator.block) =
  match List.rev b.Translator.b_emits with
  | Translator.E_site
      (AL, (Translator.S_tail { target } | Translator.S_jump { target }), _)
    :: _ ->
    Some target
  | _ -> None

let chain ~succ ~translated head =
  let rec walk acc cur len =
    if len >= max_blocks then List.rev acc
    else
      match succ cur with
      | Some next when translated next && not (List.mem next acc) ->
        walk (next :: acc) next (len + 1)
      | _ -> List.rev acc
  in
  walk [ head ] head 1

(* ------------------- r10-in-r12 caching sequences -------------------- *)

(* Both sequences are unconditional, flag-transparent, and clobber only
   host r10 — which holds no guest state between instructions in Ark
   mode (it is the amendment scratch; guest r10 lives in env_r10). *)

let env_slot ~ld =
  at
    (Mem
       { ld; size = Word; rt = Rules.scratch2; rn = Rules.scratch;
         off = Oimm 0; idx = Offset })

(** host r12 <- [env_r10] *)
let reload_seq =
  Rules.movw_movt ~cond:AL Rules.scratch Layout.env_r10 @ [ env_slot ~ld:true ]

(** [env_r10] <- host r12 *)
let spill_seq =
  Rules.movw_movt ~cond:AL Rules.scratch Layout.env_r10 @ [ env_slot ~ld:false ]

(* Sites after which execution resumes inside the trace (at site + 4):
   the cached slot must be reloaded because the engine — or whatever ran
   during the site (emulated service, hooked callee, translated call) —
   may have rewritten env_r10 and has certainly clobbered host r12. *)
let resumable = function
  | Translator.S_call _ | Translator.S_indirect _ | Translator.S_emu _
  | Translator.S_hook _ | Translator.S_guest_svc _ ->
    true
  | Translator.S_fallback { skippable; _ } -> skippable
  | Translator.S_jump _ | Translator.S_tail _ | Translator.S_exit_pc -> false

(* Identity-translated control transfers that leave the trace without a
   site (host lr / popped words hold host addresses — §5.3). The cached
   slot must be spilled first. Guest B never appears as E_inst (it
   becomes a jump site); an E_inst B is always a wrap_cond skip branch,
   internal to one legalized sequence, and must not be touched. *)
let is_trace_exit (i : inst) =
  match i.op with
  | Bx _ -> true
  | Ldm (_, _, regs) -> List.mem pc regs
  | Dp ((MOV | ADD | SUB), _, rd, _, _) -> rd = pc
  | _ -> false

(* Weave spill/reload around the concatenated emit stream with static
   may-be-dirty tracking. Insertion happens only at sites and trace
   exits — both standalone emits — never inside a wrap_cond body, so
   skip-branch offsets stay valid. Conditional writes mark dirty
   unconditionally (spilling a clean slot is harmless). *)
let weave emits =
  let out = ref [] in
  let push e = out := e :: !out in
  let push_insts l = List.iter (fun i -> push (Translator.E_inst i)) l in
  let dirty = ref false in
  let spill_if_dirty () =
    if !dirty then begin
      push_insts spill_seq;
      dirty := false
    end
  in
  List.iter
    (fun e ->
      match e with
      | Translator.E_site (_, info, _) ->
        spill_if_dirty ();
        push e;
        if resumable info then push_insts reload_seq
      | Translator.E_inst i ->
        if is_trace_exit i then begin
          spill_if_dirty ();
          push e
        end
        else begin
          push e;
          if List.mem Rules.scratch2 (regs_written i) then dirty := true
        end)
    emits;
  List.rev !out

(* --------------------------- the planner ----------------------------- *)

let uses r i = List.mem r (regs_read i) || List.mem r (regs_written i)

let rec split_last = function
  | [] -> raise (Abort "empty block")
  | [ x ] -> ([], x)
  | x :: tl ->
    let init, last = split_last tl in
    (x :: init, last)

(* Drop each interior block's terminal site after checking it links to
   the next constituent; keep the final block's terminal (side exits and
   the backedge stay ordinary sites for the dispatcher). *)
let rec stitch acc = function
  | [] -> raise (Abort "empty chain")
  | [ (last : Translator.block) ] -> List.rev_append acc last.b_emits
  | (b : Translator.block) :: (next :: _ as tl) ->
    let init, term = split_last b.b_emits in
    (match term with
    | Translator.E_site
        ( AL,
          (Translator.S_tail { target } | Translator.S_jump { target }),
          _ )
      when target = next.b_guest_start ->
      ()
    | _ -> raise (Abort "chain link mismatch"));
    stitch (List.rev_append init acc) tl

let plan ~read_guest ~classify_target ~block_limit ~chain =
  (match chain with [] | [ _ ] -> raise (Abort "chain too short") | _ -> ());
  let ctx legalize =
    { Translator.mode = Translator.Ark; classify_target; block_limit;
      read_guest; legalize }
  in
  let base = ctx Translator.default_legalize in
  let blocks0 = List.map (fun g -> Translator.translate base ~gpc:g) chain in
  let guests =
    List.concat_map
      (fun (b : Translator.block) ->
        List.init b.b_guest_count (fun i ->
            read_guest (b.b_guest_start + (4 * i))))
      blocks0
  in
  (* caching eligibility: the guest code must never touch r12 (it is the
     cache slot for the whole trace) and must actually use r10 *)
  let cached =
    (not (List.exists (uses Rules.scratch2) guests))
    && List.exists (uses Rules.scratch) guests
  in
  let blocks =
    if not cached then blocks0
    else begin
      let legalize ~gpc gi =
        if uses Rules.scratch gi then
          snd
            (Rules.legalize ~gpc
               (Rules.subst_wide ~old:Rules.scratch ~rep:Rules.scratch2 gi))
        else snd (Rules.legalize ~gpc gi)
      in
      let bs = List.map (fun g -> Translator.translate (ctx legalize) ~gpc:g) chain in
      (* the substitution is shape-preserving, so block boundaries must
         not move; abort rather than form a mismatched trace *)
      List.iter2
        (fun (a : Translator.block) (b : Translator.block) ->
          if a.b_guest_count <> b.b_guest_count then
            raise (Abort "caching changed block shape"))
        blocks0 bs;
      bs
    end
  in
  let body = stitch [] blocks in
  let body = if cached then weave body else body in
  let emits =
    if cached then
      List.map (fun i -> Translator.E_inst i) reload_seq @ body
    else body
  in
  let p_blocks =
    List.map
      (fun (b : Translator.block) -> (b.b_guest_start, b.b_guest_count))
      blocks
  in
  { p_head = List.hd chain;
    p_blocks;
    p_guest_count =
      List.fold_left (fun a (_, n) -> a + n) 0 p_blocks;
    p_cached_r10 = cached;
    p_emits = emits }
