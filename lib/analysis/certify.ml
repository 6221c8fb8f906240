(** Superblock trace certifier: differential equivalence checking of a
    formed (or warm-loaded) {!Tk_dbt.Superblock.plan} against the
    sequential composition of its constituent blocks' reference
    translations.

    The superblock planner composes transforms no single-rule check
    covers: interior terminals are dropped, the emulated guest r10 is
    re-homed into host r12 across the whole trace, and spill/reload
    sequences are woven around engine sites. This pass certifies the
    {e composition}: it rebuilds each constituent block with the plain
    (uncached) legalization, stitches them exactly as the planner's
    reference semantics dictates — verifying every interior terminal
    links to the next block — and then executes both emit streams over a
    grid of machine states through the shared {!Tk_isa.Exec} semantics,
    demanding identical observable behavior:

    {ul
    {- the same engine sites taken, in the same order, with identical
       guest-visible state (pass-through registers, emulated r10, NZCV,
       traps, non-env memory) at each site;}
    {- identical exit (final terminal site, or an identity-translated
       trace exit to the same target);}
    {- identical final state.}}

    Engine and callback effects at {e resumable} sites (calls, emulated
    services, hooks, guest hypercalls, skippable fallback) are modeled
    by a deterministic havoc applied identically to both arms: r0-r3,
    both scratch registers, the emulated-r10 slot and the flags are
    overwritten with values keyed by the site's ordinal, exactly the
    state the engine contract allows the site to clobber. The trace
    arm's woven reload must therefore re-derive anything it cached — a
    missing spill or reload diverges on the very next observation.

    Macro-op fusion needs no modeling: the engine's fusion pass is a
    pure cycle-accounting waiver over the emitted words and never
    changes the executed instruction sequence.

    Known (documented) blind spot, shared with {!Rule_check}: guest
    stores that land inside the engine's env block would fight the
    emulated-r10 slot; the state grid's register vectors avoid that
    region, as does any sane guest. *)

open Tk_isa
open Tk_isa.Types
module Translator = Tk_dbt.Translator
module Superblock = Tk_dbt.Superblock
module Layout = Tk_dbt.Layout

let hbase = Rule_check.hbase

(* the four flag corners are enough here: every cond the streams contain
   was already grid-checked per-rule; trace-level conditionality only
   needs both polarities of each flag *)
let flag_grid =
  [ (false, false, false, false); (true, false, true, false);
    (false, true, false, true); (true, true, true, true) ]

(* ------------------------ stream execution --------------------------- *)

type halt =
  | H_site of cond * Translator.site_info  (** final (non-resumable) site *)
  | H_exit of int  (** identity-translated branch left the stream *)
  | H_end  (** fell off the end of the stream (malformed) *)
  | H_fault  (** execution faulted; [run.fault] has the message *)

type arm = {
  a_run : Rule_check.run;
  a_obs : string list;  (** site/exit observations, oldest first *)
  a_halt : halt;
}

let site_name (info : Translator.site_info) =
  match info with
  | Translator.S_call { target; ret_guest } ->
    Printf.sprintf "call 0x%x ret 0x%x" target ret_guest
  | Translator.S_jump { target } -> Printf.sprintf "jump 0x%x" target
  | Translator.S_tail { target } -> Printf.sprintf "tail 0x%x" target
  | Translator.S_emu { name; resume_guest } ->
    Printf.sprintf "emu %s resume 0x%x" name resume_guest
  | Translator.S_hook { name; resume_guest } ->
    Printf.sprintf "hook %s resume 0x%x" name resume_guest
  | Translator.S_indirect { reg; ret_guest } ->
    Printf.sprintf "indirect %s ret 0x%x" (reg_name reg) ret_guest
  | Translator.S_exit_pc -> "exit-pc"
  | Translator.S_guest_svc { n; resume_guest } ->
    Printf.sprintf "guest-svc %d resume 0x%x" n resume_guest
  | Translator.S_fallback { reason; gpc; skippable } ->
    Printf.sprintf "fallback(%s) 0x%x%s" reason gpc
      (if skippable then " skippable" else "")

(* order-independent digest of the non-env memory writes; background
   rules make an unwritten byte indistinguishable from an explicit write
   of the background value, same caveat as [Rule_check.smem_diff] *)
let mem_digest (m : Rule_check.smem) =
  Hashtbl.fold
    (fun a v acc -> if Rule_check.env_addr a then acc else acc + Hashtbl.hash (a, v))
    m 0

(* guest-visible state at an observation point: pass-through registers,
   the emulated r10 (its env slot — the weave spills before every site),
   flags, traps, memory. Host r10 is always scratch; host r12 is guest
   state only when the trace did not claim it as the r10 cache. *)
let fingerprint (run : Rule_check.run) ~with_r12 =
  let b = Buffer.create 96 in
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf "%x," run.Rule_check.cpu.Exec.r.(r)))
    Rule_check.passthrough;
  if with_r12 then
    Buffer.add_string b
      (Printf.sprintf "r12=%x," run.Rule_check.cpu.Exec.r.(12));
  Buffer.add_string b
    (Printf.sprintf "r10=%x,"
       (Rule_check.smem_load run.Rule_check.mem Layout.env_r10 4));
  Buffer.add_string b (Rule_check.flags_str run.Rule_check.cpu);
  Buffer.add_string b
    (Printf.sprintf ",traps=%s"
       (String.concat ";" (List.rev run.Rule_check.traps)));
  Buffer.add_string b (Printf.sprintf ",mem=%x" (mem_digest run.Rule_check.mem));
  Buffer.contents b

(* deterministic model of what the engine/callback may clobber across a
   resumable site, keyed by the site ordinal [k] and applied identically
   to both arms: argument registers, both scratches, the emulated r10
   slot and the flags *)
let havoc (run : Rule_check.run) k =
  let h salt = Bits.mask32 (((k + 1) * salt) lxor 0x5DEECE66) in
  let r = run.Rule_check.cpu.Exec.r in
  r.(0) <- h 0x0F1E2D3;
  r.(1) <- h 0x11C3A55;
  r.(2) <- h 0x2B7E151;
  r.(3) <- h 0x3C6EF37;
  r.(10) <- h 0x7A5A5A5;
  r.(12) <- h 0x58B91E3;
  Rule_check.smem_store run.Rule_check.mem Layout.env_r10 4 (h 0x6D2B79F);
  Rule_check.set_flags run.Rule_check.cpu
    (k land 1 = 1, k land 2 = 2, k land 4 = 4, k land 8 = 8)

(** [exec_stream emits flags vec ~with_r12] runs one emit stream laid
    out at {!Rule_check.hbase} from the machine state [(flags, vec)],
    collecting an observation per engine site taken and per trace exit. *)
let exec_stream (emits : Translator.emit array) flags vec ~with_r12 : arm =
  let run = Rule_check.make_run (Rule_check.smem_create ()) in
  Array.blit vec 0 run.Rule_check.cpu.Exec.r 0 15;
  Rule_check.smem_store run.Rule_check.mem Layout.env_r10 4 vec.(10);
  run.Rule_check.cpu.Exec.r.(10) <- Rule_check.scratch_sentinel;
  Rule_check.set_flags run.Rule_check.cpu flags;
  let n = Array.length emits in
  let env = Rule_check.env_of run in
  let obs = ref [] and halt = ref None in
  let resumed = ref 0 in
  let observe what =
    obs :=
      Printf.sprintf "%s | %s" what (fingerprint run ~with_r12) :: !obs
  in
  let idx = ref 0 and fuel = ref (8 * (n + 8)) in
  (try
     while !halt = None && run.Rule_check.fault = None do
       if !idx >= n then halt := Some H_end
       else begin
         decr fuel;
         if !fuel < 0 then
           run.Rule_check.fault <- Some "stream does not terminate"
         else begin
           let addr = hbase + (4 * !idx) in
           match emits.(!idx) with
           | Translator.E_site (cond, info, _) ->
             if not (Exec.cond_holds run.Rule_check.cpu cond) then incr idx
             else begin
               observe (Printf.sprintf "site[%s]" (site_name info));
               if Superblock.resumable info then begin
                 havoc run !resumed;
                 incr resumed;
                 incr idx
               end
               else halt := Some (H_site (cond, info))
             end
           | Translator.E_inst i -> (
             match Exec.step run.Rule_check.cpu env ~addr i with
             | Exec.Next -> incr idx
             | Exec.Branched ->
               let target = run.Rule_check.cpu.Exec.r.(pc) in
               let j = (target - hbase) asr 2 in
               if j >= 0 && j <= n && target land 3 = 0 then idx := j
               else begin
                 observe (Printf.sprintf "exit[0x%x]" target);
                 halt := Some (H_exit target)
               end)
         end
       end
     done
   with e -> run.Rule_check.fault <- Some (Printexc.to_string e));
  { a_run = run;
    a_obs = List.rev !obs;
    a_halt =
      (match !halt with
      | Some h when run.Rule_check.fault = None -> h
      | _ -> H_fault) }

(* ------------------------- arm comparison ---------------------------- *)

let halt_desc = function
  | H_site (_, info) -> Printf.sprintf "site[%s]" (site_name info)
  | H_exit t -> Printf.sprintf "exit[0x%x]" t
  | H_end -> "end-of-stream"
  | H_fault -> "fault"

(* [reference] vs [trace]; empty = equivalent on this state *)
let compare_arms ~with_r12 (g : arm) (h : arm) =
  let bad = ref [] in
  let note fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  (match g.a_run.Rule_check.fault, h.a_run.Rule_check.fault with
  | None, None -> ()
  | gf, hf ->
    note "fault: reference=%s trace=%s"
      (Option.value ~default:"-" gf)
      (Option.value ~default:"-" hf));
  let rec obs k = function
    | [], [] -> ()
    | go :: gtl, ho :: htl ->
      if go <> ho then note "observation %d: reference{%s} trace{%s}" k go ho
      else obs (k + 1) (gtl, htl)
    | go :: _, [] -> note "observation %d only in reference: %s" k go
    | [], ho :: _ -> note "observation %d only in trace: %s" k ho
  in
  obs 0 (g.a_obs, h.a_obs);
  if g.a_halt <> h.a_halt then
    note "halt: reference=%s trace=%s" (halt_desc g.a_halt)
      (halt_desc h.a_halt);
  List.iter
    (fun r ->
      if g.a_run.Rule_check.cpu.Exec.r.(r) <> h.a_run.Rule_check.cpu.Exec.r.(r)
      then
        note "%s: reference=0x%x trace=0x%x" (reg_name r)
          g.a_run.Rule_check.cpu.Exec.r.(r)
          h.a_run.Rule_check.cpu.Exec.r.(r))
    Rule_check.passthrough;
  let g10 = Rule_check.smem_load g.a_run.Rule_check.mem Layout.env_r10 4 in
  let h10 = Rule_check.smem_load h.a_run.Rule_check.mem Layout.env_r10 4 in
  if g10 <> h10 then note "r10(env): reference=0x%x trace=0x%x" g10 h10;
  if
    with_r12
    && g.a_run.Rule_check.cpu.Exec.r.(12)
       <> h.a_run.Rule_check.cpu.Exec.r.(12)
  then
    note "r12: reference=0x%x trace=0x%x"
      g.a_run.Rule_check.cpu.Exec.r.(12)
      h.a_run.Rule_check.cpu.Exec.r.(12);
  if
    Rule_check.flags_str g.a_run.Rule_check.cpu
    <> Rule_check.flags_str h.a_run.Rule_check.cpu
  then
    note "flags: reference=%s trace=%s"
      (Rule_check.flags_str g.a_run.Rule_check.cpu)
      (Rule_check.flags_str h.a_run.Rule_check.cpu);
  if g.a_run.Rule_check.traps <> h.a_run.Rule_check.traps then
    note "traps: reference=[%s] trace=[%s]"
      (String.concat "; " (List.rev g.a_run.Rule_check.traps))
      (String.concat "; " (List.rev h.a_run.Rule_check.traps));
  (match
     Rule_check.smem_diff g.a_run.Rule_check.mem h.a_run.Rule_check.mem
   with
  | [] -> ()
  | (a, gv, hv) :: _ as ds ->
    note "memory: %d bytes differ, first at 0x%x (reference=0x%02x trace=0x%02x)"
      (List.length ds) a gv hv);
  List.rev !bad

(* ---------------------- per-plan certification ----------------------- *)

type outcome = {
  o_states : int;  (** machine states differentially executed *)
  o_problems : string list;  (** empty = plan certified *)
}

exception Mismatch of string

(* the reference semantics: each constituent re-translated with the
   plain legalization, interior always-taken terminals verified against
   the next constituent's start and dropped — the planner's stitch,
   re-derived independently from the plan's (start, count) list *)
let reference_emits ctx (p : Superblock.plan) =
  let blocks =
    List.map (fun (g, _) -> Translator.translate ctx ~gpc:g) p.Superblock.p_blocks
  in
  List.iter2
    (fun (g, cnt) (b : Translator.block) ->
      if b.Translator.b_guest_count <> cnt then
        raise
          (Mismatch
             (Printf.sprintf
                "block 0x%x: plan records %d guest instructions, reference \
                 translation has %d"
                g cnt b.Translator.b_guest_count)))
    p.Superblock.p_blocks blocks;
  let rec split_last = function
    | [] -> raise (Mismatch "constituent block with no emits")
    | [ x ] -> ([], x)
    | x :: tl ->
      let init, last = split_last tl in
      (x :: init, last)
  in
  let rec stitch acc = function
    | [] -> raise (Mismatch "plan with no blocks")
    | [ (last : Translator.block) ] ->
      List.rev_append acc last.Translator.b_emits
    | (b : Translator.block) :: (next :: _ as tl) -> (
      let init, term = split_last b.Translator.b_emits in
      match term with
      | Translator.E_site
          (AL, (Translator.S_tail { target } | Translator.S_jump { target }), _)
        when target = next.Translator.b_guest_start ->
        stitch (List.rev_append init acc) tl
      | _ ->
        raise
          (Mismatch
             (Printf.sprintf
                "block 0x%x does not link to next constituent 0x%x"
                b.Translator.b_guest_start next.Translator.b_guest_start)))
  in
  Array.of_list (stitch [] blocks)

(** [certify_plan ~read_guest ~classify_target ~block_limit p] — rebuild
    the reference composition for [p] and differentially execute it
    against [p]'s woven trace body over the state grid. An empty
    [o_problems] certifies the plan. *)
let certify_plan ~read_guest ~classify_target ~block_limit
    (p : Superblock.plan) : outcome =
  let problems = ref [] and nprob = ref 0 and states = ref 0 in
  let note s =
    incr nprob;
    if !nprob <= 6 then problems := s :: !problems
  in
  let ctx =
    { Translator.mode = Translator.Ark; classify_target; block_limit;
      read_guest; legalize = Translator.default_legalize }
  in
  (match reference_emits ctx p with
  | exception Mismatch msg -> note msg
  | exception e -> note (Printf.sprintf "reference translation failed: %s"
                           (Printexc.to_string e))
  | reference ->
    let trace = Array.of_list p.Superblock.p_emits in
    (* a cached trace owns host r12; otherwise it is guest state *)
    let with_r12 = not p.Superblock.p_cached_r10 in
    List.iter
      (fun flags ->
        Array.iteri
          (fun vid vec ->
            incr states;
            let g = exec_stream reference flags vec ~with_r12 in
            let h = exec_stream trace flags vec ~with_r12 in
            match compare_arms ~with_r12 g h with
            | [] -> ()
            | probs ->
              note
                (Printf.sprintf "flags=%c%c%c%c vec=%d: %s"
                   (if (fun (n, _, _, _) -> n) flags then 'N' else 'n')
                   (if (fun (_, z, _, _) -> z) flags then 'Z' else 'z')
                   (if (fun (_, _, c, _) -> c) flags then 'C' else 'c')
                   (if (fun (_, _, _, v) -> v) flags then 'V' else 'v')
                   vid
                   (String.concat "; " probs)))
          Rule_check.reg_vectors)
      flag_grid);
  { o_states = !states; o_problems = List.rev !problems }

(** [admit ~read_guest ~classify_target ~block_limit ()] — the online
    certifier for {!Tk_dbt.Engine.t.sb_certify}: admit a plan only when
    {!certify_plan} finds no divergence. *)
let admit ~read_guest ~classify_target ~block_limit () =
  fun p ->
    (certify_plan ~read_guest ~classify_target ~block_limit p).o_problems = []

(* ------------------- whole-image plan enumeration -------------------- *)

type report = {
  r_blocks : int;  (** translation blocks reachable on the image *)
  r_chains : int;  (** heads whose successor chain reaches length >= 2 *)
  r_plans : int;  (** plans the planner formed (all chain prefixes) *)
  r_cached : int;  (** plans with r10-in-r12 caching applied *)
  r_aborts : int;  (** chains the planner refused (Superblock.Abort) *)
  r_states : int;  (** machine states differentially executed *)
  r_divergent : int;  (** plans with at least one divergence *)
  findings : Finding.t list;
}

(** [read_guest_of_image image] — a [Translator.ctx]-shaped fetcher over
    the pristine linked image (decode failures and out-of-image fetches
    raise, ending enumeration of that block). *)
let read_guest_of_image (image : Asm.image) a =
  let k = (a - image.Asm.base) asr 2 in
  if a < image.Asm.base || k >= Array.length image.Asm.words || a land 3 <> 0
  then invalid_arg (Printf.sprintf "guest fetch outside image: 0x%x" a)
  else V7a.decode image.Asm.words.(k)

(** [certify_image ?block_limit ~classify_target image] —
    enumerate every superblock the planner can form on the pristine
    image and certify each one.

    Enumeration mirrors the engine: translation blocks are discovered
    from every CFG leader plus every site-successor (call targets,
    return sites, jump targets), the always-taken-successor map is
    rebuilt from the blocks' terminals exactly as the engine records it
    ({!Superblock.successor}), and the engine's walk
    ({!Superblock.chain}) runs from every head. Every
    chain {e prefix} of length >= 2 is planned and certified — at run
    time the engine forms whatever prefix is translated when the head
    turns hot, so all of them are formable. *)
let certify_image ?(block_limit = Translator.default_block_limit)
    ~classify_target (image : Asm.image) : report =
  let read_guest = read_guest_of_image image in
  let cfg = Cfg.build image in
  let ctx =
    { Translator.mode = Translator.Ark; classify_target; block_limit;
      read_guest; legalize = Translator.default_legalize }
  in
  let visited = Hashtbl.create 256 in  (* gpc -> translated ok *)
  let succ = Hashtbl.create 64 in
  let pending = Queue.create () in
  let enqueue a =
    if Cfg.in_code image a && not (Hashtbl.mem visited a) then
      Queue.add a pending
  in
  List.iter (fun (b : Cfg.block) -> enqueue b.Cfg.b_start) cfg.Cfg.blocks;
  while not (Queue.is_empty pending) do
    let g = Queue.pop pending in
    if not (Hashtbl.mem visited g) then begin
      match Translator.translate ctx ~gpc:g with
      | exception _ -> Hashtbl.replace visited g false
      | b ->
        Hashtbl.replace visited g true;
        Option.iter (Hashtbl.replace succ g) (Superblock.successor b);
        List.iter
          (fun e ->
            match e with
            | Translator.E_site (_, info, _) -> (
              match info with
              | Translator.S_call { target; ret_guest } ->
                enqueue target;
                enqueue ret_guest
              | Translator.S_jump { target } | Translator.S_tail { target } ->
                enqueue target
              | Translator.S_indirect { ret_guest; _ } -> enqueue ret_guest
              | _ -> ())
            | Translator.E_inst _ -> ())
          b.Translator.b_emits
    end
  done;
  let translated a = Hashtbl.find_opt visited a = Some true in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  let heads =
    List.sort compare
      (Hashtbl.fold (fun g ok acc -> if ok then g :: acc else acc) visited [])
  in
  let blocks = List.length heads in
  let chains = ref 0 and plans = ref 0 and cached = ref 0 in
  let aborts = ref 0 and states = ref 0 and divergent = ref 0 in
  let findings = ref [] in
  List.iter
    (fun head ->
      let chain =
        Superblock.chain ~succ:(Hashtbl.find_opt succ) ~translated head
      in
      let len = List.length chain in
      if len >= 2 then begin
        incr chains;
        for l = 2 to len do
          match
            Superblock.plan ~read_guest ~classify_target ~block_limit
              ~chain:(take l chain)
          with
          | exception Superblock.Abort _ -> incr aborts
          | p ->
            incr plans;
            if p.Superblock.p_cached_r10 then incr cached;
            let o = certify_plan ~read_guest ~classify_target ~block_limit p in
            states := !states + o.o_states;
            if o.o_problems <> [] then begin
              incr divergent;
              findings :=
                Finding.v ~pass:"certify" ~severity:Finding.Error
                  ~code:"trace-divergence"
                  ~where:
                    (Printf.sprintf "%s (head 0x%x, %d blocks%s)"
                       (Asm.nearest_symbol image head)
                       head l
                       (if p.Superblock.p_cached_r10 then ", r10-cached"
                        else ""))
                  (String.concat " | " (take 3 o.o_problems))
                :: !findings
            end
        done
      end)
    heads;
  (* the clean-sweep summary rides along as an Info finding so the
     certification report is never empty: it records what was proven
     (and over how many states), not just what failed *)
  let summary =
    Finding.v ~pass:"certify" ~severity:Finding.Info ~code:"certified"
      ~where:"image"
      (Printf.sprintf
         "%d plan(s) over %d machine state(s): %d divergent, %d abort(s)"
         !plans !states !divergent !aborts)
  in
  { r_blocks = blocks;
    r_chains = !chains;
    r_plans = !plans;
    r_cached = !cached;
    r_aborts = !aborts;
    r_states = !states;
    r_divergent = !divergent;
    findings = List.rev !findings @ [ summary ] }

(** [print_report r] — the certification counter block ([arksim analyze
    --certify]). *)
let print_report (r : report) =
  Tk_stats.Report.kv "superblock trace certifier"
    [ ("translation blocks", string_of_int r.r_blocks);
      ("chains (len >= 2)", string_of_int r.r_chains);
      ("plans formed (all prefixes)", string_of_int r.r_plans);
      ("r10-in-r12 cached plans", string_of_int r.r_cached);
      ("planner aborts", string_of_int r.r_aborts);
      ("machine states executed", string_of_int r.r_states);
      ("divergent plans", string_of_int r.r_divergent) ]
