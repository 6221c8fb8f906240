(** Superblock trace certifier: differential equivalence checking of a
    formed (or warm-loaded) {!Tk_dbt.Superblock.plan} against the
    sequential composition of its constituent blocks' reference
    translations.

    The planner composes transforms no single-rule check covers —
    interior terminals dropped, guest r10 re-homed into host r12 across
    the trace, spill/reload woven around engine sites. This pass
    certifies the {e composition}: both emit streams execute over a grid
    of machine states through the shared {!Tk_isa.Exec} semantics and
    must take the same engine sites in the same order with identical
    guest-visible state, exit identically, and agree on the final state.
    Engine/callback effects at resumable sites are modeled by a
    deterministic havoc applied identically to both arms. *)

open Tk_isa
module Translator = Tk_dbt.Translator
module Superblock = Tk_dbt.Superblock

exception Mismatch of string
(** the plan's recorded shape contradicts its constituent blocks'
    reference translations (corrupted or stale warm plan) *)

type outcome = {
  o_states : int;  (** machine states differentially executed *)
  o_problems : string list;  (** divergences; [] certifies the plan *)
}

val certify_plan :
  read_guest:(int -> Types.inst) ->
  classify_target:(int -> Translator.target_class) ->
  block_limit:int ->
  Superblock.plan ->
  outcome
(** rebuild the reference composition for the plan and differentially
    execute it against the plan's woven trace body over the state grid *)

val admit :
  read_guest:(int -> Types.inst) ->
  classify_target:(int -> Translator.target_class) ->
  block_limit:int ->
  unit ->
  Superblock.plan -> bool
(** the online certifier for {!Tk_dbt.Engine.t.sb_certify}: admit a
    plan only when {!certify_plan} finds no divergence *)

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

val read_guest_of_image : Asm.image -> int -> Types.inst
(** a [Translator.ctx]-shaped fetcher over the pristine linked image
    (decode failures and out-of-image fetches raise) *)

val certify_image :
  ?block_limit:int ->
  classify_target:(int -> Translator.target_class) ->
  Asm.image ->
  report
(** enumerate every superblock the planner can form on the pristine
    image — every chain prefix of length >= 2 of the engine's formation
    walk ({!Superblock.chain}) — and certify each one *)

val print_report : report -> unit
