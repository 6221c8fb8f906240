(** Superblock (trace) planner for the IR-less DBT tier above [Ark]:
    concatenates a hot chain of translation blocks (interior terminal
    sites dropped, side exits kept), and re-homes the emulated guest r10
    into the dead host register r12 across the whole trace when the
    chain's guest code never touches r12. Produces pure Marshal-safe
    data so {!Cache_store} can persist plans for warm-starting. *)

open Tk_isa

exception Abort of string
(** chain not formable (link mismatch, shape change under caching, too
    short); the engine abandons formation and keeps the plain blocks *)

type plan = {
  p_head : int;  (** guest address of the chain head *)
  p_blocks : (int * int) list;
      (** constituent (guest start, guest count), head first *)
  p_guest_count : int;  (** total guest instructions covered *)
  p_cached_r10 : bool;  (** r10-in-r12 caching applied *)
  p_emits : Translator.emit list;  (** the woven trace body *)
}

val max_blocks : int
(** the most constituent blocks in one trace *)

val successor : Translator.block -> int option
(** the block's statically-known successor: the target of its terminal
    when that is an always-taken direct jump or fallthrough tail *)

val chain :
  succ:(int -> int option) -> translated:(int -> bool) -> int -> int list
(** [chain ~succ ~translated head] — the chain to form at [head], head
    first: follow [succ] (the {!successor}s recorded so far) through
    translated, distinct blocks, up to {!max_blocks}. The engine walks
    it over the blocks it has translated, the offline certifier over
    every block of the image. *)

val resumable : Translator.site_info -> bool
(** does execution re-enter the trace right after this site? (calls,
    emulated services, hooks, guest hypercalls, skippable fallback);
    exported for the trace certifier, which must model the same
    engine-resume contract the weaver assumes *)

val reload_seq : Types.inst list
(** host r12 <- [env_r10]; emitted at the trace head and after every
    resumable site *)

val spill_seq : Types.inst list
(** [env_r10] <- host r12; emitted before sites and trace exits while
    the slot may be dirty *)

val plan :
  read_guest:(int -> Types.inst) ->
  classify_target:(int -> Translator.target_class) ->
  block_limit:int ->
  chain:int list ->
  plan
(** [plan ~read_guest ~classify_target ~block_limit ~chain] builds a
    superblock over [chain] (guest block starts, head first, each linked
    to the next by an always-taken terminal).
    @raise Abort when the chain cannot be formed *)
