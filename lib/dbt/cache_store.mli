(** Persistent translation cache: blocks and superblock plans keyed by a
    digest of the pristine guest image. Replay is lazy — the engine
    consults the store at the same instants it would translate or form,
    and still charges the simulated translation cost, so warm runs keep
    a byte-identical simulated timeline (and manifest digest) while
    skipping the host-side translation work. [load] degrades every
    failure mode (missing file, wrong magic/version/key, truncation, a
    payload that fails its digest) to [None] — a cold start, never a
    poisoned run. *)

type t = {
  key : string;  (** image digest this cache is valid for *)
  blocks : (int, Translator.block) Hashtbl.t;  (** guest start -> block *)
  traces : (int, Superblock.plan) Hashtbl.t;  (** chain head -> plan *)
}

val key_of_image : base:int -> words:int array -> string
(** FNV-1a digest over the link base and pristine image words *)

val create : key:string -> t
val find_block : t -> int -> Translator.block option
val record_block : t -> int -> Translator.block -> unit
val find_trace : t -> int -> Superblock.plan option
val record_trace : t -> Superblock.plan -> unit

val path : dir:string -> key:string -> string
(** the cache file a [save]/[load] pair uses for [key] under [dir] *)

val save : dir:string -> t -> unit
(** atomic (write + rename); creates [dir] if missing *)

val load : dir:string -> key:string -> t option
