(** Named monotonic counters used across the simulator.

    Every subsystem (cache model, DBT engine, emulated services, ...)
    accounts its work through a [t]; benchmarks extract per-phase or
    per-device figures via {!snapshot}/{!diff}. *)

type t

val create : unit -> t

(** [add t name n] bumps counter [name] by [n], creating it at 0 first. *)
val add : t -> string -> int -> unit

(** [incr t name] is [add t name 1]. *)
val incr : t -> string -> unit

(** [get t name] is the current value of [name] (0 if never touched). *)
val get : t -> string -> int

(** [set t name v] overwrites [name] with [v]. *)
val set : t -> string -> int -> unit

(** [reset t] zeroes every counter but keeps the names. *)
val reset : t -> unit

(** [snapshot t] captures the current values as a name-sorted assoc
    list; pair with {!diff} for per-phase deltas. *)
val snapshot : t -> (string * int) list

(** [to_assoc t] — the canonical counter schema: name-sorted
    [(name, value)] pairs, the shape counters travel in everywhere
    downstream (trace phase-marks, time series, run manifests,
    {!Report.counters}). Alias of {!snapshot}. *)
val to_assoc : t -> (string * int) list

(** [to_json t] renders {!to_assoc} as one flat JSON object with sorted,
    stable keys (manifest digests rely on this). *)
val to_json : t -> string

(** [load t saved] makes [t] hold exactly [saved]: names absent from
    [saved] are {e removed}, not zeroed (a zero-valued leftover would
    still render in {!to_assoc} and leak sibling-instance history into
    restored-world output). Used by the world-snapshot layer. *)
val load : t -> (string * int) list -> unit

(** [diff before after] is the per-name difference [after - before];
    names absent on one side count as 0 there. *)
val diff : (string * int) list -> (string * int) list -> (string * int) list

(** [merge lists] sums equal names across counter lists (one per
    campaign task or fleet shard), in the name-sorted {!to_assoc}
    shape. *)
val merge : (string * int) list list -> (string * int) list

(** [pp ppf t] prints all non-zero counters, one per line. *)
val pp : Format.formatter -> t -> unit
