(** The recorder substrate's shared state: the platform's one
    simulated-time hook, its one named-gauge registry and the flag word
    producers test. The consumers ({!Trace}, {!Timeseries}, {!Span})
    read time and gauges through it and set their bit in it when
    switched; {!Recorder} bundles them and owns the producer entry
    points. *)

(* consumer bits, in [live], [on] and a gauge's [readers] *)
let trace_bit = 1
let sampler_bit = 2
let spans_bit = 4

type gauge = {
  name : string;
  readers : int;  (** bits of the consumers that read this gauge *)
  core : int;
      (** owning core ({!Trace.core_cpu}, ...; -1 for none): the only
          lane that may read it inside a lockstep segment *)
  mutable read : unit -> int;
}

type t = {
  now : unit -> int;  (** simulated time (ns) *)
  mutable gauges : gauge list;  (** the registry, in wiring order *)
  mutable live : int;  (** bits of the enabled consumers *)
  mutable paused : bool;
  mutable on : int;  (** [live], or 0 while paused: what producers test *)
  mutable tracing : bool;
  mutable sampling : bool;
      (** the flight recorder's and the sampler's bits of [on], which the
          execution loops test inline *)
}

let create now =
  { now; gauges = []; live = 0; paused = false; on = 0; tracing = false;
    sampling = false }

(** [gauge t ?core ~readers name f] wires gauge [name], owned by [core],
    for the consumers in [readers]. A name already wired is re-bound in
    place, keeping its position, so a re-created component (a second DBT
    engine on the same SoC) re-binds its gauges instead of duplicating
    them. Consumers bake their gauges when enabled: wire before
    enabling. *)
let gauge t ?(core = -1) ~readers name f =
  match List.find_opt (fun g -> g.name = name) t.gauges with
  | Some g -> g.read <- f
  | None -> t.gauges <- t.gauges @ [ { name; readers; core; read = f } ]

(** [gauges t bit] — the gauges consumer [bit] reads, in wiring order. *)
let gauges t bit =
  Array.of_list (List.filter (fun g -> g.readers land bit <> 0) t.gauges)

let switch t ~live ~paused =
  t.live <- live;
  t.paused <- paused;
  t.on <- (if paused then 0 else live);
  t.tracing <- t.on land trace_bit <> 0;
  t.sampling <- t.on land sampler_bit <> 0

let set_live t bit v =
  switch t ~paused:t.paused
    ~live:(if v then t.live lor bit else t.live land lnot bit)

let pause t paused = switch t ~live:t.live ~paused

let owned t core = List.filter (fun g -> g.core = core) t.gauges

(** [hold t ~core] — [core]'s own gauges, read now: taken by that core's
    lane at a mark inside a lockstep segment, where it may read nothing
    else. [with_held t ~core vs f] runs [f] with them reading [vs] and
    every other gauge live. *)
let hold t ~core = Array.of_list (List.map (fun g -> g.read ()) (owned t core))

let with_held t ~core vs f =
  let gs = owned t core in
  let live = List.map (fun g -> g.read) gs in
  List.iteri (fun i g -> g.read <- (fun () -> vs.(i))) gs;
  Fun.protect ~finally:(fun () -> List.iter2 (fun g r -> g.read <- r) gs live) f
