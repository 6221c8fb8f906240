(** Interrupt controllers.

    The SoC has two heterogeneous controllers, as in the paper's hardware
    model: a GIC-like distributor serving the CPU and an NVIC-like
    controller serving the peripheral core. Devices raise platform IRQ
    lines; the fabric forwards each line to the GIC and — only if the
    routing table maps it — to the NVIC. OMAP4460 routes just 39 of 102
    lines to the Cortex-M3 (§7.5); the routing table models that, and the
    two controllers may see {e different line numbers} for the same
    device.

    The GIC exposes an MMIO register file because the {e guest kernel
    code} masks/acks interrupts through it; on the peripheral core those
    addresses are unmapped, so translated code faults and ARK emulates
    the access against the NVIC (§4.2). *)

type t = {
  iname : string;
  nlines : int;
  enabled : bool array;
  pending : bool array;
  mutable in_service : int option;
  mutable live : int;
      (** number of lines both pending and enabled, maintained
          incrementally so the interpreters' per-instruction /
          per-block "any deliverable interrupt?" poll is O(1) instead
          of a scan over all lines *)
  mutable rc : Tk_stats.Recorder.t;
      (** the platform recorder ({!Tk_stats.Recorder.null} until the SoC
          wires it); its raise and acknowledge events also bound the
          span tracer's delivery-latency spans *)
  mutable rc_core : int;  (** which side this controller serves *)
}

let create ~name ~nlines =
  { iname = name; nlines; enabled = Array.make nlines false;
    pending = Array.make nlines false; in_service = None; live = 0;
    rc = Tk_stats.Recorder.null; rc_core = Tk_stats.Trace.core_none }

let set_pending t line =
  if line >= 0 && line < t.nlines && not t.pending.(line) then begin
    t.pending.(line) <- true;
    if t.enabled.(line) then t.live <- t.live + 1;
    Tk_stats.Recorder.event t.rc ~core:t.rc_core Tk_stats.Trace.ev_irq_raise
      line 0
  end

let clear_pending t line =
  if t.pending.(line) then begin
    t.pending.(line) <- false;
    if t.enabled.(line) then t.live <- t.live - 1
  end

let enable t line v =
  if t.enabled.(line) <> v then begin
    t.enabled.(line) <- v;
    if t.pending.(line) then t.live <- t.live + (if v then 1 else -1)
  end

(** [highest t] is the lowest-numbered enabled pending line, if any
    (fixed priority by line number, like a default-configured GIC). *)
let highest t =
  let rec go i =
    if i >= t.nlines then None
    else if t.pending.(i) && t.enabled.(i) then Some i
    else go (i + 1)
  in
  if t.in_service <> None || t.live = 0 then None else go 0

(** [deliverable t] — O(1) equivalent of [highest t <> None]: is there
    an enabled pending line and nothing in service? The hot interpreter
    loops poll this between instructions / at block starts. *)
let deliverable t = t.live > 0 && t.in_service = None

(** [ack t] — interrupt acknowledge: returns the highest pending line,
    marks it in-service and clears pending. 1023 = spurious (none). *)
let ack t =
  match highest t with
  | Some l ->
    t.pending.(l) <- false;
    t.live <- t.live - 1;  (* [highest] only returns enabled lines *)
    t.in_service <- Some l;
    Tk_stats.Recorder.event t.rc ~core:t.rc_core
      Tk_stats.Trace.ev_irq_deliver l 0;
    l
  | None -> 1023

(** [eoi t line] — end of interrupt. *)
let eoi t line = if t.in_service = Some line then t.in_service <- None

(* GIC-style MMIO register file (simplified):
   0x00 W: ENABLE_SET (write line number)
   0x04 W: ENABLE_CLR
   0x08 R: IAR (acknowledge)   W: ignored
   0x0C W: EOI (write line number)
   0x10 W: PENDING_CLR
   0x14 R: number of lines *)
let enable_set_off = 0x00
let enable_clr_off = 0x04
let iar_off = 0x08
let eoi_off = 0x0C
let pending_clr_off = 0x10

(** [mmio_region t ~base] exposes [t] as a GIC-style MMIO region. *)
let mmio_region t ~base : Mem.region =
  { rbase = base; rsize = 0x100; rname = t.iname;
    rread =
      (fun off _ ->
        match off with
        | 0x08 -> ack t
        | 0x14 -> t.nlines
        | _ -> 0);
    rwrite =
      (fun off _ v ->
        match off with
        | 0x00 -> if v < t.nlines then enable t v true
        | 0x04 -> if v < t.nlines then enable t v false
        | 0x0C -> eoi t v
        | 0x10 -> if v < t.nlines then clear_pending t v
        | _ -> ()) }

(** The SoC interrupt fabric: one GIC (CPU side), one NVIC (peripheral
    side), and the routing table from platform lines to NVIC lines. *)
type fabric = {
  gic : t;
  nvic : t;
  route : int -> int option;  (** platform line -> NVIC line *)
  reverse_route : int -> int;  (** NVIC line -> platform line *)
}

(** [make_fabric ~nlines ~routed] builds a fabric where only the lines in
    [routed] reach the peripheral core. NVIC line numbers deliberately
    differ from platform line numbers (index in [routed]), as the
    hardware model allows. *)
let make_fabric ~nlines ~routed =
  let gic = create ~name:"gic" ~nlines in
  let nvic = create ~name:"nvic" ~nlines:(List.length routed) in
  let fwd = Hashtbl.create 32 and bwd = Hashtbl.create 32 in
  List.iteri
    (fun i line ->
      Hashtbl.replace fwd line i;
      Hashtbl.replace bwd i line)
    routed;
  { gic; nvic;
    route = (fun l -> Hashtbl.find_opt fwd l);
    reverse_route = (fun n -> match Hashtbl.find_opt bwd n with
      | Some l -> l
      | None -> invalid_arg "reverse_route") }

(** [raise_line fab line] — a device asserts platform IRQ [line]; it
    becomes pending in the GIC and, if routed, in the NVIC. *)
let raise_line fab line =
  set_pending fab.gic line;
  match fab.route line with
  | Some n -> set_pending fab.nvic n
  | None -> ()
