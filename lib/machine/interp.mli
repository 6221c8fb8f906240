(** Guest-native interpreter: the CPU executing V7A kernel code directly.

    This is the paper's "native execution" arm: the monolithic kernel
    running device suspend/resume on the Cortex-A9. The loop fetches
    encoded words from DRAM (through the A9's cache model), decodes them
    once into a dense pre-decoded array of {!Tk_isa.Exec.decoded} slots
    (the instruction and its {!Tk_isa.Exec.compile}d closure), executes
    each slot's closure and charges cycles; pending GIC interrupts
    vector to the kernel's IRQ entry stub between instructions.
    Self-modifying stores invalidate the pre-decoded slots they touch,
    so the next fetch decodes and compiles the new word.

    Guest [SVC] is used as a simulation hypercall (halt / platform-off /
    console), dispatched to the embedding runner through [on_svc]. *)

open Tk_isa

exception Halt of string  (** raised by hypercalls to end a run *)

exception Fault of string  (** simulation bug: deadlock, bad fetch, ... *)

type t = {
  soc : Soc.t;
  core : Core.t;
  rc : Tk_stats.Recorder.t;  (** the platform recorder, cached *)
  cpu : Exec.cpu;
  mutable decode : Exec.decoded array;
      (** dense, indexed by image word from [Soc.kernel_base] and grown
          on fetch to the highest word executed; empty slots hold
          {!Exec.undecoded}; a fetch outside that span is decoded
          afresh each time *)
  mutable env : Exec.env;
      (** memory closures test the flight recorder's flag inline *)
  mutable irq_vector : int;  (** guest address of the IRQ entry stub *)
  mutable irq_saved : (int * int) list;  (** (return pc, flags) *)
  mutable on_svc : t -> Exec.cpu -> int -> unit;
}

val create : soc:Soc.t -> unit -> t

(** [set_pc t addr] positions the next fetch. *)
val set_pc : t -> int -> unit

(** [step t] executes one instruction (delivering a pending enabled IRQ
    first). *)
val step : t -> unit

(** [run t ~fuel] steps until a hypercall raises {!Halt} (or [fuel]
    instructions elapse, which raises {!Fault} — a runaway guest). *)
val run : t -> fuel:int -> unit

(** [run_until t ~deadline ~fuel] — bounded-quantum slice of {!run}:
    step until the core's clock reaches absolute time [deadline], then
    return normally; the next call resumes at the saved pc. {!Halt}
    still propagates when the guest finishes inside the slice. *)
val run_until : t -> deadline:int -> fuel:int -> unit
