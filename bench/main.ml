(* The paper's tables-and-figures driver: regenerates every table and
   figure of the evaluation (§7) from the simulation. Run with no
   arguments for the full suite, or with a subset of:

     table3 table4 table5 table6 fig3 fig5 fig6 fig7
     abi services fallback dram biglittle battery aarch64 ablation

   Options: --runs N (fallback stress iterations, default 200; the paper
   uses 1000). An unknown arm or option exits 2. Absolute numbers are
   simulator cycles/energies — the SHAPES (who wins, by what factor,
   where break-evens sit) are the reproduction targets; see
   EXPERIMENTS.md. Host-side speed is not measured here: perfbench/ is
   the repository's performance harness. *)

open Tk_harness
open Tk_stats
module Translator = Tk_dbt.Translator
module Power = Tk_energy.Power_model
module Soc = Tk_machine.Soc

let fx = Report.fx
let f2 = Report.f2

(* ------------- shared measured runs (computed lazily once) ----------- *)

let nat = lazy (Experiments.measure_native ())
let ark = lazy (Experiments.measure_mode Translator.Ark)
let mid = lazy (Experiments.measure_mode Translator.Mid)
let base = lazy (Experiments.measure_mode Translator.Baseline)

let overhead_of (r : Experiments.run) =
  Experiments.overhead ~native:(Lazy.force nat).Experiments.r_whole
    ~offloaded:r.Experiments.r_whole

(* ----------------------------- Table 3 ------------------------------- *)

let table3 () =
  let open Tk_isa.Spec in
  let implemented cat =
    List.length (List.filter (fun f -> f.category = cat) implemented_forms)
  in
  Report.table ~title:"Table 3: translation rules for v7a instruction forms"
    ~header:[ "Category"; "# forms"; "paper"; "v7m/guest"; "simulated" ]
    (List.map
       (fun (cat, paper) ->
         let lo, hi = host_range cat in
         [ category_name cat;
           string_of_int (count cat);
           string_of_int paper;
           (if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi);
           string_of_int (implemented cat) ])
       paper_counts
    @ [ [ "Total"; string_of_int total; "558"; "";
          string_of_int (List.length implemented_forms) ] ]);
  let ok =
    List.for_all
      (fun f ->
        match f.repr with
        | None -> true
        | Some i -> (
          match Tk_dbt.Rules.classify i with
          | cat, _ -> cat = f.category
          | exception Tk_dbt.Rules.Untranslatable _ ->
            f.category = No_counterpart))
      implemented_forms
  in
  Printf.printf "classifier/spec agreement: %s\n" (if ok then "yes" else "NO")

(* ----------------------------- Table 4 ------------------------------- *)

let table4 () =
  let open Tk_isa.Types in
  let guests =
    [ at (Mem { ld = true; size = Word; rt = 0; rn = 1;
                off = Oreg (2, LSR, 4); idx = Post });
      at (Dp (ADD, true, 0, 1, Imm 0x80000001));
      at (Dp (SUB, false, 0, 1, Reg 2)) ]
  in
  Printf.printf "\n== Table 4: sample translation (G1-G3) ==\n";
  let ark_total = ref 0 in
  List.iter
    (fun g ->
      let _, hosts = Tk_dbt.Rules.legalize ~gpc:0x10010000 g in
      ark_total := !ark_total + List.length hosts;
      Printf.printf "G: %-28s ->\n" (to_string g);
      List.iter
        (fun h -> Printf.printf "     H: %s\n" (to_string ~wide:true h))
        hosts)
    guests;
  (* the same three instructions through the QEMU-style baseline *)
  let soc = Soc.create () in
  let image =
    Tk_isa.Asm.link ~base:Soc.kernel_base
      [ { Tk_isa.Asm.name = "g";
          items =
            List.map (fun i -> Tk_isa.Asm.Ins i) guests
            @ [ Tk_isa.Asm.Ins (at (Bx lr)) ] } ]
      []
  in
  Tk_machine.Mem.load_image soc.Soc.mem image;
  let ctx =
    { Translator.mode = Translator.Baseline;
      classify_target = (fun _ -> Translator.T_normal);
      block_limit = Translator.default_block_limit;
      read_guest =
        (fun a -> Tk_isa.V7a.decode (Tk_machine.Mem.ram_read soc.Soc.mem a 4));
      legalize = Translator.default_legalize }
  in
  let b = Translator.translate ctx ~gpc:Soc.kernel_base in
  let baseline_count = List.length b.Translator.b_emits - 4 in
  Printf.printf
    "ARK: 3 guest -> %d host instructions (paper: 7)\n\
     baseline: 3 guest -> ~%d host instructions (paper: 27)\n"
    !ark_total baseline_count

(* ----------------------------- Table 5 ------------------------------- *)

let count_lines dir =
  try
    let files = Sys.readdir dir in
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".ml" then begin
          let ic = open_in (Filename.concat dir f) in
          let n = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr n
             done
           with End_of_file -> close_in ic);
          acc + !n
        end
        else acc)
      0 files
  with Sys_error _ -> 0

let table5 () =
  let b = Tk_drivers.Platform.build_image () in
  let sizes = Tk_kernel.Image.layer_sizes b in
  let layer l = List.assoc_opt l sizes |> Option.value ~default:0 in
  let emu_syms = Tk_kernel.Kabi.emulated in
  let emu_guest_bytes =
    List.fold_left
      (fun acc (name, sz) -> if List.mem name emu_syms then acc + sz else acc)
      0 b.Tk_kernel.Image.image.Tk_isa.Asm.frag_sizes
  in
  let dbt_sloc = count_lines "lib/dbt" and emu_sloc = count_lines "lib/core" in
  Report.table ~title:"Table 5: source inventory (simulation equivalent)"
    ~header:[ "Component"; "amount"; "paper" ]
    [ [ "Existing kernel code, translated (guest instrs)";
        string_of_int
          (((Tk_kernel.Image.instructions b * 4) - emu_guest_bytes) / 4);
        "15K SLoC" ];
      [ "  of which device-specific (bytes)";
        string_of_int (layer Tk_kernel.Image.Device_specific); "-" ];
      [ "  of which driver libs (bytes)";
        string_of_int (layer Tk_kernel.Image.Driver_lib); "-" ];
      [ "  of which kernel libs (bytes)";
        string_of_int (layer Tk_kernel.Image.Kernel_lib); "-" ];
      [ "  of which kernel services (bytes)";
        string_of_int (layer Tk_kernel.Image.Kernel_service); "-" ];
      [ "Substituted with emulation (guest instrs)";
        string_of_int (emu_guest_bytes / 4); "25K SLoC" ];
      [ "New: DBT engine (OCaml lines)";
        (if dbt_sloc = 0 then "(run from repo root)"
         else string_of_int dbt_sloc);
        "9K SLoC" ];
      [ "New: emulated services / ARK (OCaml lines)";
        (if emu_sloc = 0 then "(run from repo root)"
         else string_of_int emu_sloc);
        "1K SLoC" ] ]

(* ----------------------------- Table 6 ------------------------------- *)

let table6 () =
  let c (p : Tk_machine.Core.params) cache_kb =
    [ p.Tk_machine.Core.cname;
      Printf.sprintf "%d MHz" p.Tk_machine.Core.freq_mhz;
      Printf.sprintf "%d KB" cache_kb;
      Printf.sprintf "%.0f mW" p.Tk_machine.Core.busy_mw;
      Printf.sprintf "%.0f mW" p.Tk_machine.Core.idle_mw ]
  in
  Report.table ~title:"Table 6: platform parameters (OMAP4460 model)"
    ~header:[ "Core"; "clock"; "LLC"; "busy power"; "idle power" ]
    [ c Soc.a9_params Soc.a9_cache_kb; c Soc.m3_params Soc.m3_cache_kb ]

(* ----------------------------- Figure 3 ------------------------------ *)

let fig3 () =
  let module V = Tk_kernel.Variants in
  let module L = Tk_kernel.Layout in
  let b = Tk_drivers.Platform.build_image () in
  let per_layer l =
    List.length (List.filter (fun (_, l') -> l' = l) b.Tk_kernel.Image.layers)
  in
  Report.table
    ~title:"Figure 3a: kernel functions referenced by suspend/resume"
    ~header:[ "Layer"; "# functions (minikern)"; "paper (v4.4)" ]
    [ [ "device-specific";
        string_of_int (per_layer Tk_kernel.Image.Device_specific); "1060" ];
      [ "driver libs"; string_of_int (per_layer Tk_kernel.Image.Driver_lib);
        "384" ];
      [ "kernel libs"; string_of_int (per_layer Tk_kernel.Image.Kernel_lib);
        "155" ];
      [ "kernel services";
        string_of_int (per_layer Tk_kernel.Image.Kernel_service); "845" ] ];
  let rows =
    List.map
      (fun ((a : L.t), (b' : L.t)) ->
        let fa = V.struct_fields a and fb = V.struct_fields b' in
        let types_changed =
          List.length (List.filter (fun (n, f) -> List.assoc n fb <> f) fa)
        in
        let ba = Tk_drivers.Platform.build_image ~layout:a () in
        let bb = Tk_drivers.Platform.build_image ~layout:b' () in
        (* compare the actual compiled code of each function *)
        let words (img : Tk_isa.Asm.image) name size =
          let addr = Tk_isa.Asm.symbol img name in
          List.init (size / 4) (fun i ->
              img.Tk_isa.Asm.words.((addr - img.Tk_isa.Asm.base) / 4 + i))
        in
        let ia = ba.Tk_kernel.Image.image
        and ib = bb.Tk_kernel.Image.image in
        let funcs_changed =
          List.length
            (List.filter
               (fun (name, size) ->
                 match
                   List.assoc_opt name ib.Tk_isa.Asm.frag_sizes
                 with
                 | Some size' ->
                   size <> size' || words ia name size <> words ib name size'
                 | None -> true)
               ia.Tk_isa.Asm.frag_sizes)
        in
        [ a.L.version ^ " -> " ^ b'.L.version;
          string_of_int funcs_changed; string_of_int types_changed; "0" ])
      [ (V.v3_16, L.v4_4); (L.v4_4, V.v4_9); (V.v4_9, V.v4_20) ]
  in
  Report.table ~title:"Figure 3b: ABI churn across kernel releases"
    ~header:
      [ "Releases"; "functions w/ changed code"; "types w/ changed layout";
        "Table 2 ABI changes" ]
    rows

(* ----------------------------- Figure 5 ------------------------------ *)

let fig5 () =
  let row (r : Experiments.run) =
    let w = r.Experiments.r_whole in
    let e = r.Experiments.r_energy in
    [ r.Experiments.r_label;
      Printf.sprintf "%.2f" w.Experiments.p_busy_ms;
      Printf.sprintf "%.2f" w.Experiments.p_idle_ms;
      Printf.sprintf "%.1f" (e.Power.e_core_busy /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_core_idle /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_dram /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_io /. 1000.);
      Printf.sprintf "%.1f" (Power.total e /. 1000.) ]
  in
  let n = Lazy.force nat and a = Lazy.force ark and b = Lazy.force base in
  Report.table
    ~title:
      "Figure 5: device suspend/resume — accumulated time (ms) and energy \
       (mJ)"
    ~header:
      [ "Config"; "busy"; "idle"; "E core busy"; "E core idle"; "E DRAM";
        "E IO"; "E total" ]
    [ row n; row a; row b ];
  let rel r =
    Power.total r.Experiments.r_energy /. Power.total n.Experiments.r_energy
  in
  Report.kv "Figure 5 headlines"
    [ ( "ARK energy vs native",
        Printf.sprintf "%s  (paper: 66%%)" (Report.pct (rel a)) );
      ( "baseline energy vs native",
        Printf.sprintf "%.1fx  (paper: 5.1x)" (rel b) );
      ( "ARK busy time vs native",
        Printf.sprintf "%s  (paper: ~16x)"
          (fx
             (a.Experiments.r_whole.Experiments.p_busy_ms
             /. n.Experiments.r_whole.Experiments.p_busy_ms)) );
      ( "ARK idle time vs native",
        Printf.sprintf "%s  (paper: equal)"
          (fx
             (a.Experiments.r_whole.Experiments.p_idle_ms
             /. n.Experiments.r_whole.Experiments.p_idle_ms)) ) ]

(* ----------------------------- Figure 6 ------------------------------ *)

let fig6 () =
  let n = Lazy.force nat in
  let per_dev (r : Experiments.run) =
    List.map2
      (fun (name, ns, nr) (name', os, orr) ->
        assert (name = name');
        ( name,
          Experiments.overhead ~native:ns ~offloaded:os,
          Experiments.overhead ~native:nr ~offloaded:orr ))
      n.Experiments.r_devices r.Experiments.r_devices
  in
  let a = per_dev (Lazy.force ark) in
  let m = per_dev (Lazy.force mid) in
  let b = per_dev (Lazy.force base) in
  let rows =
    List.map
      (fun ((name, sa, ra), ((_, sm, rm), (_, sb, rb))) ->
        [ name; fx sb; fx sm; fx sa; fx rb; fx rm; fx ra ])
      (List.combine a (List.combine m b))
  in
  Report.table
    ~title:
      "Figure 6: busy overhead per device (suspend | resume; M3 cycles / A9 \
       cycles)"
    ~header:
      [ "Device"; "base S"; "+reg S"; "ARK S"; "base R"; "+reg R"; "ARK R" ]
    rows;
  let avg f l =
    List.fold_left (fun x y -> x +. f y) 0.0 l /. float_of_int (List.length l)
  in
  Report.kv "Figure 6 aggregates"
    [ ( "ARK mean overhead",
        Printf.sprintf
          "suspend %s, resume %s, whole-phase %s (paper: 2.9 / 2.6 / 2.7)"
          (fx (avg (fun (_, s, _) -> s) a))
          (fx (avg (fun (_, _, r) -> r) a))
          (fx (overhead_of (Lazy.force ark))) );
      ( "baseline mean overhead",
        Printf.sprintf "%s whole-phase (paper: 13.9x, 5.2x worse than ARK)"
          (fx (overhead_of (Lazy.force base))) );
      ( "reg passthrough gain over baseline",
        Printf.sprintf "%s (paper: 2.5-5.5x)"
          (fx (overhead_of (Lazy.force base) /. overhead_of (Lazy.force mid)))
      );
      ( "control-transfer + remaining gain",
        Printf.sprintf "%s (paper: ~2x)"
          (fx (overhead_of (Lazy.force mid) /. overhead_of (Lazy.force ark)))
      ) ]

(* ----------------------------- Figure 7 ------------------------------ *)

let fig7 () =
  let module W = Tk_energy.Whatif in
  let overheads = [ 1.; 3.; 5.; 7.; 9.; 11.; 13.; 15. ] in
  let busy_fracs = [ 0.2; 0.41; 0.6; 0.8; 1.0 ] in
  let grid = W.grid ~overheads ~busy_fracs () in
  Report.table
    ~title:
      "Figure 7: ARK system energy relative to native (rows: native busy \
       fraction; cols: DBT overhead)"
    ~header:("busy\\ovh" :: List.map fx overheads)
    (List.map
       (fun (bf, series) ->
         Report.pct bf :: List.map (fun (_, v) -> Report.pct v) series)
       grid);
  let be100 = W.break_even ~busy_frac:1.0 () in
  let be20 = W.break_even ~busy_frac:0.2 () in
  let a = Lazy.force ark and n = Lazy.force nat in
  let measured_busy =
    n.Experiments.r_whole.Experiments.p_busy_ms
    /. (n.Experiments.r_whole.Experiments.p_busy_ms
       +. n.Experiments.r_whole.Experiments.p_idle_ms)
  in
  Report.kv "Figure 7 break-evens"
    [ ( "saves energy even at 100% busy below",
        Printf.sprintf "%s overhead (paper: 3.5x)" (fx be100) );
      ( "wastes energy even at 20% busy above",
        Printf.sprintf "%s overhead (paper: 5.2x)" (fx be20) );
      ( "measured ARK operating point",
        Printf.sprintf "(%.1fx overhead, %s native busy)" (overhead_of a)
          (Report.pct measured_busy) ) ]

(* ------------------------------- abi --------------------------------- *)

let abi () =
  let module V = Tk_kernel.Variants in
  Printf.printf "\n== Build once, work with many (§7.2) ==\n";
  Printf.printf "Table 2 ABI: %s + jiffies (12 funcs + 1 var)\n"
    (String.concat ", "
       (List.filter (fun s -> s <> "jiffies") Tk_kernel.Kabi.table2));
  List.iter
    (fun (lay : Tk_kernel.Layout.t) ->
      let ark = Ark_run.create ~layout:lay () in
      let r1 = Ark_run.suspend_resume_cycle ark in
      let r2 = Ark_run.suspend_resume_cycle ark in
      let ok =
        r1 = `Ok && r2 = `Ok
        && List.for_all
             (fun (_, s) -> s = 1)
             (Native_run.device_states ark.Ark_run.nat)
      in
      Printf.printf "kernel %-6s: %s\n" lay.Tk_kernel.Layout.version
        (if ok then "ARK binary works (2 cycles, clean)" else "FAILED"))
    V.all;
  (* and across kernel *configurations* (device subsets) x versions *)
  let configs =
    [ ("full (9 devices)", Tk_drivers.Platform.registration_order);
      ("defconfig-ish (4)", [ "reg"; "mmc"; "sd"; "wifi" ]);
      ("headless (3)", [ "reg"; "usb"; "flash" ]) ]
  in
  List.iter
    (fun (lay : Tk_kernel.Layout.t) ->
      List.iter
        (fun (cname, devices) ->
          let ark = Ark_run.create ~layout:lay ~devices () in
          let ok =
            Ark_run.suspend_resume_cycle ark = `Ok
            && List.for_all
                 (fun (_, s) -> s = 1)
                 (Native_run.device_states ark.Ark_run.nat)
          in
          Printf.printf "kernel %-6s x %-18s: %s\n"
            lay.Tk_kernel.Layout.version cname
            (if ok then "OK" else "FAILED"))
        configs)
    [ V.v3_16; Tk_kernel.Layout.v4_4; V.v4_20 ]

(* ----------------------------- services ------------------------------ *)

let services () =
  let a = Lazy.force ark in
  let ark_run = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark_run);
  let c = ark_run.Ark_run.ark.Transkernel.Ark.counters in
  Printf.printf "\n== Emulated services (§7.3) ==\n";
  Printf.printf "share of busy execution: %s (paper: ~1%%)\n"
    (Report.pct
       (float_of_int a.Experiments.r_emu_cycles
       /. float_of_int a.Experiments.r_whole.Experiments.p_busy_cycles));
  Printf.printf "early interrupt stage: %d M3 cycles/interrupt (paper: 3.9K)\n"
    Transkernel.Ark.cost_early_irq;
  let service_counter (k, _) =
    let pre p =
      let n = String.length p in
      String.length k > n && String.sub k 0 n = p
    in
    pre "emu." || pre "hook."
  in
  Report.counters "downcall/hook counts for one offloaded cycle"
    (List.filter service_counter (Counters.to_assoc c));
  (* second warm cycle, rendered as a delta: translations are cached by
     now, so only the steady-state service traffic remains *)
  let before = Counters.snapshot c in
  ignore (Ark_run.suspend_resume_cycle ark_run);
  Report.counter_deltas "second (warm) cycle delta"
    (List.filter service_counter (Counters.diff before (Counters.snapshot c)))

(* ----------------------------- fallback ------------------------------ *)

let fallback ~runs () =
  Printf.printf
    "\n== Fallback stress (§7.3; paper: 1000 runs, 4 fallbacks, all WiFi \
     firmware) ==\n%!";
  let glitch_every = max 1 (runs / 4) in
  let total, fell, reasons, ark = Experiments.stress ~runs ~glitch_every () in
  Printf.printf "%d suspend/resume runs, %d fallbacks (%s)\n" total fell
    (String.concat "," reasons);
  Printf.printf
    "per-fallback cost: stack rewrite ~%d us, cache flush ~%d us, IPI ~%d us\n"
    (Transkernel.Ark.ns_stack_rewrite / 1000)
    (Transkernel.Ark.ns_cache_flush / 1000)
    (Transkernel.Ark.ns_ipi / 1000);
  let c = ark.Ark_run.ark.Transkernel.Ark.counters in
  Printf.printf "migrations: %d; cold calls skipped while draining: %d\n"
    (Counters.get c "fallback.migrations")
    (Counters.get c "fallback.cold_skipped")

(* ------------------------------- dram -------------------------------- *)

let dram () =
  let rate (r : Experiments.run) bytes =
    let active =
      r.Experiments.r_whole.Experiments.p_busy_ms
      +. r.Experiments.r_whole.Experiments.p_idle_ms
    in
    float_of_int bytes /. 1e6 /. (active /. 1e3)
  in
  let row (r : Experiments.run) =
    [ r.Experiments.r_label;
      f2 (rate r r.Experiments.r_rd_bytes) ^ " MB/s";
      f2 (rate r r.Experiments.r_wr_bytes) ^ " MB/s" ]
  in
  Report.table
    ~title:"DRAM activity (§7.3; paper: ARK 32/2 MB/s vs native 8/4 MB/s)"
    ~header:[ "Config"; "read"; "write" ]
    [ row (Lazy.force nat); row (Lazy.force ark); row (Lazy.force base) ];
  Printf.printf
    "shape target: ARK read rate well above native's (M3's %d KB LLC vs A9's \
     %d KB)\n"
    Soc.m3_cache_kb Soc.a9_cache_kb

(* ----------------------------- biglittle ----------------------------- *)

let biglittle () =
  let n = Lazy.force nat and a = Lazy.force ark in
  let e_native = Power.total n.Experiments.r_energy in
  let little =
    Tk_energy.Battery.little_relative ~a9:Soc.a9_params
      ~busy_ms:n.Experiments.r_whole.Experiments.p_busy_ms
      ~idle_ms:n.Experiments.r_whole.Experiments.p_idle_ms
      ~e_native_uj:e_native ()
  in
  Report.kv "big.LITTLE comparison (§7.4)"
    [ ("LITTLE core relative energy", Report.pct little ^ "  (paper: 77%)");
      ( "ARK relative energy",
        Report.pct (Power.total a.Experiments.r_energy /. e_native)
        ^ "  (paper: 51-66%)" );
      ( "why",
        Printf.sprintf "LITTLE idle power is %.0fx the peripheral core's"
          (Tk_energy.Battery.little_defaults.Tk_energy.Battery.l_idle_mw
          /. Soc.m3_params.Tk_machine.Core.idle_mw) ) ]

(* ------------------------------ battery ------------------------------ *)

let battery () =
  let n = Lazy.force nat and a = Lazy.force ark in
  let ark_rel =
    Power.total a.Experiments.r_energy /. Power.total n.Experiments.r_energy
  in
  let module B = Tk_energy.Battery in
  let rows =
    List.map
      (fun (interval, frac) ->
        let ext = B.extension ~susp_frac:frac ~ark_rel () in
        [ Printf.sprintf "%ds interval, %s of cycle energy" interval
            (Report.pct frac);
          Report.pct ext;
          Printf.sprintf "%.1f h/day" (B.hours_per_day ext) ])
      [ (5, 0.9); (30, 0.5) ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Battery-life extension (§7.4; measured ARK relative energy %s; \
          paper: 18%% / 7%%)"
         (Report.pct ark_rel))
    ~header:[ "Workload point"; "extension"; "hours per day" ]
    rows

(* ------------------------------ aarch64 ------------------------------ *)

let aarch64 () =
  Printf.printf
    "\n== §7.5 what-if: 64-bit guest on a 32-bit peripheral core (Table 7) \
     ==\n";
  Printf.printf
    "With an AArch64 guest the host can no longer pass registers through\n\
     (31 x 64-bit GPRs vs 13 x 32-bit) and must emulate them in memory —\n\
     the engine degenerates towards the register-emulating designs we\n\
     measured:\n\n";
  Printf.printf "  passthrough (ARK, 32-bit pair):   %s overhead\n"
    (fx (overhead_of (Lazy.force ark)));
  Printf.printf "  registers emulated (mid config):  %s overhead\n"
    (fx (overhead_of (Lazy.force mid)));
  Printf.printf "  full emulation (baseline):        %s overhead\n\n"
    (fx (overhead_of (Lazy.force base)));
  Printf.printf
    "so the 64/32 pairing forfeits a %.1fx-%.1fx slice of ARK's gain, as the \
     paper's Table 7 G1->H1 example illustrates.\n"
    (overhead_of (Lazy.force mid) /. overhead_of (Lazy.force ark))
    (overhead_of (Lazy.force base) /. overhead_of (Lazy.force ark))

(* ------------------------------ ablation ----------------------------- *)

(* Design-choice ablations DESIGN.md calls out: branch chaining, the
   translation-block size, the peripheral core's LLC (§7.5), and
   asynchronous device suspend (Linux's parallelized transitions [50]). *)
let ablation () =
  Printf.printf "\n== Ablations ==\n%!";
  let measure_cycle ?(tune = fun (_ : Ark_run.t) -> ()) () =
    let ark = Ark_run.create () in
    tune ark;
    ignore (Ark_run.suspend_resume_cycle ark);
    let m3 = (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3 in
    Tk_machine.Core.reset_activity m3;
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Printf.printf "  (fell back: %s)\n" r);
    (Tk_machine.Core.activity m3, ark)
  in
  (* 1. branch chaining *)
  let on, _ = measure_cycle () in
  let off, ark_off =
    measure_cycle ~tune:(fun a ->
        a.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.chain <- false)
      ()
  in
  Report.table ~title:"Ablation: direct-branch chaining (patching)"
    ~header:[ "Config"; "busy cycles"; "engine exits" ]
    [ [ "chaining on (ARK)"; string_of_int on.Tk_machine.Core.a_busy_cycles;
        "(patched)" ];
      [ "chaining off"; string_of_int off.Tk_machine.Core.a_busy_cycles;
        string_of_int
          ark_off.Ark_run.ark.Transkernel.Ark.engine
            .Tk_dbt.Engine.engine_exits ] ];
  Printf.printf "chaining saves %s of busy cycles\n"
    (Report.pct
       (1.
       -. float_of_int on.Tk_machine.Core.a_busy_cycles
          /. float_of_int off.Tk_machine.Core.a_busy_cycles));
  (* 2. translation-block size *)
  let rows =
    List.map
      (fun limit ->
        let act, ark =
          measure_cycle ~tune:(fun a ->
              a.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.block_limit
              <- limit)
            ()
        in
        [ string_of_int limit;
          string_of_int act.Tk_machine.Core.a_busy_cycles;
          string_of_int
            ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.blocks;
          string_of_int
            ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.host_emitted
        ])
      [ 4; 8; 16; 32 ]
  in
  Report.table ~title:"Ablation: translation-block size (guest instrs)"
    ~header:[ "limit"; "busy cycles"; "blocks"; "host emitted" ]
    rows;
  (* 3. peripheral-core LLC (§7.5 recommendation) *)
  let rows =
    List.map
      (fun kb ->
        let ark = Ark_run.create ~m3_cache_kb:kb () in
        ignore (Ark_run.suspend_resume_cycle ark);
        let m3 = (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3 in
        Tk_machine.Core.reset_activity m3;
        ignore (Ark_run.suspend_resume_cycle ark);
        let act = Tk_machine.Core.activity m3 in
        let mbps =
          float_of_int act.Tk_machine.Core.a_rd_bytes /. 1e6
          /. (float_of_int
                (act.Tk_machine.Core.a_busy_ps + act.Tk_machine.Core.a_idle_ps)
             /. 1e12)
        in
        [ string_of_int kb ^ " KB";
          string_of_int act.Tk_machine.Core.a_busy_cycles;
          f2 mbps ^ " MB/s";
          string_of_int act.Tk_machine.Core.a_cache_misses ])
      [ 16; 32; 64; 128 ]
  in
  Report.table ~title:"Ablation: peripheral-core LLC size (§7.5)"
    ~header:[ "LLC"; "busy cycles"; "DRAM read"; "misses" ]
    rows;
  (* 4. async device suspend *)
  let phase_ms runner =
    let t0, t1 = runner () in
    float_of_int (t1 - t0) /. 1e6
  in
  let native_phase async =
    phase_ms (fun () ->
        let natr = Native_run.create () in
        List.iter (fun d -> Native_run.set_async natr d async)
          [ "kb"; "cam"; "bt" ];
        let soc = natr.Native_run.plat.Tk_drivers.Platform.soc in
        let t0 = soc.Soc.clock.Tk_machine.Clock.now in
        ignore (Native_run.call natr "dpm_suspend" []);
        let t1 = soc.Soc.clock.Tk_machine.Clock.now in
        ignore (Native_run.call natr "dpm_resume" []);
        (t0, t1))
  in
  let ark_phase async =
    phase_ms (fun () ->
        let ark = Ark_run.create () in
        List.iter (fun d -> Native_run.set_async ark.Ark_run.nat d async)
          [ "kb"; "cam"; "bt" ];
        ignore (Ark_run.suspend_resume_cycle ark);
        let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
        let t0 = soc.Soc.clock.Tk_machine.Clock.now in
        (match Transkernel.Ark.run_phase ark.Ark_run.ark `Suspend with
        | Transkernel.Ark.Completed -> ()
        | Transkernel.Ark.Fell_back _ -> ());
        let t1 = soc.Soc.clock.Tk_machine.Clock.now in
        (match Transkernel.Ark.run_phase ark.Ark_run.ark `Resume with
        | Transkernel.Ark.Completed -> ()
        | Transkernel.Ark.Fell_back _ -> ());
        (t0, t1))
  in
  Report.table
    ~title:
      "Ablation: asynchronous device suspend (kb/cam/bt async, Linux [50])"
    ~header:[ "Config"; "sync suspend (ms)"; "async suspend (ms)" ]
    [ [ "native"; f2 (native_phase false); f2 (native_phase true) ];
      [ "ARK"; f2 (ark_phase false); f2 (ark_phase true) ] ]

(* ------------------------------- main -------------------------------- *)

let arms ~runs =
  [ ("table3", table3); ("table4", table4); ("table5", table5);
    ("table6", table6); ("fig3", fig3); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("abi", abi); ("services", services);
    ("fallback", fallback ~runs); ("dram", dram); ("biglittle", biglittle);
    ("battery", battery); ("aarch64", aarch64); ("ablation", ablation) ]

(* a usage error exits 2 before any arm runs, so a mistyped name never
   passes for a successful run *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)
    fmt

let () =
  let rec parse runs acc = function
    | [] -> (runs, List.rev acc)
    | "--runs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some r when r > 0 -> parse r acc rest
      | _ -> usage_error "--runs expects a positive integer, got %S" n)
    | x :: rest -> parse runs (x :: acc) rest
  in
  let runs, selected = parse 200 [] (List.tl (Array.to_list Sys.argv)) in
  let arms = arms ~runs in
  List.iter
    (fun name ->
      if not (List.mem_assoc name arms) then
        usage_error
          "unknown arm or option %S; arms: %s. Host performance is \
           measured by perfbench: python3 perfbench/run.py --workload \
           steady|paper_suite|fleet --seed N --seconds S --trace 0|1"
          name
          (String.concat " " (List.map fst arms)))
    selected;
  let selected = if selected = [] then List.map fst arms else selected in
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> List.assoc name arms ()) selected;
  Printf.printf "\n(benchmarks done in %.1f s)\n" (Unix.gettimeofday () -. t0)
