(* Flight-recorder regression — pins the event stream itself.

   The neutrality suite pins the simulated counters; this suite pins
   what the recorder *observes*: a golden digest (per-kind event
   totals, total event count, and a hash over the retained ring) of
   one fixed suspend/resume cycle in the native and ARK arms with
   tracing enabled. Any change to emission sites, event ordering, or
   payloads shows up here.

   Run the binary with TK_CAPTURE=1 to print fresh goldens. Recapture
   is legitimate when emission coverage intentionally changes (a new
   event kind, a new probe), never to paper over an accidental change
   in what existing sites record.

   The rest are unit checks on recorder mechanics: disabled recorders
   stay empty, kind filters mask counts, the ring drops oldest events
   at capacity, and the JSONL dump is line-per-event well-formed. *)

module Trace = Tk_stats.Trace
module Translator = Tk_dbt.Translator
module Native_run = Tk_harness.Native_run
module Ark_run = Tk_harness.Ark_run

type dg = { counts : int list; total : int; hash : int }

let pp d =
  Printf.sprintf "{ counts = [ %s ];\n    total = %d; hash = 0x%x }"
    (String.concat "; " (List.map string_of_int d.counts))
    d.total d.hash

let digest tr =
  let counts, total, hash = Trace.digest tr in
  { counts; total; hash }

(* [others] also turns the span tracer and the sampler on: the event
   stream must not depend on which other consumers are on *)
let others_on on (soc : Tk_machine.Soc.t) =
  if on then begin
    Tk_stats.Span.enable soc.Tk_machine.Soc.spans;
    Tk_stats.Timeseries.enable soc.Tk_machine.Soc.sampler
  end

let native_trace ?cap ?filter ?(others = false) () =
  let nat = Native_run.create () in
  others_on others nat.Native_run.plat.Tk_drivers.Platform.soc;
  (* enable after boot: the trace covers exactly one cycle *)
  Trace.enable ?cap ?filter (Native_run.trace nat);
  ignore (Native_run.suspend_resume_cycle nat);
  Native_run.trace nat

let ark_trace ?(others = false) () =
  let ark = Ark_run.create () in
  others_on others (Ark_run.plat ark).Tk_drivers.Platform.soc;
  Trace.enable (Ark_run.trace ark);
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  Ark_run.trace ark

(* ------------------- goldens (captured from seed) -------------------- *)

let golden_native =
  { counts =
      [ 1621853; 734337; 182182; 130; 126; 16; 0; 0; 0; 42; 0; 8064; 912 ];
    total = 2538686; hash = 0x30c7fcbacb7e8e83 }

let golden_ark =
  { counts =
      [ 1563306; 710453; 171367; 26; 13; 16; 297; 425; 0; 42; 0; 7063; 1041 ];
    total = 2445945; hash = 0x130c1faac40c192d }

let check_digest label golden got =
  if got <> golden then
    Alcotest.failf "%s: trace digest drifted\n  golden: %s\n  got:    %s"
      label (pp golden) (pp got)

let test_golden_native () =
  check_digest "native cycle" golden_native (digest (native_trace ()));
  check_digest "native cycle, spans and sampler on" golden_native
    (digest (native_trace ~others:true ()))

let test_golden_ark () =
  check_digest "ARK cycle" golden_ark (digest (ark_trace ()));
  check_digest "ARK cycle, spans and sampler on" golden_ark
    (digest (ark_trace ~others:true ()))

(* ------------------------ recorder mechanics ------------------------- *)

let test_disabled_empty () =
  let nat = Native_run.create () in
  ignore (Native_run.suspend_resume_cycle nat);
  let tr = Native_run.trace nat in
  Alcotest.(check int) "no events recorded" 0 tr.Trace.total;
  Alcotest.(check int) "nothing retained" 0 (Trace.retained tr);
  Alcotest.(check bool) "no phase marks" true (tr.Trace.marks = [])

let test_filter_masks () =
  let filter =
    match Trace.filter_of_names [ "irq" ] with
    | Ok m -> m
    | Error n -> Alcotest.failf "bad filter name %s" n
  in
  let tr = native_trace ~filter () in
  Alcotest.(check int) "no retires counted" 0 tr.Trace.counts.(Trace.ev_retire);
  Alcotest.(check int) "no reads counted" 0 tr.Trace.counts.(Trace.ev_read);
  Alcotest.(check int) "no writes counted" 0 tr.Trace.counts.(Trace.ev_write);
  Alcotest.(check bool) "irq delivers counted" true
    (tr.Trace.counts.(Trace.ev_irq_deliver) > 0);
  (* phase marks snapshot regardless of the event filter *)
  Alcotest.(check bool) "phase rows survive filtering" true
    (Trace.phase_rows tr <> [])

let test_ring_wrap () =
  let cap = 512 in
  let tr = native_trace ~cap () in
  Alcotest.(check int) "retained bounded by cap" cap (Trace.retained tr);
  Alcotest.(check bool) "older events dropped" true (Trace.dropped tr > 0);
  Alcotest.(check int) "total = retained + dropped" tr.Trace.total
    (Trace.retained tr + Trace.dropped tr);
  let visited = ref 0 in
  Trace.iter tr (fun ~time:_ ~core:_ ~kind:_ ~a:_ ~b:_ -> incr visited);
  Alcotest.(check int) "iter visits exactly the retained" cap !visited

(* every event code must round-trip through the name vocabulary: a kind
   added without a name (or a name without a parse) silently falls out
   of --trace-filter and of every JSONL consumer keyed on names *)
let test_kind_name_totality () =
  for k = 0 to Trace.nkinds - 1 do
    let n = Trace.kind_name k in
    if n = "?" || n = "" then
      Alcotest.failf "kind %d has no proper name (got %S)" k n;
    match Trace.kind_of_name n with
    | Some k' ->
      Alcotest.(check int) (Printf.sprintf "%S round-trips" n) k k'
    | None -> Alcotest.failf "kind %d name %S does not parse back" k n
  done;
  Alcotest.(check bool) "out-of-range code has no name" true
    (Trace.kind_name Trace.nkinds = "?");
  Alcotest.(check bool) "unknown name rejected" true
    (Trace.kind_of_name "not-a-kind" = None)

(* the filter-group aliases must cover exactly their member events:
   an alias silently gaining or losing a member changes what --trace-
   filter records without any parse error *)
let test_filter_aliases_exact () =
  let mask names =
    match Trace.filter_of_names names with
    | Ok m -> m
    | Error n -> Alcotest.failf "bad filter name %s" n
  in
  let bits kinds = List.fold_left (fun m k -> m lor (1 lsl k)) 0 kinds in
  Alcotest.(check int) "mem = read + write"
    (bits [ Trace.ev_read; Trace.ev_write ])
    (mask [ "mem" ]);
  Alcotest.(check int) "irq = raise + deliver"
    (bits [ Trace.ev_irq_raise; Trace.ev_irq_deliver ])
    (mask [ "irq" ]);
  Alcotest.(check int) "dbt = translate + chain + invalidate + form"
    (bits
       [ Trace.ev_translate; Trace.ev_chain; Trace.ev_invalidate;
         Trace.ev_form ])
    (mask [ "dbt" ]);
  Alcotest.(check int) "all covers every kind" Trace.all_kinds
    (mask [ "all" ]);
  Alcotest.(check int) "all_kinds is dense over nkinds"
    ((1 lsl Trace.nkinds) - 1)
    Trace.all_kinds;
  (* plain kind names OR into the same mask space as the groups *)
  Alcotest.(check int) "explicit members equal their group"
    (mask [ "irq-raise"; "irq-deliver" ])
    (mask [ "irq" ])

let test_jsonl_shape () =
  let tr = native_trace ~cap:256 () in
  let path = Filename.temp_file "tk_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.dump_jsonl oc tr;
      close_out oc;
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           let l = input_line ic in
           incr lines;
           let ok =
             String.length l > 2
             && l.[0] = '{'
             && l.[String.length l - 1] = '}'
           in
           if not ok then Alcotest.failf "malformed JSONL line: %s" l
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "one line per retained event" (Trace.retained tr)
        !lines)

let () =
  if Sys.getenv_opt "TK_CAPTURE" <> None then begin
    Printf.printf "let golden_native =\n  %s\n" (pp (digest (native_trace ())));
    Printf.printf "let golden_ark =\n  %s\n" (pp (digest (ark_trace ())));
    exit 0
  end;
  Alcotest.run "trace"
    [ ( "golden trace digests",
        [ Alcotest.test_case "native cycle" `Quick test_golden_native;
          Alcotest.test_case "ARK cycle" `Quick test_golden_ark ] );
      ( "recorder mechanics",
        [ Alcotest.test_case "disabled recorder stays empty" `Quick
            test_disabled_empty;
          Alcotest.test_case "kind filter masks counts" `Quick
            test_filter_masks;
          Alcotest.test_case "ring wraps at capacity" `Quick test_ring_wrap;
          Alcotest.test_case "JSONL dump is line-per-event" `Quick
            test_jsonl_shape ] );
      ( "event vocabulary",
        [ Alcotest.test_case "every kind round-trips by name" `Quick
            test_kind_name_totality;
          Alcotest.test_case "group aliases cover exact members" `Quick
            test_filter_aliases_exact ] ) ]
