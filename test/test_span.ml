(* Causal span tracer battery.

   Four groups:

   - vocabulary: every span kind round-trips through
     kind_name/kind_of_name (same totality discipline as the flight
     recorder's event vocabulary);
   - lifecycle: the phase-code dispatcher builds the documented causal
     tree from the very codes the guest and the runners emit — pinned
     against Tk_kernel.Hyper so the tracer's hardcoded codes can never
     drift from the hypercall ABI silently;
   - reconciliation: on a real offloaded run, every wakeup root's
     direct children sum to the root within 0.1%, in duration and in
     every attribution gauge (the ledger analogue of the energy bar);
   - exports: the span JSONL is one valid object per line and the
     Perfetto file is a single valid JSON document (checked with a
     strict recursive-descent validator, so a trailing comma or a bad
     escape fails here before it fails in ui.perfetto.dev). *)

open Tk_machine
open Tk_harness
module Span = Tk_stats.Span
module Hyper = Tk_kernel.Hyper

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --------------------------- vocabulary ------------------------------ *)

let test_kind_vocabulary () =
  for k = 0 to Span.nkinds - 1 do
    let n = Span.kind_name k in
    if n = "?" || n = "" then
      Alcotest.failf "span kind %d has no proper name (got %S)" k n;
    match Span.kind_of_name n with
    | Some k' -> check (Printf.sprintf "%S round-trips" n) k k'
    | None -> Alcotest.failf "span kind %d name %S does not parse back" k n
  done;
  checkb "out-of-range code has no name" true
    (Span.kind_name Span.nkinds = "?");
  checkb "unknown name rejected" true (Span.kind_of_name "not-a-kind" = None)

(* ---------------------------- lifecycle ------------------------------ *)

(* a tracer on a synthetic clock, driven by raw phase codes *)
let make_tracer () =
  let now = ref 0 in
  let rc = Tk_stats.Recorder.create ~now:(fun () -> !now) () in
  let t = rc.Tk_stats.Recorder.spans in
  Span.enable t;
  (t, now)

let closed t =
  let out = ref [] in
  Span.iter t (fun ~id:_ ~parent ~kind ~core:_ ~t0 ~t1 ~arg ->
      out := (kind, parent, t0, t1, arg) :: !out);
  List.rev !out

let test_phase_lifecycle () =
  let t, now = make_tracer () in
  (* one suspend / sleep / wakeup cycle, using the Hyper constants the
     guest emits and the 900/901 sleep codes the runners record *)
  now := 100;
  Span.phase t Hyper.ph_suspend_begin;
  now := 300;
  Span.phase t Hyper.ph_suspend_end;
  Span.phase t 900;
  now := 800;
  Span.phase t 901;
  Span.phase t Hyper.ph_resume_begin;
  now := 1000;
  Span.phase t Hyper.ph_resume_end;
  let spans = closed t in
  check "four closed spans" 4 (List.length spans);
  let find k = List.find (fun (k', _, _, _, _) -> k' = k) spans in
  let _, _, t0, t1, _ = find Span.sk_suspend in
  check "suspend t0" 100 t0;
  check "suspend t1" 300 t1;
  let _, _, t0, t1, _ = find Span.sk_sleep in
  check "sleep t0" 300 t0;
  check "sleep t1" 800 t1;
  let _, wparent, t0, t1, _ = find Span.sk_wakeup in
  check "wakeup root opens at the sleep-end mark" 800 t0;
  check "wakeup root closes at resume end" 1000 t1;
  check "wakeup is a root" (-1) wparent;
  let _, rparent, t0, t1, _ = find Span.sk_resume in
  check "resume t0" 800 t0;
  check "resume t1" 1000 t1;
  checkb "resume is the wakeup's child" true (rparent >= 0);
  (* unpaired end marks must not unwind unrelated open spans (the
     boot-time resume-end case) *)
  let t2, _ = make_tracer () in
  Span.phase t2 Hyper.ph_resume_end;
  check "unpaired end mark is a no-op" 0 (List.length (closed t2))

let test_device_marks () =
  let t, now = make_tracer () in
  (* device 2's resume interval: dev_mark + dev*10 + (2 begin / 3 end) *)
  now := 750;
  Span.phase t (Hyper.ph_dev_mark + (2 * 10) + 2);
  now := 780;
  Span.phase t (Hyper.ph_dev_mark + (2 * 10) + 3);
  match closed t with
  | [ (kind, parent, t0, t1, arg) ] ->
    check "dev-phase kind" Span.sk_dev_phase kind;
    check "async spans have no parent" (-1) parent;
    check "interval start" 750 t0;
    check "interval end" 780 t1;
    check "arg encodes device and direction" ((2 * 2) + 1) arg
  | l -> Alcotest.failf "expected one dev-phase span, got %d" (List.length l)

let test_disabled_is_empty () =
  let ark = Ark_run.create () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  ignore (Ark_run.suspend_resume_cycle ark);
  check "no spans recorded when disabled" 0 (Span.spans soc.Soc.spans);
  check "nothing dropped" 0 (Span.dropped soc.Soc.spans)

(* -------------------------- reconciliation --------------------------- *)

(* [others] also turns the flight recorder and the sampler on: the span
   stream must not depend on which other consumers are on *)
let traced_run ?(cycles = 2) ?(superblock = true) ?(others = false) () =
  let ark = Ark_run.create ~superblock () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  if others then begin
    Tk_stats.Trace.enable soc.Soc.trace;
    Tk_stats.Timeseries.enable soc.Soc.sampler
  end;
  Span.enable soc.Soc.spans;
  for _ = 1 to cycles do
    ignore (Ark_run.suspend_resume_cycle ark)
  done;
  soc.Soc.spans

let test_reconciliation () =
  let sp = traced_run () in
  checkb "spans recorded" true (Span.spans sp > 0);
  check "no spans dropped" 0 (Span.dropped sp);
  let r = Span.reconcile sp in
  check "one wakeup root per cycle" 2 r.Span.r_roots;
  if r.Span.r_max_dur_residual > 0.001 then
    Alcotest.failf "duration residual %.5f%% exceeds the 0.1%% bar"
      (r.Span.r_max_dur_residual *. 100.);
  if r.Span.r_max_attr_residual > 0.001 then
    Alcotest.failf "attribution residual %.5f%% exceeds the 0.1%% bar"
      (r.Span.r_max_attr_residual *. 100.)

let count_kind sp k =
  let n = ref 0 in
  Span.iter sp (fun ~id:_ ~parent:_ ~kind ~core:_ ~t0:_ ~t1:_ ~arg:_ ->
      if kind = k then incr n);
  !n

let test_producer_coverage () =
  (* a cold offloaded superblock run must light up every producer *)
  let sp = traced_run () in
  List.iter
    (fun (label, k) ->
      if count_kind sp k = 0 then
        Alcotest.failf "no %s spans on a cold superblock run" label)
    [ ("run", Span.sk_run); ("irq-deliver", Span.sk_irq_deliver);
      ("dbt-translate", Span.sk_dbt_translate);
      ("dbt-form", Span.sk_dbt_form); ("power-ramp", Span.sk_power_ramp);
      ("dev-phase", Span.sk_dev_phase); ("suspend", Span.sk_suspend);
      ("sleep", Span.sk_sleep); ("resume", Span.sk_resume);
      ("wakeup", Span.sk_wakeup) ]

(* ------------------------------ exports ------------------------------ *)

(* strict recursive-descent JSON validator: accepts exactly one JSON
   value spanning the whole string. Catches the failure modes a
   hand-rolled serializer actually produces (trailing commas, missing
   commas, bad escapes, truncation). *)
let validate_json label s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "%s: invalid JSON at byte %d: %s" label !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
      adv ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> adv ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
    else fail ("expected " ^ w)
  in
  let str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> adv ()
      | Some '\\' -> (
        adv ();
        match peek () with
        | Some _ ->
          adv ();
          go ()
        | None -> fail "dangling escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ ->
        adv ();
        go ()
      | None -> fail "unterminated string"
    in
    go ()
  in
  let num () =
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    if not (match peek () with Some c -> is_num c | None -> false) then
      fail "expected number";
    while (match peek () with Some c -> is_num c | None -> false) do
      adv ()
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> num ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' -> adv ()
    | _ ->
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          adv ();
          members ()
        | Some '}' -> adv ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' -> adv ()
    | _ ->
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          adv ();
          elems ()
        | Some ']' -> adv ()
        | _ -> fail "expected ',' or ']'"
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_temp_dump dump f =
  let path = Filename.temp_file "tk_span" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      dump oc;
      close_out oc;
      f (read_file path))

let test_jsonl_valid () =
  let sp = traced_run ~cycles:1 () in
  with_temp_dump
    (fun oc -> Span.dump_jsonl oc sp)
    (fun s ->
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
      in
      List.iteri
        (fun i l -> validate_json (Printf.sprintf "jsonl line %d" (i + 1)) l)
        lines;
      (* one line per closed span: every allocated span is closed once
         the cycle has fully unwound *)
      check "one line per span" (Span.spans sp) (List.length lines);
      let with_others = traced_run ~cycles:1 ~others:true () in
      with_temp_dump
        (fun oc -> Span.dump_jsonl oc with_others)
        (fun s' ->
          checkb "byte-identical with trace and sampler on" true (s = s')))

let test_perfetto_valid () =
  let ark = Ark_run.create ~superblock:true () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  Span.enable soc.Soc.spans;
  Tk_stats.Timeseries.enable soc.Soc.sampler;
  ignore (Ark_run.suspend_resume_cycle ark);
  with_temp_dump
    (fun oc ->
      Span.dump_perfetto ~timeseries:soc.Soc.sampler oc soc.Soc.spans)
    (fun s ->
      validate_json "perfetto" s;
      (* must be the Chrome trace-event envelope with both span ("X")
         and counter ("C") events *)
      checkb "traceEvents envelope" true
        (String.length s > 20 && String.sub s 0 16 = {|{"traceEvents": |});
      let has sub =
        let sn = String.length sub and m = String.length s in
        let rec go i =
          i + sn <= m && (String.sub s i sn = sub || go (i + 1))
        in
        go 0
      in
      checkb "complete events present" true (has {|"ph": "X"|});
      checkb "counter events present" true (has {|"ph": "C"|});
      checkb "thread metadata present" true (has {|"thread_name"|}))

let () =
  Alcotest.run "span"
    [ ( "vocabulary",
        [ Alcotest.test_case "every kind round-trips by name" `Quick
            test_kind_vocabulary ] );
      ( "lifecycle",
        [ Alcotest.test_case "phase codes build the causal tree" `Quick
            test_phase_lifecycle;
          Alcotest.test_case "device marks become async spans" `Quick
            test_device_marks;
          Alcotest.test_case "disabled tracer records nothing" `Quick
            test_disabled_is_empty ] );
      ( "reconciliation",
        [ Alcotest.test_case "wakeup trees reconcile within 0.1%" `Quick
            test_reconciliation;
          Alcotest.test_case "every producer lights up" `Quick
            test_producer_coverage ] );
      ( "exports",
        [ Alcotest.test_case "span JSONL is valid per line" `Quick
            test_jsonl_valid;
          Alcotest.test_case "perfetto export is valid JSON" `Quick
            test_perfetto_valid ] ) ]
