(** Run manifests: machine-readable results + the regression gate.

    [arksim run --manifest] emits a manifest — a small JSON document
    carrying the run's identity (git rev, variant, kernel), its
    {e deterministic} metrics (simulated counters, the per-phase energy
    table from the attribution ledger) and its {e volatile} host figures
    (wall time, sim-MIPS). The campaign and fleet documents and
    perfbench's results are written with the same writer.
    [arksim report] diffs two such documents metric by metric with a
    tolerance band.

    No JSON library ships in this toolchain, so both the writer and the
    (deliberately minimal) reader live here. The reader flattens numeric
    leaves to dotted paths ("metrics.energy_uj.dram"), which is also the
    key syntax [report --only] accepts. It reads files from outside the
    program, so it fails closed: anything it cannot read exactly raises
    [Parse_error]. *)

(* ------------------------------ writing ------------------------------ *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Obj of (string * json) list
  | Arr of json list

(* every interpolated string goes through the shared escaper so the
   document stays valid JSON whatever the model data contains *)
let esc = Tk_stats.Json.escape

(** Canonical rendering: fixed float precision, insertion order
    preserved — two runs of the same code produce byte-identical
    documents, which the golden-digest test relies on. *)
let rec to_string = function
  | Int i -> string_of_int i
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6f" f
  | Str s -> "\"" ^ esc s ^ "\""
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ esc k ^ "\":" ^ to_string v) kvs)
    ^ "}"
  | Arr vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"

let rec pretty ?(indent = 0) j =
  match j with
  | Obj kvs when kvs <> [] ->
    let pad = String.make (indent + 2) ' ' in
    "{\n"
    ^ String.concat ",\n"
        (List.map
           (fun (k, v) ->
             pad ^ "\"" ^ esc k ^ "\": " ^ pretty ~indent:(indent + 2) v)
           kvs)
    ^ "\n" ^ String.make indent ' ' ^ "}"
  | Arr vs when vs <> [] ->
    let pad = String.make (indent + 2) ' ' in
    "[\n"
    ^ String.concat ",\n"
        (List.map (fun v -> pad ^ pretty ~indent:(indent + 2) v) vs)
    ^ "\n" ^ String.make indent ' ' ^ "]"
  | j -> to_string j

(* ------------------------------ git rev ------------------------------ *)

(** [git_rev ()] — the revision of the checkout the running binary was
    built in, read straight from [.git/HEAD] (no subprocess). The
    search starts from the binary's directory, not the cwd: a dune build
    puts it inside the checkout ([_build/default/bin/],
    [.bench_build/dune/default/perfbench/]), while the cwd can be any
    other checkout or none. "unknown" for a binary outside a work
    tree. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let l = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ -> None
  in
  let rec find_git dir depth =
    if depth > 6 then None
    else if Sys.file_exists (Filename.concat dir ".git") then
      Some (Filename.concat dir ".git")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git parent (depth + 1)
  in
  let exe = Sys.executable_name in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  match find_git (Filename.dirname exe) 0 with
  | None -> "unknown"
  | Some git -> (
    match read_line (Filename.concat git "HEAD") with
    | None -> "unknown"
    | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        (match read_line (Filename.concat git r) with
        | Some rev when rev <> "" -> rev
        | _ -> "unknown")
      else if head <> "" then head
      else "unknown")

(* ------------------------------ digest ------------------------------- *)

(** FNV-1a over the canonical serialization of the {e deterministic}
    sections only (metrics + counters) — host wall time and throughput
    never perturb it. Same digest scheme as the flight recorder's. *)
let fnv_prime = 0x100000001b3

let digest_string s =
  let h = ref 0x1bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * fnv_prime land max_int)
    s;
  Printf.sprintf "%016x" !h

(** [counters_obj kvs] — a counter list as one flat JSON object, in
    list order. *)
let counters_obj kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)

let metrics_digest ~metrics ~counters =
  digest_string (to_string (Obj [ ("metrics", metrics); ("counters", counters) ]))

(** [make ~variant ~kernel ~cycles ~metrics ~counters ~host ()] — the
    manifest document (schema documented in README "Telemetry"). *)
let make ~variant ~kernel ~cycles ~metrics ~counters ~host () =
  Obj
    [ ("schema", Str "arksim-manifest-v1");
      ( "meta",
        Obj
          [ ("git_rev", Str (git_rev ())); ("variant", Str variant);
            ("kernel", Str kernel); ("cycles", Int cycles) ] );
      ("metrics", metrics); ("counters", counters); ("host", host);
      ("digest", Str (metrics_digest ~metrics ~counters)) ]

let write_file path j =
  let oc = open_out path in
  output_string oc (pretty j);
  output_char oc '\n';
  close_out oc

(* ------------------------------ reading ------------------------------ *)

exception Parse_error of string

(** Deepest nesting the reader accepts. Manifests, campaign and fleet
    documents nest fewer than 10 levels; the bound keeps the reader's
    stack and its per-level path strings small on hostile input. *)
let max_depth = 32

(** Minimal JSON reader, just enough for our own manifests, campaign
    and fleet documents: objects, arrays, numbers, strings,
    true/false/null. Numeric leaves land in a flat
    [(dotted.path, value)] list; everything else is structure or
    ignored. Input it cannot read exactly — nesting past [max_depth], a
    non-finite number, a misspelt literal — raises [Parse_error]. *)
let load_flat path =
  let s =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  in
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos >= len then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          (* keep the raw escape; path keys never use them *)
          Buffer.add_char b '?';
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < len && is_num s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail "non-finite number"
    | None -> fail "malformed number"
  in
  let literal word =
    let n = String.length word in
    if !pos + n > len || String.sub s !pos n <> word then
      fail ("expected " ^ word);
    pos := !pos + n
  in
  let acc = ref [] in
  let emit path v = acc := (path, v) :: !acc in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let deeper depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    depth + 1
  in
  let rec parse_value depth path =
    skip_ws ();
    match peek () with
    | '{' ->
      let depth = deeper depth in
      advance ();
      skip_ws ();
      if peek () = '}' then advance ()
      else begin
        let rec members () =
          let k = parse_string () in
          expect ':';
          parse_value depth (join path k);
          skip_ws ();
          if peek () = ',' then begin
            advance ();
            skip_ws ();
            members ()
          end
          else expect '}'
        in
        members ()
      end
    | '[' ->
      let depth = deeper depth in
      advance ();
      skip_ws ();
      if peek () = ']' then advance ()
      else begin
        let i = ref 0 in
        let rec elems () =
          parse_value depth (join path (string_of_int !i));
          incr i;
          skip_ws ();
          if peek () = ',' then begin
            advance ();
            skip_ws ();
            elems ()
          end
          else expect ']'
        in
        elems ()
      end
    | '"' -> ignore (parse_string ())
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> emit path (parse_number ())
  in
  parse_value 0 "";
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  List.rev !acc

(* --------------------------- comparison ------------------------------ *)

type direction = Higher_better | Lower_better | Neutral

(** Metric polarity by naming convention, so manifests stay plain data:
    throughput-like names regress downward, cost-like names regress
    upward, anything else is gated on |delta|.

    Cost-like substrings are checked {e first}: a key like [miss_rate]
    or [fallback_rate] is a cost expressed as a rate, and classifying it
    by its [rate] suffix would gate it in the wrong direction (a
    worsened miss rate would pass CI). Benefit-rates without a cost
    marker ([chain_hit_rate]) still land on [Higher_better].
    Span/latency keys are costs too: [*_ns] durations, [*_p99]
    quantiles, tracer [overhead] and reconciliation [residual] figures
    all regress upward. Certifier/elision counters: [rejects] and
    [mismatch] are costs, [elided] and superblock [chain_len] are
    benefits — without these, [probes_elided] and friends fell through
    to [Neutral], whose |delta| gate fails CI on an {e improvement}
    larger than the tolerance. Lockstep [skew] and barrier [wait] are
    costs. Pinned by test/test_timeseries.ml. *)
let direction_of key =
  let k = String.lowercase_ascii key in
  let has sub =
    let n = String.length sub and m = String.length k in
    let rec go i = i + n <= m && (String.sub k i n = sub || go (i + 1)) in
    go 0
  in
  if
    has "wall" || has "cycles" || has "_uj" || has "_ms" || has "bytes"
    || has "miss" || has "exits" || has "fallback" || has "divergen"
    || has "dropped" || has "stall" || has "error" || has "_ns"
    || has "_p99" || has "overhead" || has "residual" || has "rejects"
    || has "mismatch" || has "skew" || has "barrier_wait"
  then Lower_better
  else if
    has "mips" || has "throughput" || has "rate" || has "speedup"
    || has "per_sec" || has "elided" || has "chain_len"
  then Higher_better
  else Neutral

type verdict = {
  v_key : string;
  v_base : float;
  v_cand : float;
  v_delta_pct : float;  (** signed relative change, percent *)
  v_regressed : bool;
}

(** [compare_manifests ~baseline ~candidate ~only ~tolerance_pct] loads
    both files and checks every numeric metric present in both (the
    [meta]/[digest] sections carry no numbers, so they never gate).
    [only] restricts to the listed dotted paths, matched as suffixes so
    ["sim_mips"] finds ["host.sim_mips"] in a manifest and a top-level
    ["sim_mips"] alike. Returns the verdicts plus any keys of the
    baseline missing from the candidate. Unreadable input raises
    [Parse_error] (or [Sys_error] for a missing file), nothing else. *)
let compare_manifests ~baseline ~candidate ~only ~tolerance_pct =
  let base = load_flat baseline and cand = load_flat candidate in
  let suffix_match key pat =
    key = pat
    ||
    let kn = String.length key and pn = String.length pat in
    kn > pn
    && String.sub key (kn - pn) pn = pat
    && key.[kn - pn - 1] = '.'
  in
  let selected key =
    match only with
    | [] -> true
    | pats -> List.exists (suffix_match key) pats
  in
  let missing = ref [] in
  let verdicts =
    List.filter_map
      (fun (key, b) ->
        if not (selected key) then None
        else
          match List.assoc_opt key cand with
          | None ->
            missing := key :: !missing;
            None
          | Some c ->
            let delta_pct =
              if b = 0.0 then if c = 0.0 then 0.0 else infinity
              else (c -. b) /. Float.abs b *. 100.0
            in
            let regressed =
              match direction_of key with
              | Higher_better -> delta_pct < -.tolerance_pct
              | Lower_better -> delta_pct > tolerance_pct
              | Neutral -> Float.abs delta_pct > tolerance_pct
            in
            Some
              { v_key = key; v_base = b; v_cand = c;
                v_delta_pct = delta_pct; v_regressed = regressed })
      base
  in
  (verdicts, List.rev !missing)
