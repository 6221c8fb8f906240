(** Persistent translation cache: serializes translated blocks and
    superblock plans keyed by a digest of the pristine guest image, so a
    second run of the same image warm-starts — every translation and
    formation the engine would perform is replayed from the store
    instead of re-deriving it from the guest stream.

    Replay is {e lazy}: the engine consults the store at the very same
    instants it would otherwise translate or form, and charges the same
    simulated translation cost, so a warm run's simulated timeline — and
    therefore its run-manifest digest — is byte-identical to the cold
    run's. What the store eliminates is the host-side translation work
    (decode, legalize, plan), which is where the wall-clock translation
    stalls live.

    Robustness discipline: [load] never lets a bad file poison a run —
    wrong magic, wrong version, wrong key, truncation or a corrupted
    payload all degrade to [None], i.e. an ordinary cold start. The
    image key is embedded in both the filename and the payload, so a
    stale cache directory for a rebuilt image simply misses. *)

type t = {
  key : string;  (** image digest this cache is valid for *)
  blocks : (int, Translator.block) Hashtbl.t;  (** guest start -> block *)
  traces : (int, Superblock.plan) Hashtbl.t;  (** chain head -> plan *)
}

(* bump on any change to Translator.block / Superblock.plan layout or to
   the file framing below *)
let version = 4
let magic = "TKDBTCACHE\n"

(* The framing is three plaintext header lines — the magic, the version
   and an MD5 of the Marshal payload — then the payload. Every header
   byte is compared exactly and the payload against its digest BEFORE
   any of it reaches [Marshal.from_string], whose failure mode on a
   stale layout or a flipped bit is undefined data or a crash, not a
   clean exception. *)
let header_of v = Printf.sprintf "version %d\n" v

let digest_line payload =
  Printf.sprintf "payload %s\n" (Digest.to_hex (Digest.string payload))

(* ----------------------------- keying -------------------------------- *)

let fnv32 h b = ((h lxor b) * 0x01000193) land 0xFFFFFFFF

(** [key_of_image ~base ~words] — FNV-1a over the link base and the
    pristine image words (the linker output, before any guest store). *)
let key_of_image ~base ~words =
  let h = ref 0x811C9DC5 in
  let word w =
    h := fnv32 !h (w land 0xFF);
    h := fnv32 !h ((w lsr 8) land 0xFF);
    h := fnv32 !h ((w lsr 16) land 0xFF);
    h := fnv32 !h ((w lsr 24) land 0xFF)
  in
  word base;
  word (Array.length words);
  Array.iter word words;
  Printf.sprintf "%08x" !h

(* ---------------------------- accessors ------------------------------ *)

let create ~key = { key; blocks = Hashtbl.create 64; traces = Hashtbl.create 8 }
let find_block t gpc = Hashtbl.find_opt t.blocks gpc

let record_block t gpc b =
  if not (Hashtbl.mem t.blocks gpc) then Hashtbl.add t.blocks gpc b

let find_trace t head = Hashtbl.find_opt t.traces head

let record_trace t (p : Superblock.plan) =
  if not (Hashtbl.mem t.traces p.Superblock.p_head) then
    Hashtbl.add t.traces p.Superblock.p_head p

(* --------------------------- persistence ----------------------------- *)

let path ~dir ~key = Filename.concat dir (Printf.sprintf "tkdbt-%s.cache" key)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Atomic, concurrency-safe save. The tmp name is unique per writer
    ([Filename.temp_file] stamps pid + a random suffix), so sweep tasks
    and fleet shards sharing one [--cache-dir] cannot rename each
    other's half-written files; the final [Sys.rename] into place is
    atomic and last-writer-wins. On any failure the tmp is unlinked by
    the finaliser, and an unwritable cache dir degrades to a warning —
    the run simply stays cold instead of crashing. *)
let save ~dir t =
  if not (Sys.file_exists dir) then (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = path ~dir ~key:t.key in
  match Filename.temp_file ~temp_dir:dir "tkdbt-save" ".tmp" with
  | exception Sys_error msg ->
    Printf.eprintf "warning: cache dir %s unwritable (%s); running cold\n%!"
      dir msg
  | tmp ->
    let committed = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !committed then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        (* sorted bindings: the file bytes are a function of the cache
           contents, not hash-table iteration order *)
        let payload =
          Marshal.to_string
            (t.key, sorted_bindings t.blocks, sorted_bindings t.traces)
            []
        in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc magic;
            output_string oc (header_of version);
            output_string oc (digest_line payload);
            output_string oc payload);
        Sys.rename tmp file;
        committed := true)

let load ~dir ~key =
  let read ic =
    let expect s = really_input_string ic (String.length s) = s in
    if not (expect magic && expect (header_of version)) then None
    else begin
      let sum = really_input_string ic (String.length (digest_line "")) in
      let payload = really_input_string ic (in_channel_length ic - pos_in ic) in
      if sum <> digest_line payload then None
      else
        let k, bl, tl =
          (Marshal.from_string payload 0
            : string
              * (int * Translator.block) list
              * (int * Superblock.plan) list)
        in
        if k <> key then None
        else begin
          let t = create ~key in
          List.iter (fun (g, b) -> Hashtbl.replace t.blocks g b) bl;
          List.iter (fun (h, p) -> Hashtbl.replace t.traces h p) tl;
          Some t
        end
    end
  in
  (* a missing or unreadable file raises [Sys_error], a truncated one
     [End_of_file]: both are a cold start *)
  match open_in_bin (path ~dir ~key) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try read ic with End_of_file | Sys_error _ -> None)
