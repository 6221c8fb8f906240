(* Work-tree fixtures shared by the fleet and campaign suites: run a
   computation with the cwd inside or outside a git work tree, for the
   checks that a document's digest does not depend on the checkout. *)

module J = Tk_harness.Run_manifest

(* the revision [in_temp_dir ~rev] checks out *)
let fake_rev = "0123456789abcdef0123456789abcdef01234567"

(* [in_temp_dir ?rev f] runs [f] with the cwd in a fresh temp dir,
   which with [rev] is a work tree checked out at [rev] (a [.git/HEAD]
   naming it) and without is outside any work tree *)
let in_temp_dir ?rev f =
  let dir = Filename.temp_dir "tk_cwd" "" in
  let git = Filename.concat dir ".git" in
  let head = Filename.concat git "HEAD" in
  Option.iter
    (fun rev ->
      Sys.mkdir git 0o755;
      Out_channel.with_open_bin head (fun oc -> output_string oc (rev ^ "\n")))
    rev;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      if rev <> None then begin
        Sys.remove head;
        Sys.rmdir git
      end;
      Sys.rmdir dir)
    f

(* the [git_rev] a document's [host] section records, if any *)
let host_git_rev = function
  | J.Obj kvs -> (
    match List.assoc_opt "host" kvs with
    | Some (J.Obj host) -> List.assoc_opt "git_rev" host
    | _ -> None)
  | _ -> None
