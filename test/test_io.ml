(* Tests for Si_io.Io, the one owner of whole-file reads and atomic
   replacement: a write error reported at close is an [Error] that
   leaves neither a target nor a temp behind, for the seam and for the
   persists built on it; and no other module under lib/ renames files,
   spells the temp suffix, or reads a whole file by hand. *)

module Io = Si_io.Io
module Segment = Si_wal.Segment

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let scratch_dir () =
  let path = Filename.temp_file "si_io" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_round_trip () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "f.bin" in
  let bytes = String.init 300_000 (fun i -> Char.chr (i land 0xFF)) in
  check_bool "write" true (Io.write_atomic path bytes = Ok ());
  check_bool "read back" true (Io.read_file path = Ok bytes);
  check_bool "replace" true (Io.write_atomic path "short" = Ok ());
  check_bool "replaced whole" true (Io.read_file path = Ok "short");
  check_bool "no temp left" false (Sys.file_exists (Io.temp_path path));
  check_string "temp path" "f.bin.si-tmp" (Io.temp_path "f.bin");
  check_bool "temp recognized" true (Io.is_temp (Io.temp_path path));
  check_bool "target not a temp" false (Io.is_temp path);
  check_bool "character device" true (Io.read_file "/dev/null" = Ok "");
  (match Io.read_file (Filename.concat dir "missing") with
  | Ok _ -> Alcotest.fail "reading a missing file should fail"
  | Error msg -> check_bool "error is a message" true (msg <> ""));
  (match Io.write_atomic (Filename.concat dir "no/such/dir/f") "x" with
  | Ok () -> Alcotest.fail "writing into a missing directory should fail"
  | Error msg -> check_bool "error is a message" true (msg <> ""));
  remove_dir dir

(* Output smaller than the channel buffer reaches the file only when
   the temp is closed. Pointing the temp at /dev/full makes that close
   fail with ENOSPC: the write must report it, install nothing, and
   remove the temp (here a symlink). *)
let full_disk_case name write ~target =
  let dir = scratch_dir () in
  let target = Filename.concat dir target in
  Unix.symlink "/dev/full" (Io.temp_path target);
  (match write ~dir ~path:target with
  | Ok () -> Alcotest.failf "%s: a write that hit ENOSPC returned Ok" name
  | Error _ -> ());
  check_bool (name ^ ": no target, no temp") true (Sys.readdir dir = [||]);
  remove_dir dir

let test_full_disk () =
  if not (Sys.file_exists "/dev/full") then begin
    print_endline "/dev/full does not exist here: full-disk cases skipped";
    Alcotest.skip ()
  end;
  full_disk_case "Io.write_atomic" ~target:"f.bin" (fun ~dir:_ ~path ->
      Io.write_atomic path "a few bytes");
  full_disk_case "Si_bundle.capture_to_file" ~target:"pad.sib"
    (fun ~dir:_ ~path ->
      let app = Si_slimpad.Slimpad.create (Si_mark.Desktop.create ()) in
      Result.map ignore (Si_bundle.capture_to_file app ~path));
  let sealed =
    let dir = scratch_dir () in
    let file =
      match Segment.seal ~dir ~term:1 ~first:1 [ "a"; "b" ] with
      | Ok e -> e.Segment.seg_file
      | Error e -> Alcotest.failf "seal: %s" e
    in
    remove_dir dir;
    file
  in
  full_disk_case "Segment.seal" ~target:sealed (fun ~dir ~path:_ ->
      Result.map ignore (Segment.seal ~dir ~term:1 ~first:1 [ "a"; "b" ]));
  (* The in-place document writer raises instead of returning. *)
  check_bool "Print.to_file raises" true
    (match Si_xmlk.Print.to_file "/dev/full" (Si_xmlk.Node.element "a" []) with
    | () -> false
    | exception Sys_error _ -> true)

(* The atomic-replace rule and the temp suffix live in lib/io only;
   whole-file reads go through it too. A second copy of either grows
   back unseen unless something fails when it appears. *)
let forbidden =
  [
    "Sys.rename";
    "Unix.rename";
    "\".si-tmp\"";
    "input_all";
    "in_channel_length";
  ]

let contains line needle =
  let n = String.length needle and l = String.length line in
  let rec at i = i + n <= l && (String.sub line i n = needle || at (i + 1)) in
  at 0

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then sources path
         else if List.mem (Filename.extension name) [ ".ml"; ".mli" ] then
           [ path ]
         else [])

let offences path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.concat_map (fun (n, line) ->
         List.filter_map
           (fun tok ->
             if contains line tok then
               Some (Printf.sprintf "%s:%d: %s" path n tok)
             else None)
           forbidden)

let test_one_owner () =
  let lib = Filename.concat Filename.parent_dir_name "lib" in
  let seam = Filename.concat lib "io" in
  let all = sources lib in
  let seam_files, others =
    List.partition (fun p -> String.starts_with ~prefix:(seam ^ "/") p) all
  in
  check_bool "lib/ sources found" true (List.length others > 50);
  (* The scan sees the seam's own uses, so a miss is not a blind spot. *)
  check_bool "the seam itself is seen" true
    (List.concat_map offences seam_files <> []);
  Alcotest.(check (list string))
    "whole-file I/O outside lib/io" [] (List.concat_map offences others)

let suite =
  [
    ("read and atomic write round-trip", `Quick, test_round_trip);
    ("a write error at close is an Error and leaves nothing", `Quick,
     test_full_disk);
    ("one owner for whole-file I/O under lib/", `Quick, test_one_owner);
  ]
