(* Workspace loading shared by the slimpad CLI and the TUI.

   A workspace is a directory holding base documents (recognized by
   suffix) plus the superimposed store in pad.xml:

     *.workbook.xml   spreadsheet (Excel stand-in)
     *.doc.xml        word-processor document
     *.slides.xml     presentation
     *.pdf.xml        paginated document
     *.txt            plain text
     *.html           HTML page
     *.xml            any other XML document
     pad.xml          the SLIMPad store (triples + marks + journal)

   A workspace in journaled mode holds pad.wal (+ pad.wal.snap) instead
   of pad.xml; when a log is present it wins, and opening performs WAL
   recovery. *)

module Desktop = Si_mark.Desktop
module Slimpad = Si_slimpad.Slimpad

let pad_store dir = Filename.concat dir "pad.xml"
let wal_path dir = Filename.concat dir "pad.wal"

(* Shipping archive (sealed segments + base snapshots) for a workspace
   acting as a replication leader; also the default restore source. *)
let archive_path dir = Filename.concat dir "pad.archive"

let wal_present dir =
  Sys.file_exists (wal_path dir)
  || Sys.file_exists (Si_wal.Log.snapshot_path (wal_path dir))

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Rich documents live on disk with a serialization suffix; on the desktop
   they keep their logical name, so mark fileName fields stay stable. *)
let logical entry suffix =
  String.sub entry 0 (String.length entry - String.length suffix)

let load_desktop dir =
  let desk = Desktop.create () in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let problems = ref [] in
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      let fail msg =
        problems := Printf.sprintf "%s: %s" entry msg :: !problems
      in
      if entry = "pad.xml" then ()
      else if Si_io.Io.is_temp entry then
        (* Leftover from a crash mid-save: the real file was never
           replaced, so the temp copy is garbage — never load it. *)
        ()
      else if ends_with ~suffix:".workbook.xml" entry then
        match Si_spreadsheet.Workbook.load path with
        | Ok wb -> Desktop.add_workbook desk (logical entry ".workbook.xml") wb
        | Error e -> fail e
      else if ends_with ~suffix:".doc.xml" entry then
        match Si_wordproc.Wordproc.load path with
        | Ok d -> Desktop.add_word desk (logical entry ".doc.xml") d
        | Error e -> fail e
      else if ends_with ~suffix:".slides.xml" entry then
        match Si_slides.Slides.load path with
        | Ok d -> Desktop.add_slides desk (logical entry ".slides.xml") d
        | Error e -> fail e
      else if ends_with ~suffix:".pdf.xml" entry then
        match Si_pdfdoc.Pdfdoc.load path with
        | Ok d -> Desktop.add_pdf desk (logical entry ".pdf.xml") d
        | Error e -> fail e
      else if ends_with ~suffix:".txt" entry then
        match Si_textdoc.Textdoc.from_file path with
        | Ok d -> Desktop.add_text desk entry d
        | Error e -> fail e
      else if ends_with ~suffix:".html" entry then
        match Si_io.Io.read_file path with
        | Ok source -> Desktop.add_html desk entry source
        | Error e -> fail e
      else if ends_with ~suffix:".xml" entry then
        match Si_xmlk.Parse.file path with
        | Ok root -> Desktop.add_xml desk entry root
        | Error e -> fail (Si_xmlk.Parse.error_to_string e))
    entries;
  (desk, List.rev !problems)

let open_workspace ?resilient ?wrap
    ?(on_warning = Printf.eprintf "warning: %s\n") dir =
  let desk, problems = load_desktop dir in
  List.iter on_warning problems;
  if wal_present dir then
    match Slimpad.open_wal ?resilient ?wrap ~on_warning desk (wal_path dir) with
    | Error _ as e -> e
    | Ok (app, _) -> Ok app
  else
    let file = pad_store dir in
    if Sys.file_exists file then Slimpad.load ?resilient ?wrap desk file
    else Ok (Slimpad.create ?resilient ?wrap desk)

let save_workspace dir app =
  match Slimpad.persistence app with
  | Slimpad.Journaled -> Slimpad.wal_sync app
  | Slimpad.Whole_file -> Slimpad.save app (pad_store dir)
