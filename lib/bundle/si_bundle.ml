(* Capture bundles: a pad packaged as one deterministic, CRC-framed
   artifact. The container is the WAL binary snapshot codec with extra
   sections — snapshot decoding ignores sections it does not know, so
   a bundle is directly loadable as a snapshot (replica bootstrap,
   archive bases) while carrying metadata, the capture report, cached
   excerpts, and optional base documents on top.

   Capture is greedy (per-module failures go into the report, the
   artifact is always produced); apply is conservative (install-only,
   nothing overwritten, opt-in excerpt/base restore, one bad mark
   never blocks the rest). *)

module Slimpad = Si_slimpad.Slimpad
module Pad_format = Si_slimpad.Pad_format
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Manager = Si_mark.Manager
module Mark = Si_mark.Mark
module Wbin = Si_wal.Binary
module Record = Si_wal.Record
module Xml = Si_xmlk

let schema_version = 1
let min_schema_version = 1

(* --- observability --------------------------------------------------- *)

let capture_count = Si_obs.Registry.counter "bundle.capture"
let capture_bytes = Si_obs.Registry.counter "bundle.capture.bytes"
let capture_latency = Si_obs.Registry.histogram "bundle.capture"
let apply_count = Si_obs.Registry.counter "bundle.apply"
let apply_bytes = Si_obs.Registry.counter "bundle.apply.bytes"
let apply_latency = Si_obs.Registry.histogram "bundle.apply"

let timed hist ~op f =
  if Si_obs.Span.on () then Si_obs.Span.timed hist ~layer:"bundle" ~op f
  else f ()

(* --- section names --------------------------------------------------- *)

(* The pad's own sections (atoms, triples, marks, journal, watermark)
   are {!Pad_format}'s; these are the bundle's additions. *)
let meta_section = "bundle-meta"
let excerpts_section = "excerpts"
let report_section = "report"
let base_prefix = "base:"
let format_tag = "sibundle"

(* --- reports --------------------------------------------------------- *)

type problem = { p_module : string; p_source : string; p_reason : string }

let problem ~m ~source reason =
  { p_module = m; p_source = source; p_reason = reason }

let problem_to_string p =
  Printf.sprintf "%s: %s: %s" p.p_module p.p_source p.p_reason

type capture_report = {
  captured_triples : int;
  captured_marks : int;
  captured_bases : int;
  capture_problems : problem list;
  captured_digest : string;
}

type apply_report = {
  added_triples : int;
  skipped_triples : int;
  installed_marks : int;
  skipped_marks : int;
  restored_excerpts : int;
  restored_bases : int;
  skipped_bases : int;
  apply_problems : problem list;
}

(* --- base-document layout -------------------------------------------- *)

type base_reader =
  kind:string -> name:string -> (string * string, string) result

type base_writer =
  kind:string ->
  name:string ->
  filename:string ->
  string ->
  (bool, string) result

(* Kept as names because callers outside the library use them. *)
let read_file = Si_io.Io.read_file
let write_file ~path contents = Si_io.Io.write_atomic path contents

module Layout = struct
  (* Mirrors the workspace convention: rich documents live on disk
     with a serialization suffix but keep their logical name on the
     desktop (so mark fileName fields stay stable); text/HTML/XML
     logical names already are file names. *)
  let disk_name ~kind ~name =
    match kind with
    | "excel" -> name ^ ".workbook.xml"
    | "word" -> name ^ ".doc.xml"
    | "slides" -> name ^ ".slides.xml"
    | "pdf" -> name ^ ".pdf.xml"
    | _ -> name

  let reader ~dir ~kind ~name =
    let file = disk_name ~kind ~name in
    Result.map (fun contents -> (file, contents))
      (read_file (Filename.concat dir file))

  let writer ~dir ~kind:_ ~name:_ ~filename contents =
    (* A bundle is untrusted input: only plain basenames may land in
       the workspace, never a path that climbs out of it. *)
    if Filename.basename filename <> filename || filename = "" then
      Error (Printf.sprintf "%S is not a plain file name" filename)
    else
      let path = Filename.concat dir filename in
      if Sys.file_exists path then Ok false
      else Result.map (fun () -> true) (write_file ~path contents)
end

(* --- content digest -------------------------------------------------- *)

(* Atom ids are section-local and triples sorted, so equal pads hash
   equal on any machine or compiler version; journal, metadata,
   watermark, and base payloads deliberately stay outside the hash. *)
let digest_of sections =
  let section name = Wbin.section name sections in
  match
    Pad_format.
      (section atoms_section, section triples_section, section marks_section)
  with
  | Some atoms, Some triples, Some marks ->
      Ok
        (Digest.to_hex
           (Digest.string (String.concat "\x00" [ atoms; triples; marks ])))
  | _ -> Error "bundle: missing atoms/triples/marks sections"

let content_digest bytes =
  match Wbin.decode bytes with
  | Error e -> Error ("bundle: " ^ e)
  | Ok sections -> digest_of sections

let app_digest app =
  Result.get_ok
    (digest_of
       (Trim.binary_sections (Dmi.trim (Slimpad.dmi app))
       @ [
           ( Pad_format.marks_section,
             Xml.Print.to_string (Manager.to_xml (Slimpad.marks app)) );
         ]))

(* --- capture --------------------------------------------------------- *)

let meta_payload ~workspace_id ~triples ~marks ~bases =
  Record.encode_fields
    [
      format_tag;
      string_of_int schema_version;
      workspace_id;
      string_of_int triples;
      string_of_int marks;
      string_of_int bases;
    ]

let report_payload problems =
  Record.encode_fields
    (List.concat_map
       (fun p -> [ p.p_module; p.p_source; p.p_reason ])
       problems)

let excerpts_payload marks =
  List.concat_map
    (fun (m : Mark.t) ->
      if m.excerpt = "" then [] else [ m.mark_id; m.excerpt ])
    marks

(* The distinct (mark type, logical document name) pairs the marks
   address, in mark order — what --with-bases captures. *)
let base_targets marks =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (m : Mark.t) ->
      match Mark.field m "fileName" with
      | None -> None
      | Some name ->
          let key = (m.mark_type, name) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some key
          end)
    marks

let capture_sections ?(workspace_id = "") ?bases app =
  let dmi = Slimpad.dmi app in
  let marks_mgr = Slimpad.marks app in
  let marks = Manager.marks marks_mgr in
  let problems = ref [] in
  let base_sections =
    match bases with
    | None -> []
    | Some read ->
        List.filter_map
          (fun (kind, name) ->
            match read ~kind ~name with
            | Ok (filename, contents) ->
                Some
                  ( base_prefix ^ kind ^ ":" ^ name,
                    Record.encode_fields [ filename; contents ] )
            | Error reason ->
                problems := problem ~m:kind ~source:name reason :: !problems;
                None)
          (base_targets marks)
        |> List.sort compare
  in
  let problems = List.rev !problems in
  let n_triples = Trim.size (Dmi.trim dmi)
  and n_marks = List.length marks
  and n_bases = List.length base_sections in
  let pad_sections = Pad_format.sections dmi marks_mgr in
  let sections =
    ( meta_section,
      meta_payload ~workspace_id ~triples:n_triples ~marks:n_marks
        ~bases:n_bases )
    :: pad_sections
    @ (match excerpts_payload marks with
      | [] -> []
      | pairs -> [ (excerpts_section, Record.encode_fields pairs) ])
    @ (match problems with
      | [] -> []
      | ps -> [ (report_section, report_payload ps) ])
    @ Pad_format.watermark_sections (Slimpad.rep_meta app)
    @ base_sections
  in
  let report =
    {
      captured_triples = n_triples;
      captured_marks = n_marks;
      captured_bases = n_bases;
      capture_problems = problems;
      (* The pad's own sections always carry atoms, triples and marks. *)
      captured_digest = Result.get_ok (digest_of pad_sections);
    }
  in
  (sections, report)

let capture ?workspace_id ?bases app =
  timed capture_latency ~op:"bundle.capture" (fun () ->
      let sections, report = capture_sections ?workspace_id ?bases app in
      let bytes = Wbin.encode sections in
      Si_obs.Counter.incr capture_count;
      Si_obs.Counter.add capture_bytes (String.length bytes);
      (bytes, report))

let capture_to_file ?workspace_id ?bases app ~path =
  let bytes, report = capture ?workspace_id ?bases app in
  Result.map (fun () -> report) (write_file ~path bytes)

(* --- inspection ------------------------------------------------------ *)

type meta = {
  version : int;
  workspace_id : string;
  triple_count : int;
  mark_count : int;
  base_count : int;
  watermark : (int * int) option;
}

let meta_of_sections sections =
  match Wbin.section meta_section sections with
  | None ->
      Error
        "no bundle-meta section: a snapshot container, not a capture bundle"
  | Some raw -> (
      match Record.decode_fields raw with
      | Error e -> Error ("bundle-meta: " ^ e)
      | Ok [ tag; version; workspace_id; triples; marks; bases ] -> (
          if tag <> format_tag then
            Error (Printf.sprintf "bundle-meta: unknown format tag %S" tag)
          else
            match
              ( int_of_string_opt version,
                int_of_string_opt triples,
                int_of_string_opt marks,
                int_of_string_opt bases )
            with
            | Some version, Some triple_count, Some mark_count, Some base_count
              ->
                if version < min_schema_version || version > schema_version
                then
                  Error
                    (Printf.sprintf
                       "bundle schema version %d is outside the supported \
                        range %d..%d"
                       version min_schema_version schema_version)
                else
                  Ok
                    {
                      version;
                      workspace_id;
                      triple_count;
                      mark_count;
                      base_count;
                      watermark = Pad_format.watermark sections;
                    }
            | _ -> Error "bundle-meta: non-numeric counts")
      | Ok _ -> Error "bundle-meta: expected six fields")

let decode bytes =
  match Wbin.decode bytes with
  | Error e -> Error ("bundle: " ^ e)
  | Ok sections ->
      Result.map (fun meta -> (meta, sections)) (meta_of_sections sections)

let meta_of bytes = Result.map fst (decode bytes)

let problems_of_report raw =
  match Record.decode_fields raw with
  | Error e -> Error ("report: " ^ e)
  | Ok fields ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | m :: source :: reason :: rest ->
            go (problem ~m ~source reason :: acc) rest
        | _ -> Error "report: truncated problem entry"
      in
      go [] fields

let report_of bytes =
  let ( let* ) = Result.bind in
  let* meta, sections = decode bytes in
  let* capture_problems =
    match Wbin.section report_section sections with
    | None -> Ok []
    | Some raw -> problems_of_report raw
  in
  let* captured_digest = digest_of sections in
  Ok
    {
      captured_triples = meta.triple_count;
      captured_marks = meta.mark_count;
      captured_bases = meta.base_count;
      capture_problems;
      captured_digest;
    }

(* Every <mark> child decoded on its own, so one malformed mark is one
   problem, not a lost section (Manager.of_xml is all-or-nothing by
   design; bundles want the salvageable rest). A missing or unparsable
   section is one problem too. *)
let iter_marks sections ~flag f =
  let section = Pad_format.marks_section in
  match Option.map Xml.Parse.node (Wbin.section section sections) with
  | None -> flag section "section missing"
  | Some (Error e) -> flag section ("marks: " ^ Xml.Parse.error_to_string e)
  | Some (Ok root) -> (
      match Xml.Node.strip_whitespace root with
      | Xml.Node.Element { name; _ } as r when name = section ->
          List.iter
            (fun node ->
              match Mark.of_xml node with
              | Ok m -> f m
              | Error e -> flag section e)
            (Xml.Node.find_children "mark" r)
      | _ -> flag section "marks: expected a <marks> root element")

let excerpt_table_of raw =
  match Record.decode_fields raw with
  | Error e -> Error ("excerpts: " ^ e)
  | Ok fields ->
      let table = Hashtbl.create 32 in
      let rec go = function
        | [] -> Ok table
        | id :: excerpt :: rest ->
            Hashtbl.replace table id excerpt;
            go rest
        | [ _ ] -> Error "excerpts: odd field count"
      in
      go fields

let base_sections_of sections =
  List.filter_map
    (fun (name, payload) ->
      if not (String.length name > String.length base_prefix
              && String.sub name 0 (String.length base_prefix) = base_prefix)
      then None
      else
        let rest =
          String.sub name (String.length base_prefix)
            (String.length name - String.length base_prefix)
        in
        match String.index_opt rest ':' with
        | None -> Some (name, "", rest, payload)
        | Some i ->
            Some
              ( name,
                String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1),
                payload ))
    sections

(* --- offline verification (SL308's engine) --------------------------- *)

let verify bytes =
  match Wbin.decode bytes with
  | Error e -> [ problem ~m:"container" ~source:"header" e ]
  | Ok sections -> (
      match meta_of_sections sections with
      | Error e -> [ problem ~m:"container" ~source:meta_section e ]
      | Ok _ ->
          let problems = ref [] in
          let flag ~m ~source reason =
            problems := problem ~m ~source reason :: !problems
          in
          let flag_section name reason = flag ~m:name ~source:name reason in
          (match Trim.triples_of_binary_sections sections with
          | Ok _ -> ()
          | Error e -> flag_section Pad_format.triples_section e);
          let mark_ids = Hashtbl.create 32 in
          iter_marks sections ~flag:flag_section (fun m ->
              Hashtbl.replace mark_ids m.Mark.mark_id ());
          (match Wbin.section Pad_format.journal_section sections with
          | None -> ()
          | Some raw -> (
              match Xml.Parse.node raw with
              | Ok _ -> ()
              | Error e ->
                  flag_section Pad_format.journal_section
                    (Xml.Parse.error_to_string e)));
          (match Wbin.section excerpts_section sections with
          | None -> ()
          | Some raw -> (
              match excerpt_table_of raw with
              | Error e -> flag_section excerpts_section e
              | Ok table ->
                  Hashtbl.iter
                    (fun id _ ->
                      if not (Hashtbl.mem mark_ids id) then
                        flag ~m:"excerpts" ~source:id
                          "cached excerpt refers to a mark the bundle does \
                           not carry")
                    table));
          (match Wbin.section report_section sections with
          | None -> ()
          | Some raw -> (
              match problems_of_report raw with
              | Ok _ -> ()
              | Error e -> flag_section report_section e));
          List.iter
            (fun (section, _kind, _name, payload) ->
              match Record.decode_fields payload with
              | Ok [ filename; _contents ] ->
                  if Filename.basename filename <> filename || filename = ""
                  then
                    flag ~m:"bases" ~source:section
                      (Printf.sprintf "unsafe base file name %S" filename)
              | Ok _ ->
                  flag ~m:"bases" ~source:section
                    "expected [file name; contents] fields"
              | Error e -> flag ~m:"bases" ~source:section e)
            (base_sections_of sections);
          List.sort compare !problems)

(* --- apply ----------------------------------------------------------- *)

let apply ?(excerpts = false) ?bases app bytes =
  timed apply_latency ~op:"bundle.apply" (fun () ->
      match decode bytes with
      | Error _ as e -> e
      | Ok (_meta, sections) -> (
          match Trim.triples_of_binary_sections sections with
          | Error e -> Error ("bundle: " ^ e)
          | Ok triples ->
              Si_obs.Counter.incr apply_count;
              Si_obs.Counter.add apply_bytes (String.length bytes);
              let problems = ref [] in
              let flag ~m ~source reason =
                problems := problem ~m ~source reason :: !problems
              in
              let flag_section name reason = flag ~m:name ~source:name reason in
              let trim = Dmi.trim (Slimpad.dmi app) in
              let added = ref 0 and dup = ref 0 in
              List.iter
                (fun t -> if Trim.add trim t then incr added else incr dup)
                triples;
              let excerpt_table =
                if not excerpts then Hashtbl.create 0
                else
                  match Wbin.section excerpts_section sections with
                  | None -> Hashtbl.create 0
                  | Some raw -> (
                      match excerpt_table_of raw with
                      | Ok table -> table
                      | Error e ->
                          flag_section excerpts_section e;
                          Hashtbl.create 0)
              in
              let mgr = Slimpad.marks app in
              let installed = ref 0
              and skipped = ref 0
              and restored_exc = ref 0 in
              iter_marks sections ~flag:flag_section (fun (m : Mark.t) ->
                  match Manager.mark mgr m.mark_id with
                  | Some _ ->
                      (* Install-only: the target's mark wins, excerpt
                         included. *)
                      incr skipped
                  | None ->
                      let excerpt =
                        if not excerpts then ""
                        else
                          match Hashtbl.find_opt excerpt_table m.mark_id with
                          | Some e -> e
                          | None -> m.excerpt
                      in
                      if excerpt <> "" then incr restored_exc;
                      Manager.put_mark mgr
                        (Mark.make ~id:m.mark_id ~mark_type:m.mark_type
                           ~fields:m.fields ~excerpt ());
                      incr installed);
              let restored_bases = ref 0 and skipped_bases = ref 0 in
              (match bases with
              | None -> ()
              | Some write ->
                  List.iter
                    (fun (section, kind, name, payload) ->
                      match Record.decode_fields payload with
                      | Ok [ filename; contents ] -> (
                          match
                            write ~kind ~name ~filename contents
                          with
                          | Ok true -> incr restored_bases
                          | Ok false -> incr skipped_bases
                          | Error e -> flag ~m:kind ~source:name e)
                      | Ok _ ->
                          flag ~m:"bases" ~source:section
                            "expected [file name; contents] fields"
                      | Error e -> flag ~m:"bases" ~source:section e)
                    (base_sections_of sections));
              Ok
                {
                  added_triples = !added;
                  skipped_triples = !dup;
                  installed_marks = !installed;
                  skipped_marks = !skipped;
                  restored_excerpts = !restored_exc;
                  restored_bases = !restored_bases;
                  skipped_bases = !skipped_bases;
                  apply_problems = List.rev !problems;
                }))

let apply_file ?excerpts ?bases app ~path =
  Result.bind (read_file path) (apply ?excerpts ?bases app)

(* --- replication integration ----------------------------------------- *)

let to_archive ~archive bytes =
  match decode bytes with
  | Error _ as e -> e
  | Ok (meta, _) ->
      let term, seq = Option.value meta.watermark ~default:(0, 0) in
      Si_wal.Segment.import_base ~dir:archive ~term ~seq bytes
