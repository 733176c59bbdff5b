module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Dmi = Si_slim.Dmi
module Mark = Si_mark.Mark
module Manager = Si_mark.Manager
module Record = Si_wal.Record
module Wbin = Si_wal.Binary
module Xml = Si_xmlk

(* ------------------------------------------------------- record stream *)

type record =
  | Triple of Trim.op
  | Mark_put of Mark.t
  | Mark_removed of string
  | Journal_entry of Dmi.journal_entry
  | Journal_cleared
  | Journal_truncated_to of int

let triple_fields tag (tr : Triple.t) =
  match tr.object_ with
  | Triple.Resource r -> [ tag; tr.subject; tr.predicate; "r"; r ]
  | Triple.Literal l -> [ tag; tr.subject; tr.predicate; "l"; l ]

let encode = function
  | Triple (Trim.Op_add tr) -> Record.encode_fields (triple_fields "+" tr)
  | Triple (Trim.Op_remove tr) -> Record.encode_fields (triple_fields "-" tr)
  | Triple Trim.Op_clear -> Record.encode_fields [ "x" ]
  | Mark_put { Mark.mark_id; mark_type; excerpt; fields } ->
      Record.encode_fields
        ("m+" :: mark_id :: mark_type :: excerpt
        :: List.concat_map (fun (k, v) -> [ k; v ]) fields)
  | Mark_removed id -> Record.encode_fields [ "m-"; id ]
  | Journal_entry { Dmi.seq; op; target; detail } ->
      Record.encode_fields [ "j"; string_of_int seq; op; target; detail ]
  | Journal_cleared -> Record.encode_fields [ "jx" ]
  | Journal_truncated_to n -> Record.encode_fields [ "jt"; string_of_int n ]

let rec field_pairs acc = function
  | [] -> Ok (List.rev acc)
  | k :: v :: rest -> field_pairs ((k, v) :: acc) rest
  | [ k ] -> Error (Printf.sprintf "mark field %S has no value" k)

let decode payload =
  match Record.decode_fields payload with
  | Error e -> Error ("undecodable record: " ^ e)
  | Ok fields -> (
      let bad kind e = Error (Printf.sprintf "bad %s record: %s" kind e) in
      match fields with
      | [ "x" ] -> Ok (Triple Trim.Op_clear)
      | [ (("+" | "-") as tag); s; p; kind; v ] -> (
          let op tr = if tag = "+" then Trim.Op_add tr else Trim.Op_remove tr in
          match kind with
          | "r" -> Ok (Triple (op (Triple.make s p (Triple.Resource v))))
          | "l" -> Ok (Triple (op (Triple.make s p (Triple.Literal v))))
          | _ -> bad "triple" (Printf.sprintf "unknown object kind %S" kind))
      | (("+" | "-" | "x") as tag) :: _ ->
          bad "triple" (Printf.sprintf "unknown triple op tag %S" tag)
      | "m+" :: id :: mark_type :: excerpt :: rest -> (
          match field_pairs [] rest with
          | Ok fields ->
              Ok (Mark_put (Mark.make ~id ~mark_type ~fields ~excerpt ()))
          | Error e -> bad "mark" e)
      | "m+" :: _ -> bad "mark" "not a mark record (tag \"m+\")"
      | [ "m-"; id ] -> Ok (Mark_removed id)
      | "m-" :: _ -> bad "mark-removal" "expected one mark id"
      | [ "j"; seq; op; target; detail ] -> (
          match int_of_string_opt seq with
          | Some seq -> Ok (Journal_entry { Dmi.seq; op; target; detail })
          | None ->
              bad "journal"
                (Printf.sprintf "journal record has bad seq %S" seq))
      | "j" :: _ -> bad "journal" "not a journal record (tag \"j\")"
      | [ "jx" ] -> Ok Journal_cleared
      | "jx" :: _ -> bad "journal-clear" "expected no arguments"
      | [ "jt"; n ] -> (
          match int_of_string_opt n with
          | Some n -> Ok (Journal_truncated_to n)
          | None -> Error (Printf.sprintf "bad journal truncation seq %S" n))
      | "jt" :: _ -> bad "journal-truncation" "expected one seq"
      | tag :: _ -> Error (Printf.sprintf "unknown record tag %S" tag)
      | [] -> Error "empty record")

let apply dmi marks = function
  | Triple (Trim.Op_add tr) -> ignore (Trim.add (Dmi.trim dmi) tr)
  | Triple (Trim.Op_remove tr) -> ignore (Trim.remove (Dmi.trim dmi) tr)
  | Triple Trim.Op_clear -> Trim.clear (Dmi.trim dmi)
  | Mark_put m -> Manager.put_mark marks m
  | Mark_removed id -> ignore (Manager.remove_mark marks id)
  | Journal_entry e -> Dmi.append_journal_entry dmi e
  | Journal_cleared -> Dmi.clear_journal dmi
  | Journal_truncated_to n -> Dmi.truncate_journal_to dmi n

let observe dmi marks f =
  Trim.on_mutate (Dmi.trim dmi) (fun op -> f (Triple op));
  Manager.on_change marks (function
    | Manager.Mark_put m -> f (Mark_put m)
    | Manager.Mark_removed id -> f (Mark_removed id));
  Dmi.on_journal dmi (function
    | Dmi.Journal_logged e -> f (Journal_entry e)
    | Dmi.Journal_cleared -> f Journal_cleared
    | Dmi.Journal_truncated_to n -> f (Journal_truncated_to n))

(* --------------------------------------------------- snapshot sections *)

let atoms_section = Trim.atoms_section
let triples_section = Trim.triples_section
let marks_section = "marks"
let journal_section = "journal"
let watermark_section = "replication"

let sections dmi marks =
  Trim.binary_sections (Dmi.trim dmi)
  @ [
      (marks_section, Xml.Print.to_string (Manager.to_xml marks));
      (journal_section, Xml.Print.to_string (Dmi.journal_to_xml dmi));
    ]

let watermark_sections = function
  | None -> []
  | Some (term, seq) ->
      [
        ( watermark_section,
          Record.encode_fields [ string_of_int term; string_of_int seq ] );
      ]

let watermark sections =
  match
    Option.map Record.decode_fields (Wbin.section watermark_section sections)
  with
  | Some (Ok [ term; seq ]) -> (
      match (int_of_string_opt term, int_of_string_opt seq) with
      | Some term, Some seq -> Some (term, seq)
      | _ -> None)
  | Some (Ok _ | Error _) | None -> None

let xml_section name sections =
  Option.map
    (fun xml ->
      Result.map Xml.Node.strip_whitespace
        (Result.map_error Xml.Parse.error_to_string (Xml.Parse.node xml)))
    (Wbin.section name sections)

let restore ?store marks sections =
  match Trim.of_binary_sections ?store sections with
  | Error e -> Error ("binary snapshot: " ^ e)
  | Ok trim -> (
      let dmi = Dmi.of_trim trim in
      let marks_loaded =
        match xml_section marks_section sections with
        | None -> Ok ()
        | Some root -> Result.bind root (Manager.of_xml marks)
      in
      match marks_loaded with
      | Error e -> Error e
      | Ok () ->
          (match xml_section journal_section sections with
          | Some (Ok root) -> ignore (Dmi.load_journal dmi root)
          | Some (Error _) | None -> ());
          Ok dmi)
