module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Model = Si_metamodel.Model
module Validate = Si_metamodel.Validate
module Vocab = Si_metamodel.Vocab
module Mark = Si_mark.Mark
module Manager = Si_mark.Manager
module Resilient = Si_mark.Resilient
module Dmi = Si_slim.Dmi
module Bundle_model = Si_slim.Bundle_model
module Log = Si_wal.Log
module Record = Si_wal.Record
module Xml = Si_xmlk
module Pad_format = Si_slimpad.Pad_format

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

type provenance =
  | In_triple of Triple.t
  | In_resource of string
  | In_mark of string
  | In_wal of { file : string; offset : int option }
  | In_file of string

let provenance_to_string = function
  | In_triple tr -> "triple " ^ Triple.to_string tr
  | In_resource r -> Printf.sprintf "resource <%s>" r
  | In_mark id -> "mark " ^ id
  | In_wal { file; offset } -> (
      match offset with
      | Some o -> Printf.sprintf "%s@%d" file o
      | None -> file)
  | In_file f -> "file " ^ f

type diagnostic = {
  code : string;
  rule : string;
  severity : severity;
  message : string;
  provenance : provenance option;
  fixable : bool;
}

type context = {
  dmi : Dmi.t option;
  marks : Manager.t option;
  resilient : Resilient.t option;
  raw_triples : Triple.t list option;
  store_file : string option;
  wal_path : string option;
  archive : string option;
  workspace : string option;
  bundle : string option;
}

let context ?dmi ?marks ?resilient ?raw_triples ?store_file ?wal_path
    ?archive ?workspace ?bundle () =
  {
    dmi;
    marks;
    resilient;
    raw_triples;
    store_file;
    wal_path;
    archive;
    workspace;
    bundle;
  }

type rule = {
  code : string;
  rule_name : string;
  rule_severity : severity;
  synopsis : string;
  check : context -> diagnostic list;
}

let diag rule ?provenance ?(fixable = false) message =
  {
    code = rule.code;
    rule = rule.rule_name;
    severity = rule.rule_severity;
    message;
    provenance;
    fixable;
  }

let with_trim ctx f =
  match ctx.dmi with None -> [] | Some dmi -> f (Dmi.trim dmi)

(* ------------------------------------------------ triple / metamodel *)

(* SL001: byte-identical triples in the persisted file. In-memory stores
   are sets, so duplicates only exist on disk. *)
let rec check_duplicates rule = function
  | [] -> []
  | tr :: rest ->
      let same, others = List.partition (Triple.equal tr) rest in
      let tail = check_duplicates rule others in
      if same = [] then tail
      else
        diag rule ~provenance:(In_triple tr) ~fixable:true
          (Printf.sprintf "triple appears %d times in the store file"
             (List.length same + 1))
        :: tail

let rule_duplicate_triple =
  let rec rule =
    {
      code = "SL001";
      rule_name = "duplicate-triple";
      rule_severity = Warning;
      synopsis = "the persisted store file carries byte-identical triples";
      check =
        (fun ctx ->
          match ctx.raw_triples with
          | None -> []
          | Some raw ->
              check_duplicates rule (List.sort Triple.compare raw));
    }
  in
  rule

(* A resource is a construct iff typed by one of the three construct
   classes. *)
let is_construct trim id =
  match Trim.resource_of trim ~subject:id ~predicate:Vocab.rdf_type with
  | Some c ->
      c = Vocab.construct || c = Vocab.literal_construct
      || c = Vocab.mark_construct
  | None -> false

let rule_dangling_connector =
  let rec rule =
    {
      code = "SL002";
      rule_name = "dangling-connector";
      rule_severity = Error;
      synopsis =
        "a connector whose domain or range is not a construct, or whose \
         cardinality is not an integer";
      check =
        (fun ctx ->
          with_trim ctx (fun trim ->
              Trim.select ~predicate:Vocab.rdf_type
                ~object_:(Triple.resource Vocab.connector) trim
              |> List.filter_map (fun (tr : Triple.t) ->
                     let c = tr.subject in
                     let endpoint what pred =
                       match Trim.resource_of trim ~subject:c ~predicate:pred
                       with
                       | None -> [ Printf.sprintf "no %s" what ]
                       | Some id ->
                           if is_construct trim id then []
                           else
                             [
                               Printf.sprintf "%s <%s> is not a construct"
                                 what id;
                             ]
                     in
                     let card what pred =
                       match Trim.literal_of trim ~subject:c ~predicate:pred with
                       | Some l when int_of_string_opt l = None ->
                           [ Printf.sprintf "%s %S is not an integer" what l ]
                       | Some _ | None -> []
                     in
                     let problems =
                       (match
                          Trim.literal_of trim ~subject:c
                            ~predicate:Vocab.predicate
                        with
                       | None -> [ "no predicate name" ]
                       | Some _ -> [])
                       @ endpoint "domain" Vocab.domain
                       @ endpoint "range" Vocab.range
                       @ card "minCard" Vocab.min_card
                       @ card "maxCard" Vocab.max_card
                     in
                     if problems = [] then None
                     else
                       Some
                         (diag rule ~provenance:(In_resource c)
                            (String.concat "; " problems)))));
    }
  in
  rule

(* Cycle detection shared by SL003 and SL104: given directed edges,
   return one canonical member (minimum id) per cycle. *)
let cycle_representatives edges =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace adj a (b :: Option.value (Hashtbl.find_opt adj a) ~default:[]))
    edges;
  let reachable from_ =
    let seen = Hashtbl.create 16 in
    let rec walk = function
      | [] -> ()
      | x :: rest ->
          let next =
            Option.value (Hashtbl.find_opt adj x) ~default:[]
            |> List.filter (fun y -> not (Hashtbl.mem seen y))
          in
          List.iter (fun y -> Hashtbl.add seen y ()) next;
          walk (next @ rest)
    in
    walk [ from_ ];
    seen
  in
  let nodes =
    List.concat_map (fun (a, b) -> [ a; b ]) edges
    |> List.sort_uniq String.compare
  in
  let on_cycle =
    List.filter (fun n -> Hashtbl.mem (reachable n) n) nodes
  in
  (* Two cycle nodes share a cycle iff mutually reachable; keep the
     minimum of each equivalence class. *)
  List.filter
    (fun n ->
      let r = reachable n in
      not
        (List.exists
           (fun m ->
             String.compare m n < 0
             && Hashtbl.mem r m
             && Hashtbl.mem (reachable m) n)
           on_cycle))
    on_cycle

let rule_generalization_cycle =
  let rec rule =
    {
      code = "SL003";
      rule_name = "generalization-cycle";
      rule_severity = Error;
      synopsis = "a cycle in rdfs:subClassOf among constructs";
      check =
        (fun ctx ->
          with_trim ctx (fun trim ->
              let edges =
                Trim.select ~predicate:Vocab.rdfs_subclass_of trim
                |> List.filter_map (fun (tr : Triple.t) ->
                       match tr.object_ with
                       | Triple.Resource r -> Some (tr.subject, r)
                       | Triple.Literal _ -> None)
              in
              cycle_representatives edges
              |> List.map (fun n ->
                     diag rule ~provenance:(In_resource n)
                       (Printf.sprintf
                          "generalization cycle through <%s>: the hierarchy \
                           above it is meaningless"
                          n))));
    }
  in
  rule

let rule_conformance =
  let rec rule =
    {
      code = "SL004";
      rule_name = "conformance-violation";
      rule_severity = Warning;
      synopsis = "an instance violating the model it is typed by";
      check =
        (fun ctx ->
          with_trim ctx (fun trim ->
              Model.all trim
              |> List.concat_map (fun m ->
                     (Validate.check m).Validate.violations
                     |> List.map (fun v ->
                            diag rule
                              ~provenance:(In_resource v.Validate.resource)
                              (Format.asprintf "model %s: %a" (Model.name m)
                                 Validate.pp_violation v)))));
    }
  in
  rule

(* ------------------------------------------------------- slimpad layer *)

(* The bundle-scrap constructs, when the model is installed. *)
let bundle_scrap trim =
  match Model.find trim ~name:"bundle-scrap" with
  | None -> None
  | Some m -> (
      match
        ( Model.find_construct m "Bundle",
          Model.find_construct m "Scrap",
          Model.find_construct m "MarkHandle" )
      with
      | Some bundle, Some scrap, Some handle -> Some (m, bundle, scrap, handle)
      | _ -> None)

let with_bundle_scrap ctx f =
  with_trim ctx (fun trim ->
      match bundle_scrap trim with
      | None -> []
      | Some (m, bundle, scrap, handle) -> f trim m bundle scrap handle)

let rule_dangling_mark_handle =
  let rec rule =
    {
      code = "SL101";
      rule_name = "dangling-mark-handle";
      rule_severity = Error;
      synopsis = "a MarkHandle whose markId names no mark in the manager";
      check =
        (fun ctx ->
          match ctx.marks with
          | None -> []
          | Some mgr ->
              with_bundle_scrap ctx (fun trim _ _ _ handle ->
                  Trim.select ~predicate:Bundle_model.mark_id trim
                  |> List.filter_map (fun (tr : Triple.t) ->
                         match
                           ( Model.instance_type trim tr.subject,
                             tr.object_ )
                         with
                         | Some ty, Triple.Literal id
                           when ty = handle.Model.construct_id
                                && Manager.mark mgr id = None ->
                             Some
                               (diag rule ~provenance:(In_resource tr.subject)
                                  (Printf.sprintf
                                     "MarkHandle <%s> refers to missing mark \
                                      %S"
                                     tr.subject id))
                         | _ -> None)));
    }
  in
  rule

let rule_unreachable_bundle =
  let rec rule =
    {
      code = "SL102";
      rule_name = "unreachable-bundle";
      rule_severity = Warning;
      synopsis = "a bundle no pad's root reaches through nestedBundle";
      check =
        (fun ctx ->
          with_bundle_scrap ctx (fun trim m bundle _ _ ->
              let reachable = Hashtbl.create 32 in
              let nested id =
                Trim.select ~subject:id
                  ~predicate:Bundle_model.nested_bundle trim
                |> List.filter_map (fun (tr : Triple.t) ->
                       match tr.object_ with
                       | Triple.Resource r -> Some r
                       | Triple.Literal _ -> None)
              in
              let rec walk = function
                | [] -> ()
                | id :: rest ->
                    if Hashtbl.mem reachable id then walk rest
                    else begin
                      Hashtbl.add reachable id ();
                      walk (nested id @ rest)
                    end
              in
              Trim.select ~predicate:Bundle_model.root_bundle trim
              |> List.iter (fun (tr : Triple.t) ->
                     match tr.object_ with
                     | Triple.Resource r -> walk [ r ]
                     | Triple.Literal _ -> ());
              Model.instances_of m bundle
              |> List.filter_map (fun id ->
                     if Hashtbl.mem reachable id then None
                     else
                       Some
                         (diag rule ~provenance:(In_resource id)
                            (Printf.sprintf
                               "bundle <%s> is unreachable from every pad's \
                                root"
                               id)))));
    }
  in
  rule

let rule_orphan_scrap =
  let rec rule =
    {
      code = "SL103";
      rule_name = "orphan-scrap";
      rule_severity = Warning;
      synopsis = "a scrap no bundleContent triple references";
      check =
        (fun ctx ->
          with_bundle_scrap ctx (fun trim m _ scrap _ ->
              let contained = Hashtbl.create 32 in
              Trim.select ~predicate:Bundle_model.bundle_content trim
              |> List.iter (fun (tr : Triple.t) ->
                     match tr.object_ with
                     | Triple.Resource r -> Hashtbl.replace contained r ()
                     | Triple.Literal _ -> ());
              Model.instances_of m scrap
              |> List.filter_map (fun id ->
                     if Hashtbl.mem contained id then None
                     else
                       Some
                         (diag rule ~provenance:(In_resource id)
                            (Printf.sprintf
                               "scrap <%s> is contained in no bundle" id)))));
    }
  in
  rule

let rule_containment_cycle =
  let rec rule =
    {
      code = "SL104";
      rule_name = "containment-cycle";
      rule_severity = Error;
      synopsis = "a nestedBundle cycle";
      check =
        (fun ctx ->
          with_trim ctx (fun trim ->
              let edges =
                Trim.select ~predicate:Bundle_model.nested_bundle trim
                |> List.filter_map (fun (tr : Triple.t) ->
                       match tr.object_ with
                       | Triple.Resource r -> Some (tr.subject, r)
                       | Triple.Literal _ -> None)
              in
              cycle_representatives edges
              |> List.map (fun n ->
                     diag rule ~provenance:(In_resource n)
                       (Printf.sprintf
                          "bundle containment cycle through <%s>" n))));
    }
  in
  rule

let rule_orphan_layout =
  let rec rule =
    {
      code = "SL105";
      rule_name = "orphan-layout-triple";
      rule_severity = Warning;
      synopsis = "a layout triple whose subject is not a typed instance";
      check =
        (fun ctx ->
          with_trim ctx (fun trim ->
              Bundle_model.layout_predicates
              |> List.concat_map (fun p -> Trim.select ~predicate:p trim)
              |> List.filter_map (fun (tr : Triple.t) ->
                     match Model.instance_type trim tr.subject with
                     | Some _ -> None
                     | None ->
                         Some
                           (diag rule ~provenance:(In_triple tr) ~fixable:true
                              (Printf.sprintf
                                 "%s on <%s>, which is not a typed instance"
                                 tr.predicate tr.subject)))));
    }
  in
  rule

(* ---------------------------------------------------------- mark layer *)

let with_marks ctx f = match ctx.marks with None -> [] | Some mgr -> f mgr

let rule_mark_address =
  let rec rule =
    {
      code = "SL201";
      rule_name = "mark-address-malformed";
      rule_severity = Error;
      synopsis = "a mark whose address fields fail its module's linter";
      check =
        (fun ctx ->
          with_marks ctx (fun mgr ->
              Manager.marks mgr
              |> List.filter_map (fun (m : Mark.t) ->
                     match Manager.address_linter mgr m.Mark.mark_type with
                     | None -> None
                     | Some lint -> (
                         match lint m.Mark.fields with
                         | [] -> None
                         | problems ->
                             Some
                               (diag rule ~provenance:(In_mark m.Mark.mark_id)
                                  (Printf.sprintf "%s address: %s"
                                     m.Mark.mark_type
                                     (String.concat "; " problems)))))));
    }
  in
  rule

let rule_mark_unsupported =
  let rec rule =
    {
      code = "SL202";
      rule_name = "mark-type-unsupported";
      rule_severity = Info;
      synopsis = "a mark of a type no registered module handles";
      check =
        (fun ctx ->
          with_marks ctx (fun mgr ->
              Manager.marks mgr
              |> List.filter_map (fun (m : Mark.t) ->
                     if Manager.modules_for_type mgr m.Mark.mark_type = []
                     then
                       Some
                         (diag rule ~provenance:(In_mark m.Mark.mark_id)
                            (Printf.sprintf
                               "no mark module handles type %S; the mark is \
                                kept but cannot resolve here"
                               m.Mark.mark_type))
                     else None)));
    }
  in
  rule

let rule_mark_quarantined =
  let rec rule =
    {
      code = "SL203";
      rule_name = "mark-quarantined";
      rule_severity = Warning;
      synopsis = "a mark whose base source is quarantined by drift";
      check =
        (fun ctx ->
          match ctx.resilient with
          | None -> []
          | Some r ->
              with_marks ctx (fun mgr ->
                  Manager.marks mgr
                  |> List.filter_map (fun (m : Mark.t) ->
                         let source = Mark.source m in
                         if Resilient.quarantined r source then
                           Some
                             (diag rule ~provenance:(In_mark m.Mark.mark_id)
                                (Printf.sprintf
                                   "base source %s is quarantined; the mark \
                                    serves only its cached excerpt"
                                   source))
                         else None)));
    }
  in
  rule

(* ----------------------------------------------------------- wal layer *)

(* Offline classification of one record payload: the same decoder
   recovery runs, so lint and recovery report a bad record in the same
   words. *)
let classify_record payload =
  match Pad_format.decode payload with Ok _ -> None | Error e -> Some e

(* Journal seq of a record, for the monotonicity check: [`Entry seq],
   [`Reset_to seq], or [`Other]. *)
let journal_effect payload =
  match Pad_format.decode payload with
  | Ok (Pad_format.Journal_entry e) -> `Entry e.Dmi.seq
  | Ok Pad_format.Journal_cleared -> `Reset_to 0
  | Ok (Pad_format.Journal_truncated_to n) -> `Reset_to n
  | Ok _ | Error _ -> `Other

(* A well-framed snapshot container without its triple data: container
   shape, so SL305's finding and never SL304's. *)
let lacks_triples sections =
  List.exists
    (fun name -> Si_wal.Binary.section name sections = None)
    Pad_format.[ atoms_section; triples_section ]

let with_dump ctx f =
  match ctx.wal_path with
  | None -> []
  | Some path -> (
      if
        (not (Sys.file_exists path))
        && not (Sys.file_exists (Log.snapshot_path path))
      then []
      else
        match Log.dump path with
        | Error e -> f path (Either.Left (Log.error_to_string e))
        | Ok d -> f path (Either.Right d))

let rule_wal_corrupt =
  let rec rule =
    {
      code = "SL301";
      rule_name = "wal-corrupt";
      rule_severity = Error;
      synopsis = "CRC failure, bad header, corrupt snapshot, or generation skew";
      check =
        (fun ctx ->
          with_dump ctx (fun path -> function
            | Either.Left io ->
                [ diag rule ~provenance:(In_wal { file = path; offset = None }) io ]
            | Either.Right d ->
                let problems =
                  List.map
                    (fun p ->
                      diag rule
                        ~provenance:(In_wal { file = path; offset = None })
                        p)
                    d.Log.dump_problems
                in
                let corrupt =
                  match d.Log.dump_corrupt with
                  | None -> []
                  | Some (index, offset, detail) ->
                      [
                        diag rule
                          ~provenance:
                            (In_wal { file = path; offset = Some offset })
                          (Printf.sprintf "corrupt record %d: %s" index
                             detail);
                      ]
                in
                problems @ corrupt));
    }
  in
  rule

let rule_wal_torn =
  let rec rule =
    {
      code = "SL302";
      rule_name = "wal-torn-tail";
      rule_severity = Warning;
      synopsis = "trailing bytes a recovery would truncate";
      check =
        (fun ctx ->
          with_dump ctx (fun path -> function
            | Either.Left _ -> []
            | Either.Right d ->
                if d.Log.dump_torn_bytes = 0 then []
                else
                  let good_end =
                    match List.rev d.Log.dump_records with
                    | last :: _ ->
                        Some
                          (last.Log.dump_offset
                          + Record.header_size
                          + String.length last.Log.dump_payload)
                    | [] -> None
                  in
                  [
                    diag rule
                      ~provenance:(In_wal { file = path; offset = good_end })
                      (Printf.sprintf
                         "torn tail of %d byte(s); recovery would truncate \
                          to the last complete record"
                         d.Log.dump_torn_bytes);
                  ]));
    }
  in
  rule

let rule_wal_stale =
  let rec rule =
    {
      code = "SL303";
      rule_name = "wal-stale-log";
      rule_severity = Warning;
      synopsis = "snapshot generation ahead of the log";
      check =
        (fun ctx ->
          with_dump ctx (fun path -> function
            | Either.Left _ -> []
            | Either.Right d ->
                if not d.Log.dump_stale_log then []
                else
                  [
                    diag rule ~provenance:(In_wal { file = path; offset = None })
                      (Printf.sprintf
                         "log (generation %s) predates its snapshot \
                          (generation %s): an interrupted compaction left \
                          it; recovery discards its %d record(s)"
                         (match d.Log.dump_log_generation with
                         | Some g -> string_of_int g
                         | None -> "?")
                         (match d.Log.dump_snapshot_generation with
                         | Some g -> string_of_int g
                         | None -> "?")
                         (List.length d.Log.dump_records));
                  ]));
    }
  in
  rule

let rule_wal_stream =
  let rec rule =
    {
      code = "SL304";
      rule_name = "wal-stream-inconsistency";
      rule_severity = Error;
      synopsis = "a record no stream codec accepts, or a bad snapshot payload";
      check =
        (fun ctx ->
          with_dump ctx (fun path -> function
            | Either.Left _ -> []
            | Either.Right d ->
                let record_diags =
                  List.filter_map
                    (fun r ->
                      classify_record r.Log.dump_payload
                      |> Option.map (fun problem ->
                             diag rule
                               ~provenance:
                                 (In_wal
                                    {
                                      file = path;
                                      offset = Some r.Log.dump_offset;
                                    })
                               problem))
                    d.Log.dump_records
                in
                let seq_diags =
                  let _, diags =
                    List.fold_left
                      (fun (last, acc) r ->
                        match journal_effect r.Log.dump_payload with
                        | `Entry seq ->
                            if
                              match last with
                              | Some l -> seq <= l
                              | None -> false
                            then
                              ( Some seq,
                                diag rule
                                  ~provenance:
                                    (In_wal
                                       {
                                         file = path;
                                         offset = Some r.Log.dump_offset;
                                       })
                                  (Printf.sprintf
                                     "journal seq %d not monotone (follows \
                                      %d)"
                                     seq
                                     (Option.get last))
                                :: acc )
                            else (Some seq, acc)
                        | `Reset_to n -> (Some n, acc)
                        | `Other -> (last, acc))
                      (None, []) d.Log.dump_records
                  in
                  List.rev diags
                in
                let snapshot_diags =
                  match d.Log.dump_snapshot with
                  | None -> []
                  | Some payload when Si_wal.Binary.is_binary payload -> (
                      (* Binary snapshot: container-level damage (magic,
                         framing, section CRCs) is SL305's finding; this
                         rule owns the stream contents, so it only
                         speaks up when a well-framed container carries
                         triple sections that do not decode. *)
                      match Si_wal.Binary.decode payload with
                      | Error _ -> []
                      | Ok sections when lacks_triples sections -> []
                      | Ok sections -> (
                          match Trim.triples_of_binary_sections sections with
                          | Ok _ -> []
                          | Error e ->
                              [
                                diag rule
                                  ~provenance:
                                    (In_wal
                                       {
                                         file = Log.snapshot_path path;
                                         offset = None;
                                       })
                                  ("snapshot triples: " ^ e);
                              ]))
                  | Some payload
                    when String.length payload >= 8
                         && String.sub payload 0 4
                            = String.sub Si_wal.Binary.magic 0 4 ->
                      (* The container's name with a version this build
                         does not speak: SL305's finding, not an XML
                         stream problem. *)
                      []
                  | Some payload -> (
                      let snap_prov =
                        In_wal
                          { file = Log.snapshot_path path; offset = None }
                      in
                      let bad problem =
                        [ diag rule ~provenance:snap_prov problem ]
                      in
                      match Xml.Parse.node payload with
                      | Error e ->
                          bad
                            ("snapshot payload is not XML: "
                            ^ Xml.Parse.error_to_string e)
                      | Ok root -> (
                          match Xml.Node.strip_whitespace root with
                          | Xml.Node.Element { name = "slimpad-store"; _ } as
                            r -> (
                              match
                                ( Xml.Node.find_child
                                    Pad_format.triples_section r,
                                  Xml.Node.find_child
                                    Pad_format.marks_section r )
                              with
                              | Some triples, Some _ -> (
                                  match Trim.triples_of_xml triples with
                                  | Ok _ -> []
                                  | Error e ->
                                      bad ("snapshot triples: " ^ e))
                              | _ ->
                                  bad
                                    "snapshot misses its <triples> or \
                                     <marks> section")
                          | _ ->
                              bad
                                "snapshot payload is not a <slimpad-store> \
                                 document"))
                in
                record_diags @ seq_diags @ snapshot_diags));
    }
  in
  rule

let rule_wal_binary_snapshot =
  let rec rule =
    {
      code = "SL305";
      rule_name = "wal-binary-snapshot";
      rule_severity = Error;
      synopsis = "binary snapshot container damage (magic, framing, CRC)";
      check =
        (fun ctx ->
          with_dump ctx (fun path -> function
            | Either.Left _ -> []
            | Either.Right d -> (
                match d.Log.dump_snapshot with
                | None -> []
                | Some payload -> (
                    let snap_prov =
                      In_wal { file = Log.snapshot_path path; offset = None }
                    in
                    if not (Si_wal.Binary.is_binary payload) then
                      (* XML snapshots predate the binary codec and are
                         SL304's business — except a payload that opens
                         with the container's 4-byte name but a version
                         this build does not speak, which recovery would
                         also refuse. *)
                      if
                        String.length payload >= 8
                        && String.sub payload 0 4
                           = String.sub Si_wal.Binary.magic 0 4
                      then
                        [
                          diag rule ~provenance:snap_prov
                            (match Si_wal.Binary.decode payload with
                            | Error e -> e
                            | Ok _ -> assert false);
                        ]
                      else []
                    else
                      match Si_wal.Binary.decode payload with
                      | Ok sections ->
                          (* The header decodes; the one remaining shape
                             error a container can carry is a snapshot
                             without its triple data. *)
                          if lacks_triples sections then
                            [
                              diag rule ~provenance:snap_prov
                                "container misses its atoms or triples \
                                 section";
                            ]
                          else []
                      | Error e ->
                          [ diag rule ~provenance:snap_prov e ]))));
    }
  in
  rule

let rule_wal_archive =
  let rec rule =
    {
      code = "SL306";
      rule_name = "wal-archive";
      rule_severity = Error;
      synopsis =
        "shipping archive damage (CRC, sequence gaps, term regressions)";
      check =
        (fun ctx ->
          match ctx.archive with
          | None -> []
          | Some dir -> (
              match Si_wal.Segment.verify dir with
              | Error e -> [ diag rule ~provenance:(In_file dir) e ]
              | Ok problems ->
                  List.map
                    (fun p ->
                      diag rule
                        ~provenance:
                          (In_file
                             (Filename.concat dir
                                p.Si_wal.Segment.problem_file))
                        p.Si_wal.Segment.problem_detail)
                    problems));
    }
  in
  rule

(* An interrupted atomic save — a crash between writing ["x.si-tmp"]
   and renaming it over [x] — leaves the temp file behind. Loaders
   ignore the suffix, so the orphan is harmless but permanent: nothing
   ever deletes it, and it silently pins disk space (a snapshot temp is
   the size of the whole store). The scan covers the workspace tree
   and, for bare-file targets, the would-be temp of the store file and
   log. *)

let orphan_temp_files ctx =
  let rec walk acc dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | entries ->
        Array.fold_left
          (fun acc name ->
            let p = Filename.concat dir name in
            if (try Sys.is_directory p with Sys_error _ -> false) then
              walk acc p
            else if Si_io.Io.is_temp p then p :: acc
            else acc)
          acc entries
  in
  let sibling acc = function
    | Some path ->
        let t = Si_io.Io.temp_path path in
        if Sys.file_exists t then t :: acc else acc
    | None -> acc
  in
  let found =
    match ctx.workspace with
    | Some dir -> walk [] dir
    | None -> sibling (sibling [] ctx.store_file) ctx.wal_path
  in
  List.sort_uniq compare found

let rule_orphan_temp =
  let rec rule =
    {
      code = "SL307";
      rule_name = "orphan-temp-file";
      rule_severity = Warning;
      synopsis = "leftover .si-tmp files from interrupted atomic saves";
      check =
        (fun ctx ->
          List.map
            (fun p ->
              diag rule ~provenance:(In_file p) ~fixable:true
                (Printf.sprintf
                   "%s was left by an interrupted atomic save; loaders \
                    ignore it, and --fix deletes it"
                   (Filename.basename p)))
            (orphan_temp_files ctx));
    }
  in
  rule

(* Offline verification of a capture bundle, from its bytes alone: the
   engine is {!Si_bundle.verify} (container magic and section CRCs,
   schema-version range, section decodability, excerpt entries naming
   marks the bundle does not carry); this rule maps its problems onto
   diagnostics so `slimpad lint --bundle <file>` reads like any other
   lint pass. *)

let rule_bundle =
  let rec rule =
    {
      code = "SL308";
      rule_name = "bundle-malformed";
      rule_severity = Error;
      synopsis =
        "capture-bundle damage (magic, section CRCs, schema version, \
         dangling excerpts)";
      check =
        (fun ctx ->
          match ctx.bundle with
          | None -> []
          | Some path -> (
              match Si_bundle.read_file path with
              | Error e -> [ diag rule ~provenance:(In_file path) e ]
              | Ok bytes ->
                  List.map
                    (fun p ->
                      diag rule ~provenance:(In_file path)
                        (Si_bundle.problem_to_string p))
                    (Si_bundle.verify bytes)));
    }
  in
  rule

(* ------------------------------------------------------------- registry *)

let builtin_rules =
  [
    rule_duplicate_triple;
    rule_dangling_connector;
    rule_generalization_cycle;
    rule_conformance;
    rule_dangling_mark_handle;
    rule_unreachable_bundle;
    rule_orphan_scrap;
    rule_containment_cycle;
    rule_orphan_layout;
    rule_mark_address;
    rule_mark_unsupported;
    rule_mark_quarantined;
    rule_wal_corrupt;
    rule_wal_torn;
    rule_wal_stale;
    rule_wal_stream;
    rule_wal_binary_snapshot;
    rule_wal_archive;
    rule_orphan_temp;
    rule_bundle;
  ]

let registry = ref builtin_rules

let rules () =
  List.sort (fun a b -> String.compare a.code b.code) !registry

let register_rule r =
  if List.exists (fun existing -> existing.code = r.code) !registry then
    Stdlib.Error
      (Printf.sprintf "a rule with code %s is already registered" r.code)
  else begin
    registry := r :: !registry;
    Stdlib.Ok ()
  end

let find_rule code = List.find_opt (fun r -> r.code = code) !registry

let compare_diagnostic (a : diagnostic) (b : diagnostic) =
  match String.compare a.code b.code with
  | 0 -> (
      let prov d =
        match d.provenance with
        | Some p -> provenance_to_string p
        | None -> ""
      in
      match String.compare (prov a) (prov b) with
      | 0 -> String.compare a.message b.message
      | n -> n)
  | n -> n

let run ?rules:rs ctx =
  let rs = match rs with Some rs -> rs | None -> rules () in
  List.concat_map (fun r -> r.check ctx) rs
  |> List.sort compare_diagnostic

(* ---------------------------------------------------------------- fixes *)

type fix_report = {
  removed_layout_triples : int;
  duplicate_triples : int;
  removed_temp_files : int;
}

let fix ctx diagnostics =
  let orphan_triples =
    List.filter_map
      (fun (d : diagnostic) ->
        if d.code = "SL105" && d.fixable then
          match d.provenance with
          | Some (In_triple tr) -> Some tr
          | _ -> None
        else None)
      diagnostics
  in
  let duplicate_triples =
    List.length
    (List.filter (fun (d : diagnostic) -> d.code = "SL001") diagnostics)
  in
  (* Deleting an orphaned temp file needs no live store — only the path
     the diagnostic already carries. A vanished file is not an error:
     the repair's job is that the file be gone. *)
  let removed_temp_files =
    List.fold_left
      (fun n (d : diagnostic) ->
        if d.code = "SL307" && d.fixable then
          match d.provenance with
          | Some (In_file f) -> (
              match Sys.remove f with
              | () -> n + 1
              | exception Sys_error _ -> n)
          | _ -> n
        else n)
      0 diagnostics
  in
  match (orphan_triples, ctx.dmi) with
  | [], _ ->
      Stdlib.Ok
        { removed_layout_triples = 0; duplicate_triples; removed_temp_files }
  | _, None -> Stdlib.Error "cannot repair layout triples without a live store"
  | _, Some dmi -> (
      let trim = Dmi.trim dmi in
      let body () : (int, string) result =
        Stdlib.Ok
          (List.fold_left
             (fun n tr -> if Trim.remove trim tr then n + 1 else n)
             0 orphan_triples)
      in
      match Trim.transaction trim body with
      | Stdlib.Ok (Stdlib.Ok removed_layout_triples) ->
          Stdlib.Ok
            { removed_layout_triples; duplicate_triples; removed_temp_files }
      | Stdlib.Ok (Stdlib.Error e) -> Stdlib.Error e
      | Stdlib.Error exn -> Stdlib.Error (Printexc.to_string exn))

(* ------------------------------------------------------------ reporters *)

let count sev diagnostics =
  List.length
    (List.filter (fun (d : diagnostic) -> d.severity = sev) diagnostics)

let max_severity = function
  | [] -> None
  | diagnostics ->
      Some
        (List.fold_left
           (fun worst (d : diagnostic) ->
             if severity_rank d.severity > severity_rank worst then d.severity
             else worst)
           Info diagnostics)

let summary diagnostics =
  if diagnostics = [] then "no diagnostics"
  else
    Printf.sprintf "%d error(s), %d warning(s), %d info"
      (count Error diagnostics)
      (count Warning diagnostics)
      (count Info diagnostics)

let to_text diagnostics =
  let buf = Buffer.create 256 in
  List.iter
    (fun (d : diagnostic) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %-7s %s: %s" d.code
           (severity_to_string d.severity)
           d.rule d.message);
      (match d.provenance with
      | Some p ->
          Buffer.add_string buf (Printf.sprintf "  [%s]" (provenance_to_string p))
      | None -> ());
      Buffer.add_char buf '\n')
    diagnostics;
  Buffer.add_string buf (summary diagnostics);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Same escaping discipline as the bench JSON writer. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json diagnostics =
  let entry (d : diagnostic) =
    Printf.sprintf
      "  {\"code\": \"%s\", \"rule\": \"%s\", \"severity\": \"%s\", \
       \"message\": \"%s\", \"provenance\": %s, \"fixable\": %b}"
      (json_escape d.code) (json_escape d.rule)
      (severity_to_string d.severity)
      (json_escape d.message)
      (match d.provenance with
      | Some p -> Printf.sprintf "\"%s\"" (json_escape (provenance_to_string p))
      | None -> "null")
      d.fixable
  in
  "[\n" ^ String.concat ",\n" (List.map entry diagnostics) ^ "\n]\n"
