(* Tests for the SLIM store: Bundle-Scrap model, DMI operations (Fig 10),
   consistency with the triple representation (F9), persistence. *)

open Si_slim
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The 'Rounds' pad of Fig 4: a John Smith bundle with two medication
   scraps and a nested Electrolyte bundle holding two lab scraps. *)
let rounds () =
  let t = Dmi.create () in
  let pad = Dmi.create_slimpad t ~pad_name:"Rounds" in
  let root = Dmi.root_bundle t pad in
  let smith =
    Dmi.create_bundle t ~name:"John Smith" ~pos:{ Dmi.x = 10; y = 10 }
      ~width:300 ~height:200 ~parent:root ()
  in
  let dopamine =
    Dmi.create_scrap t ~name:"Dopamine 5" ~pos:{ Dmi.x = 20; y = 30 }
      ~mark_id:"mark-1" ~parent:smith ()
  in
  let fentanyl =
    Dmi.create_scrap t ~name:"Fentanyl 0.05" ~pos:{ Dmi.x = 20; y = 50 }
      ~mark_id:"mark-2" ~parent:smith ()
  in
  let electrolyte =
    Dmi.create_bundle t ~name:"Electrolyte" ~pos:{ Dmi.x = 20; y = 80 }
      ~parent:smith ()
  in
  let na =
    Dmi.create_scrap t ~name:"140" ~mark_id:"mark-3" ~parent:electrolyte ()
  in
  let k =
    Dmi.create_scrap t ~name:"4.2" ~mark_id:"mark-4" ~parent:electrolyte ()
  in
  (t, pad, root, smith, dopamine, fentanyl, electrolyte, na, k)

let test_create_and_read () =
  let t, pad, root, smith, dopamine, _, electrolyte, _, _ = rounds () in
  check "pad name" "Rounds" (Dmi.pad_name t pad);
  check "root bundle named after pad" "Rounds" (Dmi.bundle_name t root);
  check "bundle name" "John Smith" (Dmi.bundle_name t smith);
  check_bool "bundle pos" true
    (Dmi.bundle_pos t smith = Some { Dmi.x = 10; y = 10 });
  check_bool "bundle size" true (Dmi.bundle_size t smith = Some (300, 200));
  check "scrap name" "Dopamine 5" (Dmi.scrap_name t dopamine);
  check "scrap mark id" "mark-1" (Dmi.scrap_mark_id t dopamine);
  check_bool "scrap pos" true
    (Dmi.scrap_pos t dopamine = Some { Dmi.x = 20; y = 30 });
  check_int "smith scraps" 2 (List.length (Dmi.scraps t smith));
  check_int "smith nested" 1 (List.length (Dmi.nested_bundles t smith));
  check_int "electrolyte scraps" 2 (List.length (Dmi.scraps t electrolyte))

let test_creation_order_preserved () =
  let t, _, _, smith, dopamine, fentanyl, _, _, _ = rounds () in
  Alcotest.(check (list string))
    "scraps in creation order"
    [ Dmi.scrap_id dopamine; Dmi.scrap_id fentanyl ]
    (List.map Dmi.scrap_id (Dmi.scraps t smith))

let test_parents () =
  let t, pad, root, smith, dopamine, _, electrolyte, na, _ = rounds () in
  check_bool "scrap parent" true
    (Dmi.scrap_parent t dopamine = Some smith);
  check_bool "nested parent" true
    (Dmi.bundle_parent t electrolyte = Some smith);
  check_bool "root has no parent" true (Dmi.bundle_parent t root = None);
  check_bool "na parent" true (Dmi.scrap_parent t na = Some electrolyte);
  check_bool "root bundle of pad" true (Dmi.root_bundle t pad = root)

let test_updates () =
  let t, pad, _, smith, dopamine, _, _, _, _ = rounds () in
  Dmi.update_pad_name t pad "Weekend Rounds";
  check "pad renamed" "Weekend Rounds" (Dmi.pad_name t pad);
  Dmi.update_bundle_name t smith "J. Smith";
  check "bundle renamed" "J. Smith" (Dmi.bundle_name t smith);
  Dmi.move_bundle t smith { Dmi.x = 99; y = 98 };
  check_bool "bundle moved" true
    (Dmi.bundle_pos t smith = Some { Dmi.x = 99; y = 98 });
  Dmi.resize_bundle t smith ~width:400 ~height:250;
  check_bool "bundle resized" true (Dmi.bundle_size t smith = Some (400, 250));
  Dmi.update_scrap_name t dopamine "Dopamine 10";
  check "scrap renamed" "Dopamine 10" (Dmi.scrap_name t dopamine);
  Dmi.move_scrap t dopamine { Dmi.x = 1; y = 2 };
  check_bool "scrap moved" true
    (Dmi.scrap_pos t dopamine = Some { Dmi.x = 1; y = 2 });
  Dmi.set_scrap_mark t dopamine "mark-99";
  check "mark repointed" "mark-99" (Dmi.scrap_mark_id t dopamine)

let test_ids_roundtrip () =
  let t, pad, _, smith, dopamine, _, _, _, _ = rounds () in
  check_bool "pad" true (Dmi.pad_of_id t (Dmi.pad_id pad) = Some pad);
  check_bool "bundle" true
    (Dmi.bundle_of_id t (Dmi.bundle_id smith) = Some smith);
  check_bool "scrap" true
    (Dmi.scrap_of_id t (Dmi.scrap_id dopamine) = Some dopamine);
  (* Cross-kind lookups fail. *)
  check_bool "scrap id is not a bundle" true
    (Dmi.bundle_of_id t (Dmi.scrap_id dopamine) = None);
  check_bool "unknown id" true (Dmi.bundle_of_id t "nothing" = None)

let test_find_pad_and_pads () =
  let t, pad, _, _, _, _, _, _, _ = rounds () in
  let _ = Dmi.create_slimpad t ~pad_name:"Archive" in
  check_int "two pads" 2 (List.length (Dmi.pads t));
  check_bool "find" true (Dmi.find_pad t "Rounds" = Some pad);
  check_bool "find missing" true (Dmi.find_pad t "Nope" = None);
  check "sorted by name" "Archive"
    (Dmi.pad_name t (List.hd (Dmi.pads t)))

let test_descendant_count () =
  let t, _, root, smith, _, _, _, _, _ = rounds () in
  check_bool "smith subtree" true
    (Dmi.bundle_descendant_count t smith = (2, 4));
  check_bool "root subtree" true
    (Dmi.bundle_descendant_count t root = (3, 4))

let test_reparent () =
  let t, _, root, smith, _, _, electrolyte, _, _ = rounds () in
  (* Move the electrolyte bundle up to the root. *)
  (match Dmi.reparent_bundle t electrolyte ~parent:root with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "new parent" true (Dmi.bundle_parent t electrolyte = Some root);
  check_int "smith no longer holds it" 0
    (List.length (Dmi.nested_bundles t smith));
  (* Cycles rejected. *)
  check_bool "self" true
    (Result.is_error (Dmi.reparent_bundle t smith ~parent:smith));
  let inner = Dmi.create_bundle t ~name:"inner" ~parent:smith () in
  check_bool "descendant" true
    (Result.is_error (Dmi.reparent_bundle t smith ~parent:inner));
  check_bool "root immovable" true
    (Result.is_error (Dmi.reparent_bundle t root ~parent:smith))

let test_reparent_scrap () =
  let t, _, root, smith, dopamine, _, _, _, _ = rounds () in
  Dmi.reparent_scrap t dopamine ~parent:root;
  check_bool "moved" true (Dmi.scrap_parent t dopamine = Some root);
  check_int "smith has one scrap left" 1 (List.length (Dmi.scraps t smith))

let test_delete_scrap () =
  let t, _, _, smith, dopamine, _, _, _, _ = rounds () in
  let before = Dmi.triple_count t in
  Dmi.delete_scrap t dopamine;
  check_int "one scrap left" 1 (List.length (Dmi.scraps t smith));
  check_bool "id unresolvable" true
    (Dmi.scrap_of_id t (Dmi.scrap_id dopamine) = None);
  check_bool "triples reclaimed" true (Dmi.triple_count t < before);
  (* The MarkHandle went too: no markId literal "mark-1" left anywhere. *)
  check_bool "handle gone" true
    (Trim.select ~predicate:Bundle_model.mark_id
       ~object_:(Triple.literal "mark-1") (Dmi.trim t)
    = [])

let test_delete_bundle_recursive () =
  let t, _, _, smith, _, _, _, _, _ = rounds () in
  (match Dmi.delete_bundle t smith with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "bundle gone" true
    (Dmi.bundle_of_id t (Dmi.bundle_id smith) = None);
  (* Everything under it went: only the pad + root bundle remain. *)
  let model = (Dmi.model t).Bundle_model.model in
  check_int "no scraps anywhere" 0
    (List.length
       (Si_metamodel.Model.instances_of model (Dmi.model t).Bundle_model.scrap));
  check_int "one bundle (the root)" 1
    (List.length
       (Si_metamodel.Model.instances_of model (Dmi.model t).Bundle_model.bundle))

let test_delete_root_rejected () =
  let t, _, root, _, _, _, _, _, _ = rounds () in
  check_bool "rejected" true (Result.is_error (Dmi.delete_bundle t root))

let test_delete_pad () =
  let t, pad, _, _, _, _, _, _, _ = rounds () in
  Dmi.delete_slimpad t pad;
  check_int "no pads" 0 (List.length (Dmi.pads t));
  (* Only the model definition triples remain. *)
  let fresh = Dmi.create () in
  check_int "store back to pristine size" (Dmi.triple_count fresh)
    (Dmi.triple_count t)

(* -------------------------------------------------- §6 extensions *)

let test_annotations () =
  let t, _, _, _, dopamine, _, _, _, _ = rounds () in
  Dmi.annotate_scrap t dopamine "double-check dose";
  Dmi.annotate_scrap t dopamine "ask pharmacy";
  Alcotest.(check (list string))
    "annotations" [ "ask pharmacy"; "double-check dose" ]
    (Dmi.annotations t dopamine);
  check_bool "remove" true (Dmi.remove_annotation t dopamine "ask pharmacy");
  check_bool "remove absent" false
    (Dmi.remove_annotation t dopamine "ask pharmacy");
  check_int "one left" 1 (List.length (Dmi.annotations t dopamine))

let test_links () =
  let t, _, _, _, dopamine, fentanyl, _, na, _ = rounds () in
  let l =
    Dmi.link_scraps t ~label:"both sedation-related" ~from_:dopamine
      ~to_:fentanyl ()
  in
  check_bool "ends" true (Dmi.link_ends t l = Some (dopamine, fentanyl));
  check_bool "label" true
    (Dmi.link_label t l = Some "both sedation-related");
  let l2 = Dmi.link_scraps t ~from_:fentanyl ~to_:na () in
  check_bool "unlabelled" true (Dmi.link_label t l2 = None);
  check_int "all links" 2 (List.length (Dmi.links t));
  check_int "links of fentanyl" 2 (List.length (Dmi.links_of_scrap t fentanyl));
  check_int "links of dopamine" 1 (List.length (Dmi.links_of_scrap t dopamine));
  Dmi.delete_link t l;
  check_int "after delete" 1 (List.length (Dmi.links t));
  (* Deleting a scrap removes links touching it. *)
  Dmi.delete_scrap t na;
  check_int "scrap deletion cascades" 0 (List.length (Dmi.links t))

let test_decorations () =
  (* Fig 4's gridlet: a graphic element with scraps placed near it. *)
  let t, _, _, _, _, _, electrolyte, _, _ = rounds () in
  let grid =
    Dmi.add_decoration t electrolyte ~kind:"gridlet"
      ~pos:{ Dmi.x = 25; y = 85 } ()
  in
  check "kind" "gridlet" (Dmi.decoration_kind t grid);
  check_bool "pos" true (Dmi.decoration_pos t grid = Some { Dmi.x = 25; y = 85 });
  check_int "listed" 1 (List.length (Dmi.decorations t electrolyte));
  Dmi.move_decoration t grid { Dmi.x = 30; y = 90 };
  check_bool "moved" true
    (Dmi.decoration_pos t grid = Some { Dmi.x = 30; y = 90 });
  (* Decorations conform to the model. *)
  check_int "valid" 0
    (List.length (Dmi.validate t).Si_metamodel.Validate.violations);
  (* Deep copy carries them; deleting the bundle removes them. *)
  Dmi.set_template t electrolyte true;
  let copy =
    match
      Dmi.instantiate_template t ~template:electrolyte ~name:"copy"
        ~parent:electrolyte
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  check_int "copied" 1 (List.length (Dmi.decorations t copy));
  (match Dmi.delete_bundle t copy with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let model = (Dmi.model t).Bundle_model.model in
  check_int "one decoration left after subtree delete" 1
    (List.length
       (Si_metamodel.Model.instances_of model
          (Dmi.model t).Bundle_model.decoration));
  Dmi.delete_decoration t grid;
  check_int "none" 0 (List.length (Dmi.decorations t electrolyte))

let test_templates () =
  let t, _, root, _, _, _, electrolyte, _, _ = rounds () in
  Dmi.set_template t electrolyte true;
  check_bool "flagged" true (Dmi.is_template t electrolyte);
  check_int "listed" 1 (List.length (Dmi.templates t));
  let copy =
    match
      Dmi.instantiate_template t ~template:electrolyte ~name:"Electrolyte (new)"
        ~parent:root
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  check "copied name" "Electrolyte (new)" (Dmi.bundle_name t copy);
  check_bool "copy is not a template" true (not (Dmi.is_template t copy));
  check_int "scraps copied" 2 (List.length (Dmi.scraps t copy));
  check "copied scrap keeps mark" "mark-3"
    (Dmi.scrap_mark_id t (List.hd (Dmi.scraps t copy)));
  check_bool "copies are fresh resources" true
    (Dmi.scrap_id (List.hd (Dmi.scraps t copy))
    <> Dmi.scrap_id (List.hd (Dmi.scraps t electrolyte)));
  (* Non-templates refuse to instantiate. *)
  check_bool "non-template" true
    (Result.is_error
       (Dmi.instantiate_template t ~template:copy ~name:"x" ~parent:root));
  Dmi.set_template t electrolyte false;
  check_int "unflagged" 0 (List.length (Dmi.templates t))

let test_template_deep_copy () =
  let t = Dmi.create () in
  let pad = Dmi.create_slimpad t ~pad_name:"P" in
  let root = Dmi.root_bundle t pad in
  let tpl = Dmi.create_bundle t ~name:"patient-template" ~parent:root () in
  let inner = Dmi.create_bundle t ~name:"labs" ~parent:tpl () in
  let s = Dmi.create_scrap t ~name:"Na" ~mark_id:"m" ~parent:inner () in
  Dmi.annotate_scrap t s "flag if > 145";
  Dmi.set_template t tpl true;
  let copy =
    match
      Dmi.instantiate_template t ~template:tpl ~name:"bed 4" ~parent:root
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  check_bool "deep" true (Dmi.bundle_descendant_count t copy = (2, 1));
  let copied_scrap =
    List.hd (Dmi.scraps t (List.hd (Dmi.nested_bundles t copy)))
  in
  Alcotest.(check (list string))
    "annotations copied" [ "flag if > 145" ]
    (Dmi.annotations t copied_scrap)

(* --------------------------------------------------- operation journal *)

let test_journal_records_operations () =
  let t, pad, _, smith, dopamine, _, _, _, _ = rounds () in
  let ops = List.map (fun e -> e.Dmi.op) (Dmi.journal t) in
  (* Construction of the Fig 4 pad: 1 pad, 2 bundles, 4 scraps. *)
  check_int "entry count" 7 (List.length ops);
  check "first op" "create_slimpad" (List.hd ops);
  check_int "scrap creations" 4
    (List.length (List.filter (fun o -> o = "create_scrap") ops));
  (* Mutations append in order with increasing sequence numbers. *)
  Dmi.update_scrap_name t dopamine "renamed";
  Dmi.update_pad_name t pad "renamed pad";
  Dmi.update_bundle_name t smith "renamed bundle";
  let entries = Dmi.journal t in
  check_int "three more" 10 (List.length entries);
  let seqs = List.map (fun e -> e.Dmi.seq) entries in
  check_bool "strictly increasing" true
    (List.sort_uniq compare seqs = seqs);
  let last = List.nth entries 9 in
  check "last op" "update_bundle_name" last.Dmi.op;
  check "detail" "renamed to \"renamed bundle\"" last.Dmi.detail;
  check "target" (Dmi.bundle_id smith) last.Dmi.target

let test_journal_deletion_and_clear () =
  let t, _, _, _, dopamine, _, _, _, _ = rounds () in
  Dmi.delete_scrap t dopamine;
  let ops = List.map (fun e -> e.Dmi.op) (Dmi.journal t) in
  check_bool "delete recorded" true (List.mem "delete_scrap" ops);
  Dmi.clear_journal t;
  check_int "cleared" 0 (Dmi.journal_length t)

let test_journal_xml_roundtrip () =
  let t, _, _, _, dopamine, fentanyl, _, _, _ = rounds () in
  Dmi.annotate_scrap t dopamine "check";
  ignore (Dmi.link_scraps t ~from_:dopamine ~to_:fentanyl ());
  let xml = Dmi.journal_to_xml t in
  let t2 = Dmi.create () in
  (match Dmi.load_journal t2 xml with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "same length" (Dmi.journal_length t) (Dmi.journal_length t2);
  check_bool "same entries" true (Dmi.journal t = Dmi.journal t2);
  (* New operations continue the sequence after the loaded history. *)
  let pad2 = Dmi.create_slimpad t2 ~pad_name:"next" in
  ignore pad2;
  let last = List.nth (Dmi.journal t2) (Dmi.journal_length t2 - 1) in
  check_bool "sequence continues" true
    (last.Dmi.seq > Dmi.journal_length t)

let test_journal_record_codec () =
  let module Pad_format = Si_slimpad.Pad_format in
  let t, _, _, smith, _, _, _, _, _ = rounds () in
  Dmi.update_bundle_name t smith "renamed <&> bundle";
  let decode fields =
    Pad_format.decode (Si_wal.Record.encode_fields fields)
  in
  List.iter
    (fun entry ->
      match Pad_format.(decode (encode (Journal_entry entry))) with
      | Ok (Pad_format.Journal_entry back) ->
          check_int "seq" entry.Dmi.seq back.Dmi.seq;
          check "op" entry.Dmi.op back.Dmi.op;
          check "target" entry.Dmi.target back.Dmi.target;
          check "detail" entry.Dmi.detail back.Dmi.detail
      | Ok _ -> Alcotest.fail "decoded as another record kind"
      | Error e -> Alcotest.fail e)
    (Dmi.journal t);
  (* The record self-identifies for WAL dispatch. *)
  (match
     Si_wal.Record.decode_fields
       Pad_format.(encode (Journal_entry (List.hd (Dmi.journal t))))
   with
  | Ok (tag :: _) -> check "tag" "j" tag
  | _ -> Alcotest.fail "record did not decode");
  check_bool "foreign tag rejected" true
    (match decode [ "+"; "x" ] with
    | Ok (Pad_format.Journal_entry _) -> false
    | Ok _ | Error _ -> true);
  check_bool "short record rejected" true
    (Result.is_error (decode [ "j"; "1" ]))

let test_journal_observer () =
  let t, _, _, smith, dopamine, _, _, _, _ = rounds () in
  let events = ref [] in
  Dmi.on_journal t (fun e -> events := e :: !events);
  Dmi.update_bundle_name t smith "watched";
  (match !events with
  | [ Dmi.Journal_logged e ] -> check "op" "update_bundle_name" e.Dmi.op
  | _ -> Alcotest.fail "expected one Journal_logged event");
  (* A rolled-back transaction announces the truncation point so a WAL
     can discard the body's journal entries. *)
  events := [];
  let before = Dmi.journal_length t in
  (match
     Dmi.atomically t (fun () ->
         Dmi.update_scrap_name t dopamine "doomed";
         (Error "abort" : (unit, string) result))
   with
  | Error "abort" -> ()
  | _ -> Alcotest.fail "abort should surface");
  check_int "journal restored" before (Dmi.journal_length t);
  check_bool "logged then truncated" true
    (match List.rev !events with
    | Dmi.Journal_logged _ :: rest ->
        List.exists (function Dmi.Journal_truncated_to _ -> true | _ -> false)
          rest
    | _ -> false);
  events := [];
  Dmi.clear_journal t;
  check_bool "clear notifies" true
    (List.exists (function Dmi.Journal_cleared -> true | _ -> false) !events)

let test_journal_replay_helpers () =
  let t, _, _, smith, _, _, _, _, _ = rounds () in
  Dmi.update_bundle_name t smith "renamed";
  let entries = Dmi.journal t in
  (* Rebuild the journal on a fresh store via the replay-side helpers —
     the path WAL recovery takes. *)
  let t2 = Dmi.create () in
  Dmi.clear_journal t2;
  List.iter (Dmi.append_journal_entry t2) entries;
  check_bool "same entries" true (Dmi.journal t = Dmi.journal t2);
  let high = (List.nth entries (List.length entries - 1)).Dmi.seq in
  Dmi.truncate_journal_to t2 (high - 1);
  check_int "tail dropped" (List.length entries - 1) (Dmi.journal_length t2);
  (* Truncation mirrors rollback: the counter winds back with it, so the
     next entry reuses the discarded seq — exactly what the in-memory
     store does after [atomically] rolls back. *)
  ignore (Dmi.create_slimpad t2 ~pad_name:"next");
  let last = List.nth (Dmi.journal t2) (Dmi.journal_length t2 - 1) in
  check_bool "fresh seq continues past surviving history" true
    (last.Dmi.seq > high - 1)

(* ------------------------------------------ F9: consistency & validity *)

let test_always_valid () =
  (* "the DMI … guarantee[s] consistency between the triple representation
     and the application data": everything the DMI produces conforms to
     the Bundle-Scrap model. *)
  let t, _, root, smith, dopamine, fentanyl, electrolyte, na, _ = rounds () in
  let report = Dmi.validate t in
  check_int "no violations" 0 (List.length report.Si_metamodel.Validate.violations);
  (* ... and it stays valid through a workout of every mutator. *)
  Dmi.update_bundle_name t smith "renamed";
  Dmi.move_scrap t dopamine { Dmi.x = 5; y = 5 };
  Dmi.annotate_scrap t fentanyl "note";
  ignore (Dmi.link_scraps t ~from_:na ~to_:dopamine ());
  ignore (Dmi.reparent_bundle t electrolyte ~parent:root);
  Dmi.delete_scrap t dopamine;
  let report = Dmi.validate t in
  check_int "still none" 0
    (List.length report.Si_metamodel.Validate.violations)

let test_hand_written_triples_caught () =
  (* Schema-later: data written around the DMI is checked, not blocked. *)
  let t, _, _, smith, _, _, _, _, _ = rounds () in
  ignore
    (Trim.add (Dmi.trim t)
       (Triple.make (Dmi.bundle_id smith) "unknownProp" (Triple.literal "x")));
  let report = Dmi.validate t in
  check_int "violation found" 1
    (List.length report.Si_metamodel.Validate.violations)

let test_triples_visible () =
  (* The generic representation is really there: the pad's whole state is
     reachable from the pad resource (the TRIM view of §4.4). *)
  let t, pad, _, _, _, _, _, _, _ = rounds () in
  let view = Trim.view (Dmi.trim t) (Dmi.pad_id pad) in
  check_bool "view covers bundle names" true
    (List.exists
       (fun (tr : Triple.t) ->
         tr.predicate = Bundle_model.bundle_name
         && tr.object_ = Triple.Literal "John Smith")
       view);
  check_bool "view covers mark ids" true
    (List.exists
       (fun (tr : Triple.t) ->
         tr.predicate = Bundle_model.mark_id
         && tr.object_ = Triple.Literal "mark-4")
       view)

(* ----------------------------------------------------------- storage *)

let test_save_load () =
  let t, _, _, _, _, _, _, _, _ = rounds () in
  let path = Filename.temp_file "slimstore" ".xml" in
  (match Dmi.save t path with Ok () -> () | Error e -> Alcotest.fail e);
  let t2 = match Dmi.load path with Ok x -> x | Error e -> Alcotest.fail e in
  Sys.remove path;
  check_bool "contents equal" true (Dmi.equal_contents t t2);
  (* The loaded store is fully operable. *)
  let pad = Option.get (Dmi.find_pad t2 "Rounds") in
  let root = Dmi.root_bundle t2 pad in
  let smith = List.hd (Dmi.nested_bundles t2 root) in
  check "loaded bundle" "John Smith" (Dmi.bundle_name t2 smith);
  check_int "loaded scraps" 2 (List.length (Dmi.scraps t2 smith));
  (* New objects in the loaded store do not collide with loaded ids. *)
  let extra = Dmi.create_scrap t2 ~name:"new" ~mark_id:"m" ~parent:smith () in
  check_int "three scraps" 3 (List.length (Dmi.scraps t2 smith));
  check_bool "fresh id" true
    (Dmi.scrap_of_id t2 (Dmi.scrap_id extra) = Some extra);
  check_int "loaded store valid" 0
    (List.length (Dmi.validate t2).Si_metamodel.Validate.violations)

let test_store_choice () =
  (* The DMI is independent of the store implementation (E3 setup). *)
  let t = Dmi.create ~store:(module Si_triple.Store.List_store) () in
  let pad = Dmi.create_slimpad t ~pad_name:"P" in
  let root = Dmi.root_bundle t pad in
  let _ = Dmi.create_scrap t ~name:"s" ~mark_id:"m" ~parent:root () in
  check "list-backed works" "P" (Dmi.pad_name t pad);
  check_int "valid" 0
    (List.length (Dmi.validate t).Si_metamodel.Validate.violations)

(* Property: random DMI workouts keep the store conformant and keep
   parent/child views consistent. *)
let prop_random_workout =
  QCheck.Test.make ~name:"random DMI workouts stay valid" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (QCheck.int_range 0 13))
    (fun ops ->
      let t = Dmi.create () in
      let pad = Dmi.create_slimpad t ~pad_name:"W" in
      let root = Dmi.root_bundle t pad in
      let bundles = ref [ root ] in
      let scraps = ref [] in
      let pick l n = List.nth l (n mod List.length l) in
      List.iteri
        (fun i op ->
          match op with
          | 0 | 1 ->
              let parent = pick !bundles i in
              bundles :=
                Dmi.create_bundle t
                  ~name:(Printf.sprintf "b%d" i)
                  ~parent ()
                :: !bundles
          | 2 | 3 | 4 ->
              let parent = pick !bundles i in
              scraps :=
                Dmi.create_scrap t
                  ~name:(Printf.sprintf "s%d" i)
                  ~mark_id:(Printf.sprintf "m%d" i)
                  ~parent ()
                :: !scraps
          | 5 when !scraps <> [] ->
              Dmi.move_scrap t (pick !scraps i) { Dmi.x = i; y = i }
          | 6 when !scraps <> [] ->
              Dmi.annotate_scrap t (pick !scraps i) "note"
          | 7 when List.length !scraps >= 2 ->
              ignore
                (Dmi.link_scraps t ~from_:(pick !scraps i)
                   ~to_:(pick !scraps (i + 1))
                   ())
          | 8 when !scraps <> [] ->
              let victim = pick !scraps i in
              Dmi.delete_scrap t victim;
              scraps := List.filter (fun s -> s <> victim) !scraps
          | 9 ->
              let b = pick !bundles i in
              Dmi.update_bundle_name t b "renamed"
          | 10 ->
              ignore
                (Dmi.add_decoration t (pick !bundles i) ~kind:"gridlet" ())
          | 11 ->
              let b = pick !bundles i in
              if not (Dmi.is_template t b) then Dmi.set_template t b true
          | 12 -> (
              let b = pick !bundles i in
              if Dmi.is_template t b then
                match
                  Dmi.instantiate_template t ~template:b
                    ~name:(Printf.sprintf "copy%d" i) ~parent:root
                with
                | Ok copy -> bundles := copy :: !bundles
                | Error _ -> ())
          | 13 ->
              (* A failing transaction must leave no trace. *)
              let before = Dmi.triple_count t in
              (match
                 Dmi.atomically t (fun () ->
                     let b =
                       Dmi.create_bundle t
                         ~name:(Printf.sprintf "tx%d" i)
                         ~parent:root ()
                     in
                     let _ =
                       Dmi.create_scrap t ~name:"tx" ~mark_id:"m" ~parent:b ()
                     in
                     Error ())
               with
              | Error () -> ()
              | Ok _ -> ());
              assert (Dmi.triple_count t = before)
          | _ -> ())
        ops;
      (Dmi.validate t).Si_metamodel.Validate.violations = []
      && List.for_all
           (fun s -> Dmi.scrap_parent t s <> None)
           !scraps)

let props = List.map QCheck_alcotest.to_alcotest [ prop_random_workout ]

let suite =
  [
    ("create & read (Fig 4 pad)", `Quick, test_create_and_read);
    ("creation order preserved", `Quick, test_creation_order_preserved);
    ("parents", `Quick, test_parents);
    ("update operations (Fig 10)", `Quick, test_updates);
    ("id round-trips", `Quick, test_ids_roundtrip);
    ("find_pad & pads", `Quick, test_find_pad_and_pads);
    ("descendant counts", `Quick, test_descendant_count);
    ("reparent bundle", `Quick, test_reparent);
    ("reparent scrap", `Quick, test_reparent_scrap);
    ("delete scrap", `Quick, test_delete_scrap);
    ("delete bundle recursively", `Quick, test_delete_bundle_recursive);
    ("delete root rejected", `Quick, test_delete_root_rejected);
    ("delete pad", `Quick, test_delete_pad);
    ("annotations (§6)", `Quick, test_annotations);
    ("links (§6)", `Quick, test_links);
    ("decorations (Fig 4 gridlet)", `Quick, test_decorations);
    ("templates (§6)", `Quick, test_templates);
    ("template deep copy", `Quick, test_template_deep_copy);
    ("journal records operations", `Quick, test_journal_records_operations);
    ("journal deletion & clear", `Quick, test_journal_deletion_and_clear);
    ("journal XML round-trip", `Quick, test_journal_xml_roundtrip);
    ("journal record codec", `Quick, test_journal_record_codec);
    ("journal observer events", `Quick, test_journal_observer);
    ("journal replay helpers", `Quick, test_journal_replay_helpers);
    ("DMI output always conformant (F9)", `Quick, test_always_valid);
    ("hand-written triples caught", `Quick, test_hand_written_triples_caught);
    ("triples visible via TRIM view", `Quick, test_triples_visible);
    ("save & load", `Quick, test_save_load);
    ("store implementation choice", `Quick, test_store_choice);
  ]
  @ props
