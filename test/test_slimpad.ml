(* Integration tests for the SLIMPad application: app -> SLIM store -> TRIM
   and app -> Mark Manager -> base applications (paper Fig 5; experiments
   F1, F4, F5). *)

open Si_slimpad
module Dmi = Si_slim.Dmi
module Desktop = Si_mark.Desktop
module Manager = Si_mark.Manager

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* A desktop with the Fig 4 documents. *)
let fig4_desktop () =
  let desk = Desktop.create () in
  let wb = Si_spreadsheet.Workbook.create ~sheet_names:[ "Medications" ] () in
  let set a v = Si_spreadsheet.Workbook.set wb ~sheet_name:"Medications" a v in
  set "A1" "Drug";
  set "B1" "Dose";
  set "A2" "Dopamine";
  set "B2" "5";
  set "A3" "Fentanyl";
  set "B3" "0.05";
  Desktop.add_workbook desk "meds.xls" wb;
  Desktop.add_xml desk "labs.xml"
    (Si_xmlk.Parse.node_exn
       "<report><panel name=\"electrolytes\">\
        <result test=\"Na\">140</result><result test=\"K\">4.2</result>\
        </panel></report>");
  desk

let fig4_app () =
  let desk = fig4_desktop () in
  let app = Slimpad.create desk in
  let pad = Slimpad.new_pad app "Rounds" in
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  let smith = Slimpad.add_bundle app ~parent:root ~name:"John Smith"
      ~pos:{ Dmi.x = 10; y = 10 } () in
  let dopa =
    ok
      (Slimpad.add_scrap app ~parent:smith ~name:"Dopamine 5"
         ~mark_type:"excel"
         ~fields:
           [ ("fileName", "meds.xls"); ("sheetName", "Medications");
             ("range", "A2:B2") ]
         ~pos:{ Dmi.x = 20; y = 30 }
         ())
  in
  let electro =
    Slimpad.add_bundle app ~parent:smith ~name:"Electrolyte"
      ~pos:{ Dmi.x = 20; y = 80 } ()
  in
  let k =
    ok
      (Slimpad.add_scrap app ~parent:electro ~name:"4.2" ~mark_type:"xml"
         ~fields:
           [ ("fileName", "labs.xml");
             ("xmlPath", "/report/panel/result[2]") ]
         ())
  in
  (app, pad, smith, dopa, electro, k)

let test_add_scrap_creates_mark () =
  let app, _, _, dopa, _, _ = fig4_app () in
  let mark = Option.get (Slimpad.scrap_mark app dopa) in
  check "mark type" "excel" mark.Si_mark.Mark.mark_type;
  check "mark cached the selection" "Dopamine\t5" mark.Si_mark.Mark.excerpt;
  check_int "two marks in manager" 2 (Manager.mark_count (Slimpad.marks app))

let test_add_scrap_default_label () =
  let app, _, smith, _, _, _ = fig4_app () in
  let s =
    ok
      (Slimpad.add_scrap app ~parent:smith ~name:"" ~mark_type:"excel"
         ~fields:
           [ ("fileName", "meds.xls"); ("sheetName", "Medications");
             ("range", "B3") ]
         ())
  in
  check "label defaults to excerpt" "0.05"
    (Dmi.scrap_name (Slimpad.dmi app) s)

let test_add_scrap_bad_mark () =
  let app, _, smith, _, _, _ = fig4_app () in
  check_bool "bad address refused" true
    (Result.is_error
       (Slimpad.add_scrap app ~parent:smith ~name:"x" ~mark_type:"excel"
          ~fields:[ ("fileName", "meds.xls") ]
          ()))

let test_double_click () =
  (* "By clicking on the scrap, the mark is de-referenced and the original
     information source, the medication list, is displayed with the
     appropriate medication highlighted." *)
  let app, _, _, dopa, _, k = fig4_app () in
  let res = ok (Slimpad.double_click app dopa) in
  check_bool "medication highlighted in context" true
    (let re = Re.compile (Re.str "[Dopamine]") in
     Re.execp re res.Si_mark.Mark.res_context);
  let res_k = ok (Slimpad.double_click app k) in
  check "xml scrap content" "4.2" res_k.Si_mark.Mark.res_excerpt;
  check "extract behaviour" "4.2" (ok (Slimpad.scrap_content app k));
  check_bool "in-place behaviour is markup" true
    (let re = Re.compile (Re.str "<result") in
     Re.execp re (ok (Slimpad.scrap_in_place app k)))

let test_label_and_content_differ () =
  (* "Note that a scrap's label and its mark's content may differ." *)
  let app, _, _, dopa, _, _ = fig4_app () in
  Dmi.update_scrap_name (Slimpad.dmi app) dopa "pressor #1";
  check "label" "pressor #1" (Dmi.scrap_name (Slimpad.dmi app) dopa);
  check "content unchanged" "Dopamine\t5" (ok (Slimpad.scrap_content app dopa))

let test_drift_and_refresh () =
  let app, pad, _, _, _, _ = fig4_app () in
  check_int "clean pad" 0 (List.length (Slimpad.drift_report app pad));
  (* The medication list changes under the pad. *)
  let wb = ok (Desktop.open_workbook (Slimpad.desktop app) "meds.xls") in
  Si_spreadsheet.Workbook.set wb ~sheet_name:"Medications" "B2" "10";
  (match Slimpad.drift_report app pad with
  | [ (_, Manager.Changed { was; now }) ] ->
      check "was" "Dopamine\t5" was;
      check "now" "Dopamine\t10" now
  | l -> Alcotest.failf "expected one Changed, got %d entries" (List.length l));
  check_int "refresh fixes one" 1 (Slimpad.refresh_pad app pad);
  check_int "clean again" 0 (List.length (Slimpad.drift_report app pad))

let test_find_scraps () =
  let app, pad, _, _, _, _ = fig4_app () in
  check_int "find nested" 1 (List.length (Slimpad.find_scraps app pad "4.2"));
  check_int "find by prefix" 1
    (List.length (Slimpad.find_scraps app pad "Dopa"));
  check_int "none" 0 (List.length (Slimpad.find_scraps app pad "insulin"))

(* [find_scraps]'s order contract: the pad's bundle tree in pre-order,
   each bundle's own scraps (creation order) before its nested bundles
   (creation order), one entry per containing path. [tree_order] is that
   walk written out directly; the server answers a resolve with the
   first entry, so the order is pinned, not only the set. *)
let tree_order dmi pad needle =
  let contains l =
    let nl = String.length needle and hl = String.length l in
    let rec at i = i + nl <= hl && (String.sub l i nl = needle || at (i + 1)) in
    at 0
  in
  let rec walk b =
    List.filter (fun s -> contains (Dmi.scrap_name dmi s)) (Dmi.scraps dmi b)
    @ List.concat_map walk (Dmi.nested_bundles dmi b)
  in
  List.map Dmi.scrap_id (walk (Dmi.root_bundle dmi pad))

let find_ids app pad needle =
  List.map Dmi.scrap_id (Slimpad.find_scraps app pad needle)

let ids_listing = Alcotest.(check (list string))

let test_find_scraps_order_icu () =
  let desk = Desktop.create () in
  let spec = Si_workload.Icu.build_desktop ~patients:20 ~seed:17 desk in
  let app = Slimpad.create desk in
  let pad = Si_workload.Icu.build_worksheet app spec in
  let dmi = Slimpad.dmi app in
  let all = tree_order dmi pad "" in
  check_int "every scrap" 231 (List.length all);
  (* Thirty labels sampled at a fixed stride through the tree. *)
  let labels =
    List.init 30 (fun i ->
        let id = List.nth all (i * 7) in
        Dmi.scrap_name dmi (Option.get (Dmi.scrap_of_id dmi id)))
  in
  let needles = ("" :: "TODO:" :: "Dopa" :: "no such scrap" :: labels) in
  let listing =
    List.map
      (fun needle ->
        let got = find_ids app pad needle in
        ids_listing (Printf.sprintf "tree order for %S" needle)
          (tree_order dmi pad needle) got;
        needle ^ "\t" ^ String.concat " " got)
      needles
  in
  ids_listing "no match" [] (find_ids app pad "no such scrap");
  check_int "to-do scraps" 38 (List.length (find_ids app pad "TODO:"));
  check "pinned listing" "9e6454f7e886e4364297ac8acca3d7fe"
    (Digest.to_hex (Digest.string (String.concat "\n" listing)))

(* A hand-built pad where tree order and creation order part ways, with
   the raw-triple shapes the DMI itself never writes. *)
let test_find_scraps_order_edges () =
  let app = Slimpad.create (Desktop.create ()) in
  let dmi = Slimpad.dmi app in
  let trim = Dmi.trim dmi in
  let module Triple = Si_triple.Triple in
  let module Trim = Si_triple.Trim in
  let pad = Dmi.create_slimpad dmi ~pad_name:"Ward" in
  let root = Dmi.root_bundle dmi pad in
  let bundle parent name = Dmi.create_bundle dmi ~name ~parent () in
  let scrap parent name =
    Dmi.create_scrap dmi ~name ~mark_id:("m-" ^ name) ~parent ()
  in
  let a = bundle root "A" in
  let b = bundle root "B" in
  let c = bundle b "C" in
  let moved = scrap a "Dopamine moved" in
  let a1 = scrap a "Dopamine A" in
  let b1 = scrap b "Dopamine B" in
  let c1 = scrap c "Dopamine C" in
  let r1 = scrap root "Dopamine R" in
  (* Tree order is not creation order: the first scrap moves into C, and
     C moves from B into A. *)
  Dmi.reparent_scrap dmi moved ~parent:c;
  ok (Dmi.reparent_bundle dmi c ~parent:a);
  (* A scrap held by two bundles is listed once per path. *)
  ignore
    (Trim.add trim
       (Triple.make (Dmi.bundle_id b) Si_slim.Bundle_model.bundle_content
          (Triple.resource (Dmi.scrap_id a1))));
  (* A scrap without a name: only the empty needle finds it. *)
  let nameless = scrap b "Dopamine nameless" in
  Trim.select ~subject:(Dmi.scrap_id nameless)
    ~predicate:Si_slim.Bundle_model.scrap_name trim
  |> List.iter (fun tr -> ignore (Trim.remove trim tr));
  (* A scrap with two names answers only to the one [Dmi.scrap_name]
     reads, as the label a user sees. *)
  let twice = scrap b "Dopamine twice" in
  ignore
    (Trim.add trim
       (Triple.make (Dmi.scrap_id twice) Si_slim.Bundle_model.scrap_name
          (Triple.literal "Heparin twice")));
  (* The same label in another pad, and in a nestedBundle cycle that no
     root reaches, is not this pad's. *)
  let other = Dmi.create_slimpad dmi ~pad_name:"Other" in
  let elsewhere = scrap (Dmi.root_bundle dmi other) "Dopamine elsewhere" in
  let x = bundle (Dmi.root_bundle dmi other) "X" in
  let y = bundle x "Y" in
  ignore (scrap x "Dopamine cycle");
  Trim.select ~predicate:Si_slim.Bundle_model.nested_bundle
    ~object_:(Triple.resource (Dmi.bundle_id x)) trim
  |> List.iter (fun tr -> ignore (Trim.remove trim tr));
  ignore
    (Trim.add trim
       (Triple.make (Dmi.bundle_id y) Si_slim.Bundle_model.nested_bundle
          (Triple.resource (Dmi.bundle_id x))));
  let id = Dmi.scrap_id in
  check "the name a user sees" "Heparin twice" (Dmi.scrap_name dmi twice);
  ids_listing "Dopamine, tree order"
    [ id r1; id a1; id moved; id c1; id a1; id b1 ]
    (find_ids app pad "Dopamine");
  ids_listing "empty needle, nameless scrap included"
    [ id r1; id a1; id moved; id c1; id a1; id b1; id nameless; id twice ]
    (find_ids app pad "");
  ids_listing "the other name" [ id twice ] (find_ids app pad "Heparin");
  ids_listing "pinned ids"
    [ "scrap-14"; "scrap-8"; "scrap-6"; "scrap-12"; "scrap-8"; "scrap-10" ]
    (find_ids app pad "Dopamine");
  ids_listing "other pad" [ id elsewhere ] (find_ids app other "Dopamine");
  ids_listing "cycle unreached" [] (find_ids app other "cycle");
  (* A bundle nested in two bundles: its subtree is walked once per
     parent. *)
  ignore
    (Trim.add trim
       (Triple.make (Dmi.bundle_id root) Si_slim.Bundle_model.nested_bundle
          (Triple.resource (Dmi.bundle_id c))));
  ids_listing "C under A and under the root"
    [ id r1; id a1; id moved; id c1; id a1; id b1; id moved; id c1 ]
    (find_ids app pad "Dopamine");
  List.iter
    (fun needle ->
      ids_listing
        (Printf.sprintf "tree order for %S" needle)
        (tree_order dmi pad needle) (find_ids app pad needle))
    [ ""; "Dopamine"; "A"; "twice"; "e" ]

(* [find_scraps] walks up from each match while few names match, and
   walks the tree down when many do. Both give the tree order on a moved
   scrap, a reparented bundle, a scrap in two bundles, a bundle under
   two parents, a scrap with two names and the same label in another
   pad. Here "Dopamine" matches almost every name, until a hundred
   other names in a third pad make it a rare match. *)
let test_find_scraps_paths_agree () =
  let app = Slimpad.create (Desktop.create ()) in
  let dmi = Slimpad.dmi app in
  let trim = Dmi.trim dmi in
  let module Triple = Si_triple.Triple in
  let module B = Si_slim.Bundle_model in
  let raw s p o = ignore (Si_triple.Trim.add trim (Triple.make s p o)) in
  let pad = Dmi.create_slimpad dmi ~pad_name:"Ward" in
  let root = Dmi.root_bundle dmi pad in
  let bundle parent name = Dmi.create_bundle dmi ~name ~parent () in
  let scrap parent name =
    Dmi.create_scrap dmi ~name ~mark_id:("m-" ^ name) ~parent ()
  in
  let a = bundle root "A" in
  let b = bundle root "B" in
  let c = bundle b "C" in
  let moved = scrap a "Dopamine moved" in
  List.iter
    (fun (parent, name) -> ignore (scrap parent name))
    [
      (a, "Dopamine A"); (b, "Dopamine B"); (c, "Dopamine C");
      (root, "Dopamine R");
    ];
  Dmi.reparent_scrap dmi moved ~parent:c;
  ok (Dmi.reparent_bundle dmi c ~parent:a);
  raw (Dmi.bundle_id b) B.bundle_content
    (Triple.resource (Dmi.scrap_id moved));
  raw (Dmi.bundle_id root) B.nested_bundle (Triple.resource (Dmi.bundle_id c));
  let twice = scrap b "Dopamine twice" in
  raw (Dmi.scrap_id twice) B.scrap_name (Triple.literal "Heparin twice");
  let other = Dmi.create_slimpad dmi ~pad_name:"Other" in
  ignore (scrap (Dmi.root_bundle dmi other) "Dopamine elsewhere");
  let needles = [ "Dopamine"; "Heparin"; "twice"; "moved" ] in
  let check_tree_order stage =
    List.map
      (fun needle ->
        let got = find_ids app pad needle in
        ids_listing
          (Printf.sprintf "%s: tree order for %S" stage needle)
          (tree_order dmi pad needle) got;
        got)
      needles
  in
  let common = check_tree_order "common" in
  check_int "moved listed on three paths" 3
    (List.length (find_ids app pad "moved"));
  let filler =
    Dmi.root_bundle dmi (Dmi.create_slimpad dmi ~pad_name:"Filler")
  in
  for i = 1 to 100 do
    ignore (scrap filler (Printf.sprintf "filler %d" i))
  done;
  Alcotest.(check (list (list string)))
    "rare: same listings" common (check_tree_order "rare")

let test_query_through_app () =
  let app, _, _, _, _, _ = fig4_app () in
  let rows =
    ok
      (Slimpad.query app
         "select ?n where { ?s scrapName ?n . ?s scrapMark ?h }")
  in
  check_int "two scraps" 2 (List.length rows);
  check_bool "bad query reported" true (Result.is_error (Slimpad.query app "("))

let test_render () =
  let app, pad, _, _, _, _ = fig4_app () in
  let text = Slimpad.render_pad app pad in
  let has s =
    let re = Re.compile (Re.str s) in
    Re.execp re text
  in
  check_bool "pad header" true (has "SLIMPad \"Rounds\"");
  check_bool "bundle with position" true (has "Bundle \"John Smith\" @(10,10)");
  check_bool "nested bundle" true (has "Bundle \"Electrolyte\"");
  check_bool "scrap with source" true
    (has "Scrap \"Dopamine 5\" @(20,30) -> meds.xls!Medications!A2:B2");
  check_bool "xml scrap source" true
    (has "labs.xml#/report/panel/result[2]")

let test_render_annotations_and_links () =
  let app, pad, _, dopa, _, k = fig4_app () in
  Dmi.annotate_scrap (Slimpad.dmi app) dopa "check dose";
  ignore
    (Dmi.link_scraps (Slimpad.dmi app) ~label:"related" ~from_:dopa ~to_:k ());
  let text = Slimpad.render_pad app pad in
  let has s =
    let re = Re.compile (Re.str s) in
    Re.execp re text
  in
  check_bool "annotation" true (has "note: check dose");
  check_bool "link" true (has "\"Dopamine 5\" --related--> \"4.2\"")

let test_save_load_combined () =
  let app, pad, _, _, _, _ = fig4_app () in
  Dmi.annotate_scrap (Slimpad.dmi app)
    (List.hd (Slimpad.find_scraps app pad "Dopamine"))
    "note";
  let path = Filename.temp_file "pad" ".xml" in
  ok (Slimpad.save app path);
  let app2 = ok (Slimpad.load (fig4_desktop ()) path) in
  Sys.remove path;
  let pad2 = Option.get (Dmi.find_pad (Slimpad.dmi app2) "Rounds") in
  check "same rendering" (Slimpad.render_pad app pad)
    (Slimpad.render_pad app2 pad2);
  (* Marks still resolve against the fresh desktop. *)
  let dopa2 = List.hd (Slimpad.find_scraps app2 pad2 "Dopamine") in
  check "resolves after reload" "Dopamine\t5"
    (ok (Slimpad.scrap_content app2 dopa2))

let test_load_rejects_garbage () =
  let path = Filename.temp_file "bad" ".xml" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "<not-a-store/>");
  check_bool "bad file" true
    (Result.is_error (Slimpad.load (Desktop.create ()) path));
  Sys.remove path

let test_render_html () =
  let app, pad, _, dopa, _, k = fig4_app () in
  Dmi.annotate_scrap (Slimpad.dmi app) dopa "check dose";
  ignore
    (Dmi.link_scraps (Slimpad.dmi app) ~label:"related" ~from_:dopa ~to_:k ());
  ignore
    (Dmi.add_decoration (Slimpad.dmi app)
       (Dmi.root_bundle (Slimpad.dmi app) pad)
       ~kind:"gridlet" ~pos:{ Dmi.x = 5; y = 5 } ());
  let html = Slimpad.render_pad_html app pad in
  let has s =
    let re = Re.compile (Re.str s) in
    Re.execp re html
  in
  check_bool "is a document" true (has "<!DOCTYPE html>");
  check_bool "positioned bundle" true (has "left:10px; top:10px;");
  check_bool "scrap label" true (has ">Dopamine 5");
  check_bool "mark source in title" true (has "meds.xls!Medications!A2:B2");
  check_bool "annotation" true (has "check dose");
  check_bool "decoration" true (has "[gridlet]");
  check_bool "link section" true (has "related");
  (* It parses as HTML with the expected structure. *)
  let dom = Si_htmldoc.Htmldoc.parse html in
  check_int "bundle divs" 3
    (List.length
       (Result.get_ok (Si_htmldoc.Selector.query dom "div.bundle")));
  check_int "scrap spans" 2
    (List.length (Result.get_ok (Si_htmldoc.Selector.query dom "span.scrap")))

let test_import_pad () =
  (* Doctor A saves a pad; doctor B imports it next to their own — fresh
     ids, live marks, annotations and links intact. *)
  let app_a, pad_a, _, dopa, _, k = fig4_app () in
  Dmi.annotate_scrap (Slimpad.dmi app_a) dopa "verify with pharmacy";
  ignore (Dmi.link_scraps (Slimpad.dmi app_a) ~label:"rel" ~from_:dopa ~to_:k ());
  let path = Filename.temp_file "shared" ".xml" in
  ok (Slimpad.save app_a path);
  let app_b, pad_b, _, _, _, _ = fig4_app () in
  let imported =
    match Slimpad.import_pad app_b ~from_file:path () with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let t = Slimpad.dmi app_b in
  check "named" "Rounds (imported)" (Dmi.pad_name t imported);
  check_int "two pads now" 2 (List.length (Dmi.pads t));
  (* The copy has the full structure... *)
  check_bool "structure copied" true
    (Dmi.bundle_descendant_count t (Dmi.root_bundle t imported) = (3, 2));
  (* ...with fresh scraps whose marks resolve against B's desktop. *)
  let dopa_b = List.hd (Slimpad.find_scraps app_b imported "Dopamine") in
  check "mark resolves" "Dopamine\t5" (ok (Slimpad.scrap_content app_b dopa_b));
  Alcotest.(check (list string))
    "annotation came along" [ "verify with pharmacy" ]
    (Dmi.annotations t dopa_b);
  check_int "link came along" 1
    (List.length (Dmi.links_of_scrap t dopa_b));
  (* B's own pad is untouched and B's marks are distinct objects. *)
  check_int "own pad intact" 2
    (List.length (Slimpad.find_scraps app_b pad_b ""));
  check_bool "no mark id collision" true
    (Dmi.scrap_mark_id t dopa_b
    <> Dmi.scrap_mark_id (Slimpad.dmi app_a)
         (List.hd (Slimpad.find_scraps app_a pad_a "Dopamine")));
  (* Importing twice just makes another copy. *)
  let path2 = Filename.temp_file "shared" ".xml" in
  ok (Slimpad.save app_a path2);
  (match Slimpad.import_pad app_b ~from_file:path2 ~rename:"third" () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Sys.remove path2;
  check_int "three pads" 3 (List.length (Dmi.pads t));
  check_int "store still conformant" 0
    (List.length (Dmi.validate t).Si_metamodel.Validate.violations)

let test_import_pad_errors () =
  let app, _, _, _, _, _ = fig4_app () in
  check_bool "missing file" true
    (Result.is_error (Slimpad.import_pad app ~from_file:"/nonexistent" ()));
  let path = Filename.temp_file "shared" ".xml" in
  ok (Slimpad.save app path);
  check_bool "unknown pad name" true
    (Result.is_error
       (Slimpad.import_pad app ~from_file:path ~pad_name:"Nope" ()));
  Sys.remove path

let test_store_implementation_invariance () =
  (* The application behaves identically over every store implementation
     (modulo resource-id allocation, which is also deterministic). *)
  let build store =
    let desk = fig4_desktop () in
    let app = Slimpad.create ~store desk in
    let pad = Slimpad.new_pad app "P" in
    let root = Dmi.root_bundle (Slimpad.dmi app) pad in
    let b = Slimpad.add_bundle app ~parent:root ~name:"B" () in
    let s =
      ok
        (Slimpad.add_scrap app ~parent:b ~name:"s" ~mark_type:"excel"
           ~fields:
             [ ("fileName", "meds.xls"); ("sheetName", "Medications");
               ("range", "B2") ]
           ())
    in
    Dmi.annotate_scrap (Slimpad.dmi app) s "n";
    Slimpad.render_pad app pad
  in
  let renders =
    List.map
      (fun (_, store) -> build store)
      Si_triple.Store.implementations
  in
  match renders with
  | first :: rest ->
      List.iteri
        (fun i other ->
          check (Printf.sprintf "impl %d renders identically" (i + 1)) first
            other)
        rest
  | [] -> Alcotest.fail "no implementations"

let test_dangling_mark_rendering () =
  let app, pad, smith, _, _, _ = fig4_app () in
  (* A scrap whose mark was removed behind its back renders as dangling. *)
  let s =
    ok
      (Slimpad.add_scrap app ~parent:smith ~name:"will dangle"
         ~mark_type:"excel"
         ~fields:
           [ ("fileName", "meds.xls"); ("sheetName", "Medications");
             ("range", "A1") ]
         ())
  in
  let mark_id = Dmi.scrap_mark_id (Slimpad.dmi app) s in
  ignore (Manager.remove_mark (Slimpad.marks app) mark_id);
  let text = Slimpad.render_pad app pad in
  check_bool "dangling shown" true
    (let re = Re.compile (Re.str "dangling mark") in
     Re.execp re text)

(* ------------------------------------------------ journaled persistence *)

let fresh_wal_path () =
  let path = Filename.temp_file "slimpad" ".wal" in
  Sys.remove path;
  let snap = Si_wal.Log.snapshot_path path in
  if Sys.file_exists snap then Sys.remove snap;
  path

let cleanup_wal path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Si_wal.Log.snapshot_path path; Si_wal.Log.lock_path path ]

(* Snapshot the on-disk WAL state (log + snapshot file) to a fresh path,
   as a crash would leave it — the live writer keeps its lock, so
   recovery is exercised on the copy. *)
let crash_copy path =
  let dst = fresh_wal_path () in
  let copy src dst =
    if Sys.file_exists src then
      Out_channel.with_open_bin dst (fun oc ->
          In_channel.with_open_bin src (fun ic ->
              Out_channel.output_string oc (In_channel.input_all ic)))
  in
  copy path dst;
  copy (Si_wal.Log.snapshot_path path) (Si_wal.Log.snapshot_path dst);
  dst

(* Full-state equality: triples, marks, and operation journal. *)
let check_same_state a b =
  check_bool "triples equal" true
    (Dmi.equal_contents (Slimpad.dmi a) (Slimpad.dmi b));
  let mark_key m =
    ( m.Si_mark.Mark.mark_id,
      m.Si_mark.Mark.mark_type,
      m.Si_mark.Mark.excerpt,
      List.sort compare m.Si_mark.Mark.fields )
  in
  let marks app =
    List.sort compare (List.map mark_key (Manager.marks (Slimpad.marks app)))
  in
  check_bool "marks equal" true (marks a = marks b);
  check_bool "journal equal" true
    (Dmi.journal (Slimpad.dmi a) = Dmi.journal (Slimpad.dmi b))

let test_wal_enable_and_recover () =
  let app, _, smith, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  check_bool "starts whole-file" true (Slimpad.persistence app = Whole_file);
  ok (Slimpad.enable_wal app path);
  check_bool "now journaled" true (Slimpad.persistence app = Journaled);
  (* Mutations after the snapshot ride the log. *)
  let s =
    ok
      (Slimpad.add_scrap app ~parent:smith ~name:"post-snapshot"
         ~mark_type:"excel"
         ~fields:
           [ ("fileName", "meds.xls"); ("sheetName", "Medications");
             ("range", "A3:B3") ]
         ())
  in
  Dmi.update_scrap_name (Slimpad.dmi app) s "renamed after";
  ok (Slimpad.wal_sync app);
  let crashed = crash_copy path in
  let app2, rc =
    ok (Slimpad.open_wal (fig4_desktop ()) crashed)
  in
  check_bool "recovered from snapshot" true rc.Slimpad.from_snapshot;
  check_bool "tail replayed" true (rc.Slimpad.replayed > 0);
  check_int "no torn tail" 0 rc.Slimpad.truncated_bytes;
  check_same_state app app2;
  (* The recovered app keeps journaling: a further mutation followed by
     another recovery still matches. *)
  Dmi.update_scrap_name (Slimpad.dmi app2) s "renamed again";
  ok (Slimpad.wal_sync app2);
  ok (Slimpad.wal_close app2);
  let app3, _ = ok (Slimpad.open_wal (fig4_desktop ()) crashed) in
  check "rename survived a second cycle" "renamed again"
    (Dmi.scrap_name (Slimpad.dmi app3) s);
  ok (Slimpad.wal_close app3);
  ok (Slimpad.wal_close app);
  check_bool "close reverts to whole-file" true
    (Slimpad.persistence app = Whole_file);
  cleanup_wal crashed;
  cleanup_wal path

let test_wal_enable_refuses_existing () =
  let app, _, _, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app path);
  let other, _, _, _, _, _ = fig4_app () in
  check_bool "second enable at the same path refused" true
    (Result.is_error (Slimpad.enable_wal other path));
  check_bool "double enable refused" true
    (Result.is_error (Slimpad.enable_wal app path));
  ok (Slimpad.wal_close app);
  cleanup_wal path

let test_wal_compact_idempotent () =
  let app, _, smith, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app path);
  for i = 1 to 5 do
    ignore
      (ok
         (Slimpad.add_scrap app ~parent:smith
            ~name:(Printf.sprintf "scrap %d" i)
            ~mark_type:"excel"
            ~fields:
              [ ("fileName", "meds.xls"); ("sheetName", "Medications");
                ("range", "A1") ]
            ()))
  done;
  ok (Slimpad.wal_compact app);
  check_int "log folded into the snapshot" 0
    (Si_wal.Log.record_count (Option.get (Slimpad.wal app)));
  ok (Slimpad.wal_close app);
  let app2, rc = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_int "nothing to replay" 0 rc.Slimpad.replayed;
  check_same_state app app2;
  (* Compacting the recovered state changes nothing. *)
  ok (Slimpad.wal_compact app2);
  ok (Slimpad.wal_close app2);
  let app3, _ = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_same_state app app3;
  ok (Slimpad.wal_close app3);
  cleanup_wal path

let test_wal_snapshot_into_sharded_store () =
  (* Recovery from a binary snapshot takes the one packed-column load
     path for the store the server runs, and the pad answers like the
     list oracle holding the same triples. *)
  let open Si_triple in
  let app, _, _, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app path);
  ok (Slimpad.wal_compact app);
  ok (Slimpad.wal_close app);
  let app2, rc =
    ok
      (Slimpad.open_wal ~store:(module Store.Sharded_columnar)
         (fig4_desktop ()) path)
  in
  check_bool "recovered from snapshot" true rc.Slimpad.from_snapshot;
  let trim = Dmi.trim (Slimpad.dmi app2) in
  (* The alias names the columnar store. *)
  check "store" "columnar" (Trim.store_name trim);
  let triples = Trim.to_list (Dmi.trim (Slimpad.dmi app)) in
  let oracle = Trim.create ~store:(module Store.List_store) () in
  Trim.add_all oracle triples;
  let answers t =
    List.map
      (fun (tr : Triple.t) ->
        ( List.sort Triple.compare
            (Trim.select ~subject:tr.subject t
            @ Trim.select ~predicate:tr.predicate ~object_:tr.object_ t),
          Trim.count_select ~subject:tr.subject ~predicate:tr.predicate t ))
      triples
  in
  check_int "size" (List.length triples) (Trim.size trim);
  check_bool "answers like the list oracle" true
    (answers trim = answers oracle);
  check_same_state app app2;
  ok (Slimpad.wal_close app2);
  cleanup_wal path

let test_wal_recovery_builds_no_pair_index () =
  (* Recovery pays for the snapshot's rows and nothing else: the store
     builds its packed base once from the snapshot, the model install
     only reads it, and the replayed tail lands in the delta without a
     compaction. Pair-bound reads search sorted runs of that base, so a
     request that needs one builds nothing either. *)
  let open Si_triple in
  let module Model = Si_metamodel.Model in
  let desk = Desktop.create () in
  let spec = Si_workload.Icu.build_desktop ~patients:10 ~seed:5 desk in
  let app = Slimpad.create desk in
  let pad = Si_workload.Icu.build_worksheet app spec in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app path);
  (* A tail the recovery replays on top of the snapshot. *)
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  ignore (Slimpad.add_bundle app ~parent:root ~name:"replayed" ());
  ok (Slimpad.wal_close app);
  let builds = Si_obs.Registry.counter "store.columnar.compact" in
  let before = Si_obs.Counter.get builds in
  let app2, rc =
    ok (Slimpad.open_wal ~store:(module Store.Columnar_store) desk path)
  in
  check_bool "recovered from snapshot" true rc.Slimpad.from_snapshot;
  check_int "replayed the tail" 4 rc.Slimpad.replayed;
  check_int "recovery compacted nothing" before (Si_obs.Counter.get builds);
  let dmi2 = Slimpad.dmi app2 in
  check_int "pads" 1 (List.length (Dmi.pads dmi2));
  check_int "a predicate+object read builds nothing" before
    (Si_obs.Counter.get builds);
  (* The model the subject-bound install reads back is the one a fresh
     store installs. *)
  let fresh = Dmi.create () in
  let constructs (bm : Si_slim.Bundle_model.t) =
    [ bm.slimpad; bm.bundle; bm.scrap; bm.mark_handle; bm.link;
      bm.decoration; bm.string_; bm.coordinate; bm.number ]
  in
  let bm = Dmi.model fresh and bm2 = Dmi.model dmi2 in
  check_bool "installed constructs" true (constructs bm = constructs bm2);
  let cm = Model.compile bm.model and cm2 = Model.compile bm2.model in
  check_bool "compiled constructs" true
    (Model.constructs cm = Model.constructs cm2);
  check_bool "compiled connectors" true
    (Model.connectors cm = Model.connectors cm2);
  List.iter
    (fun c ->
      check "name" (Model.name_of cm c) (Model.name_of cm2 c);
      check_bool "parents" true (Model.parents cm c = Model.parents cm2 c);
      check_bool "applicable" true
        (Model.applicable cm c = Model.applicable cm2 c))
    (Model.constructs cm);
  check_same_state app app2;
  ok (Slimpad.wal_close app2);
  cleanup_wal path

let test_wal_torn_tail_recovery () =
  let app, _, smith, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app ~policy:Si_wal.Log.Immediate path);
  ignore
    (ok
       (Slimpad.add_scrap app ~parent:smith ~name:"tearing here"
          ~mark_type:"excel"
          ~fields:
            [ ("fileName", "meds.xls"); ("sheetName", "Medications");
              ("range", "B2") ]
          ()));
  ok (Slimpad.wal_close app);
  (* Crash three bytes before the end of the log: the final record is
     torn and must be dropped — never half-applied. *)
  let size =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  ignore (Si_workload.Faults.cut_file path (size - 3));
  let app2, rc = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_bool "torn tail reported" true (rc.Slimpad.truncated_bytes > 0);
  (* Prefix consistency at the record level: everything on the pad still
     resolves; no dangling half-written scrap/mark pair. *)
  let dmi = Slimpad.dmi app2 in
  let rec walk bundle =
    List.iter
      (fun s ->
        match Slimpad.scrap_content app2 s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "scrap broken after recovery: %s" e)
      (Dmi.scraps dmi bundle);
    List.iter walk (Dmi.nested_bundles dmi bundle)
  in
  List.iter (fun pad -> walk (Dmi.root_bundle dmi pad)) (Dmi.pads dmi);
  ok (Slimpad.wal_close app2);
  (* The truncation persisted: reopening is clean. *)
  let app3, rc3 = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_int "second recovery clean" 0 rc3.Slimpad.truncated_bytes;
  ok (Slimpad.wal_close app3);
  cleanup_wal path

let test_wal_rollback_consistency () =
  (* An aborted [atomically] must leave the log describing the same
     state as memory — the inverse ops and the journal truncation are
     appended. *)
  let app, _, smith, _, _, _ = fig4_app () in
  let path = fresh_wal_path () in
  ok (Slimpad.enable_wal app path);
  (match
     Dmi.atomically (Slimpad.dmi app) (fun () ->
         Dmi.update_bundle_name (Slimpad.dmi app) smith "doomed";
         (Error "abort" : (unit, string) result))
   with
  | Error "abort" -> ()
  | _ -> Alcotest.fail "abort should surface");
  check "memory rolled back" "John Smith"
    (Dmi.bundle_name (Slimpad.dmi app) smith);
  ok (Slimpad.wal_sync app);
  let crashed = crash_copy path in
  let app2, _ = ok (Slimpad.open_wal (fig4_desktop ()) crashed) in
  check_same_state app app2;
  ok (Slimpad.wal_close app2);
  ok (Slimpad.wal_close app);
  cleanup_wal crashed;
  cleanup_wal path

(* ------------------------------------- binary snapshot back-compat *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_save_still_xml () =
  (* XML stays the export/interop format: [save] writes a plain
     <slimpad-store> document, never the binary container. *)
  let app, _, _, _, _, _ = fig4_app () in
  let tmp = Filename.temp_file "slimpad_save" ".xml" in
  ok (Slimpad.save app tmp);
  let contents = read_file tmp in
  Sys.remove tmp;
  check_bool "save emits XML text" true
    (String.length contents > 0 && contents.[0] = '<');
  check_bool "not sniffed as binary" false (Si_wal.Binary.is_binary contents)

let test_wal_xml_snapshot_back_compat () =
  (* A WAL whose last snapshot predates the binary codec holds a whole
     <slimpad-store> document; recovery sniffs the payload and loads it
     through the XML path unchanged. *)
  let app, _, _, _, _, _ = fig4_app () in
  let tmp = Filename.temp_file "slimpad_xml_snap" ".xml" in
  ok (Slimpad.save app tmp);
  let xml_payload = read_file tmp in
  Sys.remove tmp;
  let wok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (Si_wal.Log.error_to_string e)
  in
  let path = fresh_wal_path () in
  let log, _ = wok "open log" (Si_wal.Log.open_ path) in
  wok "cut xml snapshot" (Si_wal.Log.cut_snapshot log xml_payload);
  wok "close log" (Si_wal.Log.close log);
  let app2, rc = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_bool "recovered from the XML snapshot" true rc.Slimpad.from_snapshot;
  check_same_state app app2;
  (* The next compaction rewrites it in the binary form and the pad
     still round-trips. *)
  ok (Slimpad.wal_compact app2);
  ok (Slimpad.wal_close app2);
  let app3, _ = ok (Slimpad.open_wal (fig4_desktop ()) path) in
  check_same_state app app3;
  ok (Slimpad.wal_close app3);
  cleanup_wal path

(* The pad's persistence bytes, pinned: one record of each of the eight
   WAL record kinds as the journal hooks write it, and the MD5 of a
   fixed pad's snapshot, its compacted WAL snapshot (which carries the
   replication watermark) and its capture bundle. *)
let test_persistence_bytes_pinned () =
  let module Trim = Si_triple.Trim in
  let module Triple = Si_triple.Triple in
  let module Log = Si_wal.Log in
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i ->
           Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let dump path = Result.get_ok (Log.dump path) in
  let mark =
    Si_mark.Mark.make ~id:"m1" ~mark_type:"text"
      ~fields:[ ("fileName", "note.txt"); ("offset", "4") ]
      ~excerpt:"dopamine" ()
  in
  let path = fresh_wal_path () in
  let app, _ = ok (Slimpad.open_wal (Desktop.create ()) path) in
  let dmi = Slimpad.dmi app and trim = Dmi.trim (Slimpad.dmi app) in
  let lit = Triple.make "s1" "name" (Triple.literal "Smith") in
  ignore (Trim.add trim lit);
  ignore (Trim.add trim (Triple.make "s1" "next" (Triple.resource "s2")));
  ignore (Trim.remove trim lit);
  Trim.clear trim;
  Manager.put_mark (Slimpad.marks app) mark;
  ignore (Manager.remove_mark (Slimpad.marks app) "m1");
  ignore
    (Dmi.atomically dmi (fun () ->
         ignore (Dmi.create_slimpad dmi ~pad_name:"p");
         Error ()));
  Dmi.clear_journal dmi;
  ok (Slimpad.wal_close app);
  let records =
    List.map (fun r -> r.Log.dump_payload) (dump path).Log.dump_records
  in
  cleanup_wal path;
  let first tag =
    hex
      (List.find
         (fun r ->
           List.hd (Result.get_ok (Si_wal.Record.decode_fields r)) = tag)
         records)
  in
  List.iteri
    (fun i want ->
      check (Printf.sprintf "record %d" i) want (hex (List.nth records i)))
    [
      "05000000010000002b020000007331040000006e616d65010000006c05000000536d697468";
      "05000000010000002b020000007331040000006e6578740100000072020000007332";
      "05000000010000002d020000007331040000006e616d65010000006c05000000536d697468";
      "010000000100000078";
      "08000000020000006d2b020000006d31040000007465787408000000646f70616d696e650800000066696c654e616d65080000006e6f74652e747874060000006f66667365740100000034";
      "02000000020000006d2d020000006d31";
    ];
  check "journal entry"
    "05000000010000006a01000000310e0000006372656174655f736c696d7061641c0000006d6f64656c3a62756e646c652d73637261702f736c696d7061642d310700000070616420227022"
    (first "j");
  check "journal truncated" "02000000020000006a740100000030" (first "jt");
  check "journal cleared" "01000000020000006a78" (first "jx");
  (* Three triples, one mark, one journal entry, and the watermark
     (2, 7) recovered from the pad's WAL snapshot. *)
  let base = Slimpad.create (Desktop.create ()) in
  List.iter
    (fun (s, p, o) ->
      ignore (Trim.add (Dmi.trim (Slimpad.dmi base)) (Triple.make s p o)))
    [
      ("s1", "name", Triple.literal "Smith");
      ("s1", "next", Triple.resource "s2");
      ("s2", "name", Triple.literal "Jones <&>");
    ];
  Manager.put_mark (Slimpad.marks base) mark;
  Dmi.append_journal_entry (Slimpad.dmi base)
    { Dmi.seq = 1; op = "create_scrap"; target = "s1"; detail = "scrap" };
  let path = fresh_wal_path () in
  let log, _ = Result.get_ok (Log.open_ path) in
  ignore
    (Log.cut_snapshot log
       (Si_wal.Binary.encode
          (Result.get_ok (Si_wal.Binary.decode (Slimpad.snapshot_bytes base))
          @ [ ("replication", Si_wal.Record.encode_fields [ "2"; "7" ]) ])));
  ignore (Log.close log);
  let pad, _ = ok (Slimpad.open_wal (Desktop.create ()) path) in
  check "snapshot" "c1c292ab520bdba79c99da7adfa414bd"
    (md5 (Slimpad.snapshot_bytes pad));
  check "bundle" "96f19d099ba890bc56189400785efe1a"
    (md5 (fst (Si_bundle.capture pad)));
  ok (Slimpad.wal_compact pad);
  ok (Slimpad.wal_close pad);
  check "compacted WAL snapshot" "7a72e8b7e82579b92d0bcc284065a57b"
    (md5 (Option.get (dump path).Log.dump_snapshot));
  cleanup_wal path

let suite =
  [
    ("add_scrap creates the mark (F5)", `Quick, test_add_scrap_creates_mark);
    ("default label = excerpt", `Quick, test_add_scrap_default_label);
    ("bad mark refused", `Quick, test_add_scrap_bad_mark);
    ("double-click re-establishes context (F4)", `Quick, test_double_click);
    ("label and content may differ", `Quick, test_label_and_content_differ);
    ("drift & refresh", `Quick, test_drift_and_refresh);
    ("find_scraps", `Quick, test_find_scraps);
    ("find_scraps order: seeded ICU pad", `Quick, test_find_scraps_order_icu);
    ("find_scraps order: moved, shared, nameless", `Quick,
     test_find_scraps_order_edges);
    ("find_scraps: walking up and down agree", `Quick,
     test_find_scraps_paths_agree);
    ("query through the app", `Quick, test_query_through_app);
    ("render pad (F4)", `Quick, test_render);
    ("render annotations & links", `Quick, test_render_annotations_and_links);
    ("save/load combined store (F5)", `Quick, test_save_load_combined);
    ("load rejects garbage", `Quick, test_load_rejects_garbage);
    ("render HTML (2-D layout)", `Quick, test_render_html);
    ("import pad (sharing, §2)", `Quick, test_import_pad);
    ("import pad errors", `Quick, test_import_pad_errors);
    ("store-implementation invariance", `Quick,
     test_store_implementation_invariance);
    ("dangling marks rendered", `Quick, test_dangling_mark_rendering);
    ("wal: enable, journal, recover", `Quick, test_wal_enable_and_recover);
    ("wal: enable refuses an existing log", `Quick,
     test_wal_enable_refuses_existing);
    ("wal: compaction idempotent", `Quick, test_wal_compact_idempotent);
    ("wal: binary snapshot recovers into the sharded store", `Quick,
     test_wal_snapshot_into_sharded_store);
    ("wal: recovery builds no pair index", `Quick,
     test_wal_recovery_builds_no_pair_index);
    ("wal: torn tail recovery", `Quick, test_wal_torn_tail_recovery);
    ("wal: rollback keeps log & memory agreeing", `Quick,
     test_wal_rollback_consistency);
    ("save still emits XML", `Quick, test_save_still_xml);
    ("wal: XML snapshot back-compat", `Quick,
     test_wal_xml_snapshot_back_compat);
    ("persistence bytes are pinned", `Quick, test_persistence_bytes_pinned);
  ]
