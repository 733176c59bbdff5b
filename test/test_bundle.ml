(* Tests for Si_bundle: capture → apply round-trips over all seven mark
   module types, deterministic artifacts and content digests, greedy
   capture / conservative apply discipline, decoder fuzzing (truncation
   and bit flips must yield typed errors, never exceptions), offline
   verification (SL308), and the replication integrations — follower
   bootstrap and archive-base restore. *)

open Si_mark
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Replica = Si_wal.Replica
module Ship = Si_wal.Ship

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let sok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let scratch_dir () =
  let path = Filename.temp_file "si_bundle" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

(* ------------------------------------------------------------ fixtures *)

(* A desktop with one document of every kind the seven mark modules
   address. *)
let full_desktop () =
  let desk = Desktop.create () in
  let wb = Si_spreadsheet.Workbook.create ~sheet_names:[ "Meds" ] () in
  let set a v = Si_spreadsheet.Workbook.set wb ~sheet_name:"Meds" a v in
  set "A1" "Drug";
  set "B1" "Dose";
  set "A2" "Dopamine";
  set "B2" "5";
  Desktop.add_workbook desk "meds.xls" wb;
  Desktop.add_xml desk "labs.xml"
    (Si_xmlk.Parse.node_exn
       "<report><panel name=\"lytes\"><result test=\"K\">4.2</result>\
        </panel></report>");
  Desktop.add_text desk "note.txt"
    (Si_textdoc.Textdoc.of_lines [ "Plan: wean pressors"; "Call renal." ]);
  let word = Si_wordproc.Wordproc.create ~title:"Admission" () in
  Si_wordproc.Wordproc.append_paragraph word "Admitted with sepsis.";
  (match
     Si_wordproc.Wordproc.add_bookmark word ~name:"dx"
       (Option.get (Si_wordproc.Wordproc.find_first word "sepsis"))
   with
  | Ok () -> ()
  | Error e -> failwith e);
  Desktop.add_word desk "admission.doc" word;
  let deck = Si_slides.Slides.create ~title:"Report" () in
  let s1 = Si_slides.Slides.add_slide deck ~title:"Case" in
  ignore
    (Si_slides.Slides.add_shape s1 ~id:"problems"
       (Si_slides.Slides.Bullets [ "Shock"; "ARF" ]));
  Desktop.add_slides desk "rounds.ppt" deck;
  let pdf = Si_pdfdoc.Pdfdoc.create ~title:"Guideline" () in
  let p1 = Si_pdfdoc.Pdfdoc.add_page pdf in
  ignore (Si_pdfdoc.Pdfdoc.add_line p1 ~y:100. "MAP >= 65 mmHg");
  Desktop.add_pdf desk "guideline.pdf" pdf;
  Desktop.add_html desk "wiki.html"
    "<html><head><title>Sepsis</title></head><body>\
     <h1 id=\"tx\">Treatment</h1><p>Start antibiotics.</p></body></html>";
  desk

(* A pad holding one scrap per mark module — all seven types. *)
let full_app () =
  let desk = full_desktop () in
  let app = Slimpad.create desk in
  let pad = Slimpad.new_pad app "Rounds" in
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  let scrap name mark_type fields =
    ignore (ok (Slimpad.add_scrap app ~parent:root ~name ~mark_type ~fields ()))
  in
  scrap "dopa" "excel"
    [ ("fileName", "meds.xls"); ("sheetName", "Meds"); ("range", "A2:B2") ];
  scrap "k" "xml"
    [ ("fileName", "labs.xml"); ("xmlPath", "/report/panel/result[1]") ];
  let text = ok (Desktop.open_text desk "note.txt") in
  scrap "plan" "text"
    (ok
       (Text_mark.capture text ~file_name:"note.txt"
          (Option.get (Si_textdoc.Textdoc.find_first text "wean pressors"))));
  let word = ok (Desktop.open_word desk "admission.doc") in
  scrap "dx" "word"
    (ok (Word_mark.capture_bookmark word ~file_name:"admission.doc" "dx"));
  let deck = ok (Desktop.open_slides desk "rounds.ppt") in
  scrap "arf" "slides"
    (ok
       (Slides_mark.capture deck ~file_name:"rounds.ppt"
          { Si_slides.Slides.slide = 1; shape_id = "problems"; bullet = Some 2 }));
  let pdf = ok (Desktop.open_pdf desk "guideline.pdf") in
  scrap "map" "pdf"
    (ok
       (Pdf_mark.capture pdf ~file_name:"guideline.pdf" ~page_number:1
          (Si_pdfdoc.Pdfdoc.spans
             (Option.get (Si_pdfdoc.Pdfdoc.nth_page pdf 1)))));
  let html = ok (Desktop.open_html desk "wiki.html") in
  scrap "tx" "html"
    (ok (Html_mark.capture_anchor html ~file_name:"wiki.html" "tx"));
  app

let mark_key (m : Mark.t) =
  (m.mark_id, m.mark_type, List.sort compare m.fields)

let marks_of app = List.map mark_key (Manager.marks (Slimpad.marks app))

let same_contents a b =
  Trim.equal_contents (Dmi.trim (Slimpad.dmi a)) (Dmi.trim (Slimpad.dmi b))
  && marks_of a = marks_of b

(* ------------------------------------------------- capture round-trips *)

let test_roundtrip_all_marks () =
  let app = full_app () in
  check_int "all seven modules marked" 7
    (Manager.mark_count (Slimpad.marks app));
  let bytes, report = Si_bundle.capture ~workspace_id:"ws-7" app in
  check_int "no capture problems" 0 (List.length report.capture_problems);
  check_int "marks counted" 7 report.captured_marks;
  let target = Slimpad.create (Desktop.create ()) in
  let applied = ok (Si_bundle.apply ~excerpts:true target bytes) in
  (* A fresh app already holds the metamodel triples, so those skip;
     everything else installs. *)
  check_int "every triple accounted for" report.captured_triples
    (applied.added_triples + applied.skipped_triples);
  check_bool "the pad's own triples were added" true
    (applied.added_triples > 0);
  check_int "every mark installed" 7 applied.installed_marks;
  check_int "no apply problems" 0 (List.length applied.apply_problems);
  check_bool "triples and marks reproduced" true (same_contents app target);
  (* The acceptance criterion behind the cross-version CI gate: a
     round-tripped workspace hashes to the bundle's content digest. *)
  check "digest reproduced" (ok (Si_bundle.content_digest bytes))
    (Si_bundle.app_digest target);
  check "digest matches source" (Si_bundle.app_digest app)
    (Si_bundle.app_digest target)

let test_capture_deterministic () =
  let b1, _ = Si_bundle.capture ~workspace_id:"x" (full_app ()) in
  let b2, _ = Si_bundle.capture ~workspace_id:"x" (full_app ()) in
  check_bool "equal pads capture byte-identically" true (b1 = b2)

let test_meta_and_report () =
  let app = full_app () in
  let bytes, _ = Si_bundle.capture ~workspace_id:"icu-ws" app in
  let meta = ok (Si_bundle.meta_of bytes) in
  check_int "schema version" Si_bundle.schema_version meta.version;
  check "workspace id" "icu-ws" meta.workspace_id;
  check_int "mark count" 7 meta.mark_count;
  check_int "no bases" 0 meta.base_count;
  check_bool "no watermark without replication" true (meta.watermark = None);
  let report = ok (Si_bundle.report_of bytes) in
  check_int "embedded report is clean" 0 (List.length report.capture_problems)

(* The digest capture reports is hashed from the sections it encoded;
   it must stay the digest of the written bytes and of the live pad. *)
let test_capture_digest_cannot_drift () =
  let icu () =
    let desk = Desktop.create () in
    let spec = Si_workload.Icu.build_desktop ~patients:6 ~seed:2001 desk in
    let app = Slimpad.create desk in
    ignore (Si_workload.Icu.build_worksheet app spec);
    app
  in
  let with_excerpts = full_app () in
  check_bool "fixture caches excerpts" true
    (List.exists
       (fun (m : Mark.t) -> m.excerpt <> "")
       (Manager.marks (Slimpad.marks with_excerpts)));
  let bases ~kind ~name = Ok (kind ^ "-" ^ name, "base bytes") in
  List.iter
    (fun (what, app) ->
      let bytes, report = Si_bundle.capture ~workspace_id:what ~bases app in
      check (what ^ ": the live pad's digest") (Si_bundle.app_digest app)
        report.captured_digest;
      check (what ^ ": the written bytes' digest")
        (ok (Si_bundle.content_digest bytes))
        report.captured_digest;
      check (what ^ ": the embedded report's digest") report.captured_digest
        (ok (Si_bundle.report_of bytes)).captured_digest)
    [
      ("seeded ICU pad", icu ());
      ("pad with cached excerpts", with_excerpts);
      ("empty pad", Slimpad.create (Desktop.create ()));
    ]

let test_excerpts_opt_in () =
  let app = full_app () in
  let bytes, _ = Si_bundle.capture app in
  let blank = Slimpad.create (Desktop.create ()) in
  let r = ok (Si_bundle.apply blank bytes) in
  check_int "no excerpts by default" 0 r.restored_excerpts;
  List.iter
    (fun (m : Mark.t) -> check "installed blank" "" m.excerpt)
    (Manager.marks (Slimpad.marks blank));
  let rich = Slimpad.create (Desktop.create ()) in
  let r = ok (Si_bundle.apply ~excerpts:true rich bytes) in
  check_bool "excerpts restored on request" true (r.restored_excerpts > 0);
  check_bool "some mark carries its cached excerpt" true
    (List.exists
       (fun (m : Mark.t) -> m.excerpt <> "")
       (Manager.marks (Slimpad.marks rich)))

(* ------------------------------------------------- greedy / conservative *)

let test_capture_greedy () =
  let app = full_app () in
  (* A reader that can serve text documents but fails everything else:
     per-module failures land in the report, never abort the capture. *)
  let bases ~kind ~name =
    if kind = "text" then Ok (name, "the note bytes")
    else Error (kind ^ " reader offline")
  in
  let bytes, report = Si_bundle.capture ~bases app in
  check_int "one base captured" 1 report.captured_bases;
  check_bool "failures recorded" true (List.length report.capture_problems > 0);
  (* The report travels inside the artifact. *)
  let embedded = ok (Si_bundle.report_of bytes) in
  check_int "problems shipped with the bundle"
    (List.length report.capture_problems)
    (List.length embedded.capture_problems);
  check_bool "artifact still verifies clean" true (Si_bundle.verify bytes = [])

let test_apply_install_only () =
  let app = full_app () in
  let bytes, report = Si_bundle.capture app in
  (* Second apply over an already-identical target: everything skips. *)
  let target = Slimpad.create (Desktop.create ()) in
  ignore (ok (Si_bundle.apply target bytes));
  let again = ok (Si_bundle.apply target bytes) in
  check_int "no triple re-added" 0 again.added_triples;
  check_int "all duplicates skipped" report.captured_triples
    again.skipped_triples;
  check_int "no mark re-installed" 0 again.installed_marks;
  check_int "all marks skipped" 7 again.skipped_marks;
  (* The target's version of a mark wins — apply never overwrites. *)
  let mine = Slimpad.create (Desktop.create ()) in
  let theirs = Manager.marks (Slimpad.marks app) in
  let first = List.hd theirs in
  Manager.put_mark (Slimpad.marks mine)
    (Mark.make ~id:first.Mark.mark_id ~mark_type:"local"
       ~fields:[ ("kept", "yes") ] ());
  let r = ok (Si_bundle.apply mine bytes) in
  check_int "six installed around the conflict" 6 r.installed_marks;
  check_int "the held id skipped" 1 r.skipped_marks;
  let survivor =
    Option.get (Manager.mark (Slimpad.marks mine) first.Mark.mark_id)
  in
  check "target's mark untouched" "local" survivor.Mark.mark_type

let test_base_restore () =
  let app = full_app () in
  let store = Hashtbl.create 8 in
  let bases ~kind ~name =
    Ok (Si_bundle.Layout.disk_name ~kind ~name, "base:" ^ kind ^ ":" ^ name)
  in
  let bytes, report = Si_bundle.capture ~bases app in
  check_int "seven documents captured" 7 report.captured_bases;
  let writer ~kind:_ ~name:_ ~filename contents =
    if Hashtbl.mem store filename then Ok false
    else begin
      Hashtbl.replace store filename contents;
      Ok true
    end
  in
  let target = Slimpad.create (Desktop.create ()) in
  let r = ok (Si_bundle.apply ~bases:writer target bytes) in
  check_int "all restored" 7 r.restored_bases;
  check_int "none skipped" 0 r.skipped_bases;
  check "suffix mapping survives" "base:excel:meds.xls"
    (Hashtbl.find store "meds.xls.workbook.xml");
  (* Re-apply: everything already present, nothing overwritten. *)
  let again =
    ok (Si_bundle.apply ~bases:writer (Slimpad.create (Desktop.create ())) bytes)
  in
  check_int "second restore skips all" 7 again.skipped_bases

let test_layout_writer_refuses_traversal () =
  let dir = scratch_dir () in
  let w = Si_bundle.Layout.writer ~dir in
  check_bool "path traversal refused" true
    (Result.is_error (w ~kind:"text" ~name:"x" ~filename:"../evil.txt" "p"));
  check_bool "absolute path refused" true
    (Result.is_error (w ~kind:"text" ~name:"x" ~filename:"/etc/evil" "p"));
  check_bool "plain name accepted" true
    (ok (w ~kind:"text" ~name:"x" ~filename:"fine.txt" "p"));
  check_bool "existing file skipped, not overwritten" true
    (ok (w ~kind:"text" ~name:"x" ~filename:"fine.txt" "other") = false)

let test_journaled_apply_is_durable () =
  let dir = scratch_dir () in
  let wal = Filename.concat dir "pad.wal" in
  let target, _ = sok "open_wal" (Slimpad.open_wal (Desktop.create ()) wal) in
  let bytes, _ = Si_bundle.capture (full_app ()) in
  let r = ok (Si_bundle.apply ~excerpts:true target bytes) in
  check_bool "installed through the journal" true (r.installed_marks = 7);
  sok "sync" (Slimpad.wal_sync target);
  sok "close" (Slimpad.wal_close target);
  (* Reopen from the log alone: the restore was journaled. *)
  let reopened, _ =
    sok "reopen" (Slimpad.open_wal (Desktop.create ()) wal)
  in
  check_bool "restore survives reopen" true
    (same_contents (full_app ()) reopened);
  sok "close2" (Slimpad.wal_close reopened)

(* ------------------------------------------------------ verify + fuzzing *)

let test_verify_clean_and_damaged () =
  let bytes, _ = Si_bundle.capture (full_app ()) in
  check_int "clean bundle verifies clean" 0
    (List.length (Si_bundle.verify bytes));
  (* Not a container at all. *)
  check_bool "garbage flagged" true (Si_bundle.verify "not a bundle" <> []);
  (* A plain snapshot is a container but not a bundle. *)
  let snapshot = Slimpad.snapshot_bytes (full_app ()) in
  check_bool "bare snapshot flagged" true (Si_bundle.verify snapshot <> []);
  check_bool "bare snapshot still loads as one"
    true
    (Result.is_ok (Slimpad.of_snapshot_bytes (Desktop.create ()) snapshot))

let test_verify_dangling_excerpt () =
  (* Hand-assemble a bundle whose excerpts table names a ghost mark. *)
  let bytes, _ = Si_bundle.capture (full_app ()) in
  let sections = sok "decode" (Si_wal.Binary.decode bytes) in
  let doctored =
    Si_wal.Binary.encode
      (List.map
         (fun (name, payload) ->
           if name = "excerpts" then
             (name, Si_wal.Record.encode_fields [ "ghost-mark"; "boo" ])
           else (name, payload))
         sections)
  in
  let problems = Si_bundle.verify doctored in
  check_bool "dangling excerpt flagged" true
    (List.exists
       (fun (p : Si_bundle.problem) ->
         p.p_module = "excerpts" && p.p_source = "ghost-mark")
       problems)

let test_truncation_fuzz () =
  let bytes, _ = Si_bundle.capture (full_app ()) in
  let n = String.length bytes in
  let len = ref 0 in
  while !len < n do
    let prefix = String.sub bytes 0 !len in
    (* Typed results only — and a strict prefix can never verify clean:
       every byte sits under the magic, the section count, framing, or
       a section CRC. *)
    check_bool
      (Printf.sprintf "prefix %d flagged" !len)
      true
      (Si_bundle.verify prefix <> []);
    check_bool
      (Printf.sprintf "prefix %d meta errors" !len)
      true
      (Result.is_error (Si_bundle.meta_of prefix));
    check_bool
      (Printf.sprintf "prefix %d apply errors" !len)
      true
      (Result.is_error
         (Si_bundle.apply (Slimpad.create (Desktop.create ())) prefix));
    len := !len + max 1 (n / 311)
  done

let prop_bitflip_never_raises =
  let bytes, _ = Si_bundle.capture (full_app ()) in
  QCheck.Test.make ~name:"bit-flipped bundles yield typed results" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos, bit) ->
      let pos = pos mod String.length bytes and bit = bit mod 8 in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped pos
        (Char.chr (Char.code (Bytes.get flipped pos) lxor (1 lsl bit)));
      let flipped = Bytes.to_string flipped in
      (* Any of these may succeed or fail — they must never raise. *)
      ignore (Si_bundle.verify flipped);
      ignore (Si_bundle.meta_of flipped);
      ignore (Si_bundle.report_of flipped);
      ignore (Si_bundle.content_digest flipped);
      ignore (Si_bundle.apply (Slimpad.create (Desktop.create ())) flipped);
      true)

let prop_roundtrip =
  let ident =
    QCheck.Gen.(
      map2
        (fun c s -> Printf.sprintf "%c%s" (Char.chr (Char.code 'a' + c)) s)
        (int_bound 25)
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)))
  in
  let gen_triple =
    QCheck.Gen.(
      map3
        (fun s p o -> Triple.make s p (Triple.Literal o))
        ident ident ident)
  in
  let gen_mark =
    QCheck.Gen.(
      map3
        (fun ty fields excerpt -> (ty, fields, excerpt))
        ident
        (list_size (int_range 0 4) (pair ident ident))
        ident)
  in
  let gen = QCheck.Gen.(pair (list_size (int_range 0 40) gen_triple)
                          (list_size (int_range 0 10) gen_mark))
  in
  QCheck.Test.make ~name:"capture/apply reproduces any pad" ~count:60
    (QCheck.make gen)
    (fun (triples, marks) ->
      let app = Slimpad.create (Desktop.create ()) in
      Trim.add_all (Dmi.trim (Slimpad.dmi app)) triples;
      List.iteri
        (fun i (ty, fields, excerpt) ->
          Manager.put_mark (Slimpad.marks app)
            (Mark.make
               ~id:(Printf.sprintf "m-%d" i)
               ~mark_type:ty ~fields ~excerpt ()))
        marks;
      let bytes, _ = Si_bundle.capture app in
      let target = Slimpad.create (Desktop.create ()) in
      match Si_bundle.apply ~excerpts:true target bytes with
      | Error e -> QCheck.Test.fail_reportf "apply failed: %s" e
      | Ok _ ->
          same_contents app target
          && Si_bundle.app_digest target = Si_bundle.app_digest app)

(* ------------------------------------------------------- SL308 linting *)

let test_lint_sl308 () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "pad.bundle" in
  let bytes, _ = Si_bundle.capture (full_app ()) in
  ok (Si_bundle.write_file ~path bytes);
  let diags = Si_lint.run (Si_lint.context ~bundle:path ()) in
  check_int "clean bundle lints clean" 0 (List.length diags);
  (* Flip one payload byte deep in the artifact: the section CRC
     catches it offline. *)
  let damaged = Bytes.of_string bytes in
  Bytes.set damaged
    (Bytes.length damaged - 3)
    (Char.chr
       (Char.code (Bytes.get damaged (Bytes.length damaged - 3)) lxor 0xff));
  ok (Si_bundle.write_file ~path (Bytes.to_string damaged));
  let diags = Si_lint.run (Si_lint.context ~bundle:path ()) in
  check_bool "damage caught" true (List.length diags > 0);
  List.iter
    (fun (d : Si_lint.diagnostic) ->
      check "code" "SL308" d.Si_lint.code;
      check "severity" "error"
        (Si_lint.severity_to_string d.Si_lint.severity))
    diags;
  (* A missing file is one SL308 diagnostic, not an exception. *)
  let diags =
    Si_lint.run
      (Si_lint.context ~bundle:(Filename.concat dir "absent.bundle") ())
  in
  check_int "missing file flagged" 1 (List.length diags)

(* --------------------------------------------- replication integrations *)

let churn app pad ~from n =
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  for i = from to from + n - 1 do
    ignore
      (Slimpad.add_bundle app ~parent:root
         ~name:(Printf.sprintf "node-%04d" i)
         ())
  done

let make_leader dir =
  let app, _ =
    sok "open_wal"
      (Slimpad.open_wal (Desktop.create ()) (Filename.concat dir "l.wal"))
  in
  let pad = Slimpad.new_pad app "pad" in
  sok "start_shipping"
    (Slimpad.start_shipping ~segment_records:4 app
       ~archive:(Filename.concat dir "l.archive"));
  (app, pad)

let test_bootstrap_follower () =
  let dir = scratch_dir () in
  let leader, pad = make_leader dir in
  churn leader pad ~from:0 10;
  let bytes, _ = Si_bundle.capture leader in
  check_bool "bundle carries the leader's watermark" true
    (Slimpad.snapshot_meta bytes = Slimpad.rep_meta leader
    && Slimpad.rep_meta leader <> None);
  (* A fresh follower comes up from the shipped file alone... *)
  let f, _ =
    sok "bootstrap"
      (Slimpad.open_replica ~bootstrap:bytes (Desktop.create ())
         (Filename.concat dir "f.wal"))
  in
  check_bool "bootstrapped state equals the leader's" true
    (Trim.equal_contents
       (Dmi.trim (Slimpad.dmi leader))
       (Dmi.trim (Slimpad.dmi f)));
  (* ...and catch-up starts past the bundle's watermark, not seq 1. *)
  let r = Option.get (Slimpad.replica f) in
  check_bool "applied prefix at the watermark" true
    (Some (Replica.term r, Replica.applied r) = Slimpad.snapshot_meta bytes);
  churn leader pad ~from:10 5;
  sok "attach"
    (Slimpad.attach_follower leader ~name:"f" (Replica.transport r));
  sok "ship" (Slimpad.ship leader);
  check_bool "converged after shipping the delta" true
    (Trim.equal_contents
       (Dmi.trim (Slimpad.dmi leader))
       (Dmi.trim (Slimpad.dmi f)));
  sok "close f" (Slimpad.wal_close f);
  (* Bootstrapping over existing history is refused. *)
  check_bool "refused over history" true
    (Result.is_error
       (Slimpad.open_replica ~bootstrap:bytes (Desktop.create ())
          (Filename.concat dir "f.wal")));
  sok "close leader" (Slimpad.wal_close leader)

let test_to_archive_restore () =
  let dir = scratch_dir () in
  let leader, pad = make_leader dir in
  churn leader pad ~from:0 7;
  let bytes, _ = Si_bundle.capture leader in
  let archive = Filename.concat dir "from-bundle.archive" in
  let base = ok (Si_bundle.to_archive ~archive bytes) in
  let _, seq = Option.get (Slimpad.rep_meta leader) in
  check_int "base lands at the watermark" seq base.Si_wal.Segment.base_seq;
  let restored, reached =
    sok "restore_at"
      (Slimpad.restore_at (Desktop.create ()) ~archive ~at:seq)
  in
  check_int "restore reaches the watermark" seq reached;
  check_bool "restored store equals the captured one" true
    (Trim.equal_contents
       (Dmi.trim (Slimpad.dmi leader))
       (Dmi.trim (Slimpad.dmi restored)));
  sok "close leader" (Slimpad.wal_close leader)

(* ------------------------------------------------------------------ suite *)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_bitflip_never_raises ]

let suite =
  [
    ("round-trip: all seven mark types", `Quick, test_roundtrip_all_marks);
    ("capture is deterministic", `Quick, test_capture_deterministic);
    ("metadata + embedded report", `Quick, test_meta_and_report);
    ("capture digest cannot drift", `Quick, test_capture_digest_cannot_drift);
    ("excerpt restore is opt-in", `Quick, test_excerpts_opt_in);
    ("capture is greedy under failing readers", `Quick, test_capture_greedy);
    ("apply is install-only", `Quick, test_apply_install_only);
    ("base documents restore through the writer", `Quick, test_base_restore);
    ("hostile base names are refused", `Quick,
     test_layout_writer_refuses_traversal);
    ("journaled apply survives reopen", `Quick,
     test_journaled_apply_is_durable);
    ("verify: clean, garbage, bare snapshot", `Quick,
     test_verify_clean_and_damaged);
    ("verify: dangling excerpt", `Quick, test_verify_dangling_excerpt);
    ("truncated bundles: typed errors at every cut", `Quick,
     test_truncation_fuzz);
    ("SL308 lints bundle files offline", `Quick, test_lint_sl308);
    ("follower bootstraps from a bundle", `Quick, test_bootstrap_follower);
    ("bundle as archive restore base", `Quick, test_to_archive_restore);
  ]
  @ props
