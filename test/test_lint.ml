(* Tests for Si_lint: the rule registry, every built-in rule against a
   minimal fixture triggering exactly its code, the --fix path (with the
   WAL journal replaying to the repaired store), and the acceptance
   combo pad carrying one instance of each defect class. *)

open Si_slimpad
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Model = Si_metamodel.Model
module Vocab = Si_metamodel.Vocab
module Mark = Si_mark.Mark
module Manager = Si_mark.Manager
module Desktop = Si_mark.Desktop
module Resilient = Si_mark.Resilient
module Dmi = Si_slim.Dmi
module Bundle_model = Si_slim.Bundle_model
module Record = Si_wal.Record
module Log = Si_wal.Log

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let codes diags = List.map (fun (d : Si_lint.diagnostic) -> d.Si_lint.code) diags

let count_code c diags =
  List.length
    (List.filter (fun (d : Si_lint.diagnostic) -> d.Si_lint.code = c) diags)

(* Exactly one diagnostic, carrying exactly the expected code. *)
let only_code c diags =
  check "codes" c (String.concat "," (codes diags))

(* ------------------------------------------------------------ fixtures *)

let base_desktop () =
  let desk = Desktop.create () in
  Desktop.add_xml desk "labs.xml"
    (Si_xmlk.Parse.node_exn
       "<report><panel name=\"electrolytes\">\
        <result test=\"Na\">140</result><result test=\"K\">4.2</result>\
        </panel></report>");
  desk

(* A minimal clean app: one pad, one scrap marking into labs.xml. *)
let base_app ?resilient () =
  let desk = base_desktop () in
  let app = Slimpad.create ?resilient desk in
  let pad = Slimpad.new_pad app "Pad" in
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  let scrap =
    ok
      (Slimpad.add_scrap app ~parent:root ~name:"K" ~mark_type:"xml"
         ~fields:
           [ ("fileName", "labs.xml");
             ("xmlPath", "/report/panel/result[2]") ]
         ())
  in
  (app, pad, root, scrap)

let ctx ?raw_triples ?wal_path app =
  Si_lint.context ~dmi:(Slimpad.dmi app) ~marks:(Slimpad.marks app)
    ~resilient:(Slimpad.resilient app) ?raw_triples ?wal_path ()

let trim_of app = Dmi.trim (Slimpad.dmi app)
let add app tr = ignore (Trim.add (trim_of app) tr)

let bundle_scrap app = Dmi.model (Slimpad.dmi app)

(* ------------------------------------------------ WAL file fabrication *)

let log_magic = "SIWAL\x00\x00\x01"
let snap_magic = "SISNP\x00\x00\x01"

let u32 n =
  let b = Buffer.create 4 in
  Record.add_u32 b n;
  Buffer.contents b

let frame payload =
  let b = Buffer.create 64 in
  Record.encode b payload;
  Buffer.contents b

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let log_bytes ?(gen = 1) records =
  log_magic ^ u32 gen ^ String.concat "" (List.map frame records)

let snap_bytes ?(gen = 1) payload = snap_magic ^ u32 gen ^ frame payload

let store_doc = "<slimpad-store><triples/><marks/></slimpad-store>"

let temp_wal name =
  let dir = Filename.temp_file "si_lint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Filename.concat dir name

(* A benign record for logs that must carry no SL304: a journal clear. *)
let benign = Record.encode_fields [ "jx" ]

(* Flip the last byte of a frame so its checksum fails. *)
let corrupt_frame s =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

(* --------------------------------------------------------- the registry *)

let test_registry () =
  let rules = Si_lint.rules () in
  check_int "all builtins registered" (List.length Si_lint.builtin_rules)
    (List.length rules);
  let rule_codes = List.map (fun r -> r.Si_lint.code) rules in
  check_bool "code order" true (List.sort compare rule_codes = rule_codes);
  check_bool "find SL101" true
    ((Option.get (Si_lint.find_rule "SL101")).Si_lint.rule_name
    = "dangling-mark-handle");
  (match
     Si_lint.register_rule
       {
         Si_lint.code = "SL101";
         rule_name = "impostor";
         rule_severity = Si_lint.Info;
         synopsis = "";
         check = (fun _ -> []);
       }
   with
  | Ok () -> Alcotest.fail "duplicate code must be rejected"
  | Error msg ->
      check_bool "error names the code" true
        (Re.execp (Re.compile (Re.str "SL101")) msg))

let test_clean_pad () =
  let app, _, _, _ = base_app () in
  check_int "a clean pad lints clean" 0 (List.length (Si_lint.run (ctx app)))

(* ----------------------------------------------- triple/metamodel rules *)

let test_duplicate_triple () =
  let app, _, _, _ = base_app () in
  let t = Triple.make "s1" "p" (Triple.literal "v") in
  let u = Triple.make "s2" "p" (Triple.literal "v") in
  let diags = Si_lint.run (ctx ~raw_triples:[ t; u; t ] app) in
  only_code "SL001" diags;
  let d = List.hd diags in
  check_bool "fixable" true d.Si_lint.fixable;
  check_bool "severity" true (d.Si_lint.severity = Si_lint.Warning);
  check_bool "counts occurrences" true
    (Re.execp (Re.compile (Re.str "2 times")) d.Si_lint.message)

let test_dangling_connector () =
  let app, _, _, _ = base_app () in
  add app (Triple.make "badconn" Vocab.rdf_type (Triple.resource Vocab.connector));
  add app (Triple.make "badconn" Vocab.predicate (Triple.literal "bad"));
  add app (Triple.make "badconn" Vocab.domain (Triple.resource "ghost"));
  let diags = Si_lint.run (ctx app) in
  only_code "SL002" diags;
  let msg = (List.hd diags).Si_lint.message in
  check_bool "names the bad domain" true
    (Re.execp (Re.compile (Re.str "domain <ghost> is not a construct")) msg);
  check_bool "notes the missing range" true
    (Re.execp (Re.compile (Re.str "no range")) msg)

(* A cardinality literal that is not an integer drops the connector
   instead of raising out of the conformance check. *)
let test_malformed_cardinality () =
  let app, _, _, _ = base_app () in
  let bm = bundle_scrap app in
  let connector id card_pred card =
    let m = bm.Bundle_model.model in
    let res = Triple.resource in
    add app (Triple.make id Vocab.rdf_type (res Vocab.connector));
    add app (Triple.make id Vocab.predicate (Triple.literal id));
    add app
      (Triple.make id Vocab.domain (res bm.Bundle_model.scrap.Model.construct_id));
    add app
      (Triple.make id Vocab.range
         (res bm.Bundle_model.string_.Model.construct_id));
    add app (Triple.make id Vocab.in_model (res (Model.id m)));
    add app (Triple.make id card_pred (Triple.literal card))
  in
  connector "weight" Vocab.min_card "one";
  connector "height" Vocab.max_card "many";
  let diags = Si_lint.run (ctx app) in
  check "codes" "SL002,SL002" (String.concat "," (codes diags));
  check "messages"
    "maxCard \"many\" is not an integer|minCard \"one\" is not an integer"
    (String.concat "|"
       (List.sort compare
          (List.map (fun (d : Si_lint.diagnostic) -> d.Si_lint.message) diags)))

let test_generalization_cycle () =
  let app, _, _, _ = base_app () in
  add app (Triple.make "cycA" Vocab.rdfs_subclass_of (Triple.resource "cycB"));
  add app (Triple.make "cycB" Vocab.rdfs_subclass_of (Triple.resource "cycA"));
  let diags = Si_lint.run (ctx app) in
  (* One diagnostic per cycle, not one per participant. *)
  only_code "SL003" diags

let test_generalization_self_loop () =
  let app, _, _, _ = base_app () in
  add app (Triple.make "cycA" Vocab.rdfs_subclass_of (Triple.resource "cycA"));
  only_code "SL003" (Si_lint.run (ctx app))

let test_conformance () =
  let app, _, _, scrap = base_app () in
  let sid = Dmi.scrap_id scrap in
  add app (Triple.make sid "frobnicate" (Triple.literal "x"));
  let diags = Si_lint.run (ctx app) in
  only_code "SL004" diags;
  check_bool "names the model" true
    (Re.execp
       (Re.compile (Re.str "model bundle-scrap"))
       (List.hd diags).Si_lint.message);
  (* One seeded defect of every kind on bundle-scrap instances, plus a
     second model with a generalization cycle; SL004's JSON and the
     bundle-scrap validation report are pinned whole. *)
  let app, _, root, scrap = base_app () in
  let bm = bundle_scrap app in
  let m = bm.Bundle_model.model in
  let sid = Dmi.scrap_id scrap and rid = Dmi.bundle_id root in
  let lit = Triple.literal and res = Triple.resource in
  let inst c id = Model.new_instance m c ~id () in
  let clinical = Model.construct m "ClinicalScrap" in
  Model.generalize m ~sub:clinical ~super:bm.Bundle_model.scrap;
  let other = Model.define (trim_of app) ~name:"other" in
  let foreign =
    Model.new_instance other (Model.construct other "Foreign") ~id:"f1" ()
  in
  let cs = inst clinical "cs1" and link = inst bm.Bundle_model.link "l1" in
  let extra = inst bm.Bundle_model.bundle "b9" in
  Model.add_property m sid "frobnicate" (lit "x");
  Model.add_property m sid Bundle_model.annotation (res rid);
  Model.add_property m link Bundle_model.link_from (lit "not-a-scrap");
  Model.add_property m link Bundle_model.link_to (res "ghost");
  Model.add_property m rid Bundle_model.bundle_content (res foreign);
  Model.add_property m rid Bundle_model.bundle_content (res extra);
  Model.add_property m rid Bundle_model.bundle_content (res cs);
  Model.add_property m extra Bundle_model.bundle_name (lit "B9");
  Model.add_property m extra Bundle_model.bundle_name (lit "B9 again");
  let cyc = Model.define (trim_of app) ~name:"cyc" in
  let a = Model.construct cyc "A" and b = Model.construct cyc "B" in
  let str = Model.literal_construct cyc "String" in
  Model.generalize cyc ~sub:a ~super:b;
  Model.generalize cyc ~sub:b ~super:a;
  ignore
    (Model.connect cyc ~name:"label" ~from_:a ~to_:str ~card:Model.one_card ());
  ignore
    (Model.connect cyc ~name:"peer" ~from_:b ~to_:a ~card:Model.optional_card
       ());
  let x = Model.new_instance cyc a ~id:"x" () in
  Model.add_property cyc x "peer" (res x);
  Model.add_property cyc x "peer" (res rid);
  let sl004 = Option.get (Si_lint.find_rule "SL004") in
  check "SL004 json"
    {|[
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <b9>.bundleName: 2 value(s), at most 1 allowed", "provenance": "resource <b9>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <bundle-2>.bundleContent: <f1> is typed outside this model", "provenance": "resource <bundle-2>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <bundle-2>.bundleContent: expected a Scrap, found a Bundle (<b9>)", "provenance": "resource <bundle-2>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <cs1>.scrapMark: 0 value(s), at least 1 required", "provenance": "resource <cs1>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <cs1>.scrapName: 0 value(s), at least 1 required", "provenance": "resource <cs1>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <l1>.linkFrom: expected a Scrap resource, found literal \"not-a-scrap\"", "provenance": "resource <l1>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <l1>.linkTo: dangling reference to <ghost>", "provenance": "resource <l1>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <scrap-3>.annotation: expected a literal String, found resource <bundle-2>", "provenance": "resource <scrap-3>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model bundle-scrap: <scrap-3>.frobnicate: no connector \"frobnicate\" on construct Scrap (or its supertypes)", "provenance": "resource <scrap-3>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model cyc: <x>.label: 0 value(s), at least 1 required", "provenance": "resource <x>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model cyc: <x>.peer: 2 value(s), at most 1 allowed", "provenance": "resource <x>", "fixable": false},
  {"code": "SL004", "rule": "conformance-violation", "severity": "warning", "message": "model cyc: <x>.peer: <bundle-2> is typed outside this model", "provenance": "resource <x>", "fixable": false}
]
|}
    (Si_lint.to_json (Si_lint.run ~rules:[ sl004 ] (ctx app)));
  check "validate report"
    "7 instance(s) checked, 9 violation(s)\n\
    \  <b9>.bundleName: 2 value(s), at most 1 allowed\n\
    \  <bundle-2>.bundleContent: expected a Scrap, found a Bundle (<b9>)\n\
    \  <bundle-2>.bundleContent: <f1> is typed outside this model\n\
    \  <cs1>.scrapMark: 0 value(s), at least 1 required\n\
    \  <cs1>.scrapName: 0 value(s), at least 1 required\n\
    \  <l1>.linkTo: dangling reference to <ghost>\n\
    \  <l1>.linkFrom: expected a Scrap resource, found literal \
     \"not-a-scrap\"\n\
    \  <scrap-3>.annotation: expected a literal String, found resource \
     <bundle-2>\n\
    \  <scrap-3>.frobnicate: no connector \"frobnicate\" on construct Scrap \
     (or its supertypes)\n"
    (Si_metamodel.Validate.report_to_string (Dmi.validate (Slimpad.dmi app)))

(* ------------------------------------------------------- slimpad rules *)

let test_dangling_mark_handle () =
  let app, _, _, scrap = base_app () in
  let mark_id = Dmi.scrap_mark_id (Slimpad.dmi app) scrap in
  check_bool "removed" true (Manager.remove_mark (Slimpad.marks app) mark_id);
  let diags = Si_lint.run (ctx app) in
  only_code "SL101" diags;
  check_bool "error severity" true
    ((List.hd diags).Si_lint.severity = Si_lint.Error)

let test_unreachable_bundle () =
  let app, _, _, _ = base_app () in
  let bm = bundle_scrap app in
  let lost = Model.new_instance bm.Bundle_model.model bm.Bundle_model.bundle () in
  Model.set_property bm.Bundle_model.model lost Bundle_model.bundle_name
    (Triple.literal "Lost");
  only_code "SL102" (Si_lint.run (ctx app))

let test_orphan_scrap () =
  let app, _, _, scrap = base_app () in
  let bm = bundle_scrap app in
  let m = bm.Bundle_model.model in
  let mark_id = Dmi.scrap_mark_id (Slimpad.dmi app) scrap in
  let handle = Model.new_instance m bm.Bundle_model.mark_handle () in
  Model.set_property m handle Bundle_model.mark_id (Triple.literal mark_id);
  let orphan = Model.new_instance m bm.Bundle_model.scrap () in
  Model.set_property m orphan Bundle_model.scrap_name (Triple.literal "lone");
  Model.set_property m orphan Bundle_model.scrap_mark (Triple.resource handle);
  only_code "SL103" (Si_lint.run (ctx app))

let test_containment_cycle () =
  let app, _, root, _ = base_app () in
  let b1 = Slimpad.add_bundle app ~parent:root ~name:"B1" () in
  let b2 = Slimpad.add_bundle app ~parent:b1 ~name:"B2" () in
  add app
    (Triple.make (Dmi.bundle_id b2) Bundle_model.nested_bundle
       (Triple.resource (Dmi.bundle_id b1)));
  (* The cycle is reachable from the root, so SL102 stays silent. *)
  only_code "SL104" (Si_lint.run (ctx app))

let test_orphan_layout () =
  let app, _, _, _ = base_app () in
  add app (Triple.make "ghost9" Bundle_model.bundle_pos (Triple.literal "1,2"));
  let diags = Si_lint.run (ctx app) in
  only_code "SL105" diags;
  check_bool "fixable" true (List.hd diags).Si_lint.fixable

(* ---------------------------------------------------------- mark rules *)

let test_mark_address_malformed () =
  let app, _, _, _ = base_app () in
  Manager.put_mark (Slimpad.marks app)
    (Mark.make ~id:"badmark" ~mark_type:"text"
       ~fields:
         [ ("fileName", "notes.txt"); ("offset", "NaN"); ("length", "3") ]
       ());
  let diags = Si_lint.run (ctx app) in
  only_code "SL201" diags

let test_mark_unknown_field () =
  let app, _, _, _ = base_app () in
  Manager.put_mark (Slimpad.marks app)
    (Mark.make ~id:"extra" ~mark_type:"xml"
       ~fields:
         [ ("fileName", "labs.xml");
           ("xmlPath", "/report");
           ("xlmPath", "typo") ]
       ());
  let diags = Si_lint.run (ctx app) in
  only_code "SL201" diags;
  check_bool "flags the typo" true
    (Re.execp
       (Re.compile (Re.str "unknown field \"xlmPath\""))
       (List.hd diags).Si_lint.message)

let test_mark_type_unsupported () =
  let app, _, _, _ = base_app () in
  Manager.put_mark (Slimpad.marks app)
    (Mark.make ~id:"weird" ~mark_type:"exotic" ~fields:[ ("k", "v") ] ());
  let diags = Si_lint.run (ctx app) in
  only_code "SL202" diags;
  check_bool "info severity" true
    ((List.hd diags).Si_lint.severity = Si_lint.Info)

(* Drive a breaker through trip, cool-down, and failed probes until the
   resilience layer quarantines the source (the test_robustness idiom). *)
let small_config =
  {
    (Resilient.default_config ()) with
    Resilient.failure_threshold = 2;
    cooldown = 2;
    max_attempts = 1;
    call_budget = 100;
    quarantine_probes = 2;
    jitter = (fun _ -> 0);
  }

let quarantine_mark app =
  let mgr = Slimpad.marks app in
  Manager.register_exn mgr
    {
      Manager.module_name = "switch";
      handles_type = "switch";
      validate = (fun _ -> Ok ());
      resolve = (fun _ -> Error "source down");
    };
  let mark =
    ok
      (Manager.create_mark mgr ~mark_type:"switch"
         ~fields:[ ("fileName", "switch.doc") ]
         ~excerpt:"cached" ())
  in
  let r = Slimpad.resilient app in
  for _ = 1 to 10 do
    ignore (Resilient.resolve r mgr mark.Mark.mark_id)
  done;
  check_bool "fixture reached quarantine" true
    (Resilient.quarantined r "switch.doc")

let test_mark_quarantined () =
  let resilient = Resilient.create ~config:small_config () in
  let app, _, _, _ = base_app ~resilient () in
  quarantine_mark app;
  let diags = Si_lint.run (ctx app) in
  only_code "SL203" diags;
  check_bool "names the source" true
    (Re.execp
       (Re.compile (Re.str "switch.doc"))
       (List.hd diags).Si_lint.message)

(* ----------------------------------------------------------- WAL rules *)

let wal_only path = Si_lint.context ~wal_path:path ()

let test_wal_bad_header () =
  let path = temp_wal "pad.wal" in
  write_file path "this is not a wal file at all";
  only_code "SL301" (Si_lint.run (wal_only path))

let test_wal_corrupt_mid_log () =
  let path = temp_wal "pad.wal" in
  write_file path
    (log_magic ^ u32 1 ^ frame benign ^ corrupt_frame (frame benign)
   ^ frame benign);
  let diags = Si_lint.run (wal_only path) in
  only_code "SL301" diags;
  check_bool "offset in provenance" true
    (match (List.hd diags).Si_lint.provenance with
    | Some (Si_lint.In_wal { offset = Some o; _ }) -> o > 0
    | _ -> false)

let test_wal_torn_tail () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes [ benign ] ^ "torn-tail-garbage");
  let diags = Si_lint.run (wal_only path) in
  only_code "SL302" diags;
  check_bool "warning severity" true
    ((List.hd diags).Si_lint.severity = Si_lint.Warning)

let test_wal_stale_log () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes ~gen:1 [ benign ]);
  write_file (Log.snapshot_path path) (snap_bytes ~gen:2 store_doc);
  only_code "SL303" (Si_lint.run (wal_only path))

let test_wal_generation_ahead () =
  (* The opposite skew — log generation ahead of the snapshot — is
     unexplainable by any crash and reports as corruption. *)
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes ~gen:3 [ benign ]);
  write_file (Log.snapshot_path path) (snap_bytes ~gen:1 store_doc);
  only_code "SL301" (Si_lint.run (wal_only path))

let test_wal_unknown_record () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes [ Record.encode_fields [ "zz"; "?" ] ]);
  let diags = Si_lint.run (wal_only path) in
  only_code "SL304" diags;
  check_bool "names the tag" true
    (Re.execp
       (Re.compile (Re.str "unknown record tag \"zz\""))
       (List.hd diags).Si_lint.message);
  (* Lint and recovery decode records with one decoder, so a malformed
     record reads the same in a lint report and a refused recovery. *)
  List.iter
    (fun (fields, text) ->
      let path = temp_wal "pad.wal" in
      write_file path (log_bytes [ Record.encode_fields fields ]);
      let diags = Si_lint.run (wal_only path) in
      only_code "SL304" diags;
      check "lint text" text (List.hd diags).Si_lint.message;
      match Slimpad.open_wal (Desktop.create ()) path with
      | Ok _ -> Alcotest.failf "recovery accepted %S" text
      | Error e -> check "recovery text" ("wal: record 0: " ^ text) e)
    [
      ([ "zz"; "?" ], "unknown record tag \"zz\"");
      ([ "m-"; "a"; "b" ], "bad mark-removal record: expected one mark id");
      ([ "jx"; "1" ], "bad journal-clear record: expected no arguments");
      ([ "jt" ], "bad journal-truncation record: expected one seq");
    ]

let journal_record seq =
  Pad_format.encode
    (Pad_format.Journal_entry
       { Dmi.seq; op = "op"; target = "t"; detail = "d" })

let test_wal_journal_regression () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes [ journal_record 5; journal_record 3 ]);
  let diags = Si_lint.run (wal_only path) in
  only_code "SL304" diags;
  check_bool "explains the regression" true
    (Re.execp
       (Re.compile (Re.str "journal seq 3 not monotone"))
       (List.hd diags).Si_lint.message)

let test_wal_journal_truncation_resets () =
  (* jt/jx legitimately lower the sequence; no diagnostic. *)
  let path = temp_wal "pad.wal" in
  write_file path
    (log_bytes
       [
         journal_record 5;
         Record.encode_fields [ "jt"; "2" ];
         journal_record 3;
         Record.encode_fields [ "jx" ];
         journal_record 1;
       ]);
  check_int "no diagnostics" 0 (List.length (Si_lint.run (wal_only path)))

let test_wal_bad_snapshot_doc () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  write_file (Log.snapshot_path path) (snap_bytes "<oops/>");
  let diags = Si_lint.run (wal_only path) in
  only_code "SL304" diags;
  check_bool "explains" true
    (Re.execp
       (Re.compile (Re.str "not a <slimpad-store>"))
       (List.hd diags).Si_lint.message)

(* A well-formed binary snapshot payload with a little content. *)
let binary_snap_payload () =
  let trim = Trim.create () in
  ignore (Trim.add trim (Triple.make "s" "p" (Triple.literal "v")));
  Trim.to_binary trim

let test_wal_binary_snapshot_clean () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  write_file (Log.snapshot_path path) (snap_bytes (binary_snap_payload ()));
  check_int "no diagnostics" 0 (List.length (Si_lint.run (wal_only path)))

let test_wal_binary_snapshot_crc () =
  (* Flip the last byte of the container (inside a section payload) but
     keep the outer snapshot frame valid: SL305, and SL305 alone. *)
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  let payload = corrupt_frame (binary_snap_payload ()) in
  write_file (Log.snapshot_path path) (snap_bytes payload);
  let diags = Si_lint.run (wal_only path) in
  only_code "SL305" diags;
  check_bool "error severity" true
    ((List.hd diags).Si_lint.severity = Si_lint.Error)

let test_wal_binary_snapshot_truncated () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  let full = binary_snap_payload () in
  write_file (Log.snapshot_path path)
    (snap_bytes (String.sub full 0 (String.length full - 7)));
  only_code "SL305" (Si_lint.run (wal_only path))

let test_wal_binary_snapshot_version () =
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  let future = Bytes.of_string (binary_snap_payload ()) in
  Bytes.set future 7 '\x63';
  write_file (Log.snapshot_path path) (snap_bytes (Bytes.to_string future));
  let diags = Si_lint.run (wal_only path) in
  only_code "SL305" diags;
  check_bool "names the version" true
    (Re.execp (Re.compile (Re.str "version")) (List.hd diags).Si_lint.message)

let test_wal_binary_snapshot_missing_section () =
  (* A well-framed container without its triple data: container shape,
     so SL305 (and not SL304). *)
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  write_file (Log.snapshot_path path)
    (snap_bytes (Si_wal.Binary.encode [ ("marks", "<marks/>") ]));
  let diags = Si_lint.run (wal_only path) in
  only_code "SL305" diags;
  check_bool "explains" true
    (Re.execp
       (Re.compile (Re.str "atoms or triples"))
       (List.hd diags).Si_lint.message)

let test_wal_binary_snapshot_bad_rows () =
  (* The container decodes but its triples section lies about its row
     count: stream contents, so SL304 (and not SL305). *)
  let path = temp_wal "pad.wal" in
  write_file path (log_bytes []);
  let atoms = Buffer.create 16 in
  Record.add_u32 atoms 0;
  let rows = Buffer.create 16 in
  Record.add_u32 rows 5;
  (* five rows claimed, zero provided *)
  write_file (Log.snapshot_path path)
    (snap_bytes
       (Si_wal.Binary.encode
          [
            ("atoms", Buffer.contents atoms); ("triples", Buffer.contents rows);
          ]));
  let diags = Si_lint.run (wal_only path) in
  only_code "SL304" diags

(* ----------------------------------------------------- SL307 hygiene *)

let test_orphan_temp_file () =
  let wal = temp_wal "pad.wal" in
  let dir = Filename.dirname wal in
  let orphan = Filename.concat dir "pad.xml.si-tmp" in
  let oc = open_out orphan in
  output_string oc "<half a store";
  close_out oc;
  let c = Si_lint.context ~workspace:dir () in
  let diags = Si_lint.run c in
  check_int "one diagnostic" 1 (List.length diags);
  let d = List.hd diags in
  check "code" "SL307" d.Si_lint.code;
  check_bool "warning" true (d.Si_lint.severity = Si_lint.Warning);
  check_bool "fixable" true d.Si_lint.fixable;
  (* A bare-file target has no workspace to walk; the scan falls back
     to the would-be temp of the store file itself. *)
  let diags_file =
    Si_lint.run (Si_lint.context ~store_file:(Filename.concat dir "pad.xml") ())
  in
  check_int "sibling fallback finds it too" 1 (List.length diags_file);
  let report = ok (Si_lint.fix c diags) in
  check_int "deleted" 1 report.Si_lint.removed_temp_files;
  check_bool "gone from disk" true (not (Sys.file_exists orphan));
  check_int "re-lint clean" 0 (List.length (Si_lint.run c));
  (* Fixing the same diagnostics again: the file is already gone, and
     that is success, not an error. *)
  let report2 = ok (Si_lint.fix c diags) in
  check_int "second fix is a no-op" 0 report2.Si_lint.removed_temp_files

(* --------------------------------------------------------------- fixes *)

let test_fix_removes_orphan_layout () =
  let app, _, _, _ = base_app () in
  add app (Triple.make "ghost9" Bundle_model.bundle_pos (Triple.literal "1,2"));
  add app (Triple.make "ghost9" Bundle_model.scrap_pos (Triple.literal "3,4"));
  let t = Triple.make "s" "p" (Triple.literal "v") in
  let c = ctx ~raw_triples:[ t; t ] app in
  let diags = Si_lint.run c in
  check_int "two orphans + one duplicate" 3 (List.length diags);
  let report = ok (Si_lint.fix c diags) in
  check_int "removed" 2 report.Si_lint.removed_layout_triples;
  check_int "duplicates observed" 1 report.Si_lint.duplicate_triples;
  (* Re-lint: the live store is clean (duplicates exist only in the
     file, which the caller re-saves). *)
  check_int "re-lint clean" 0 (List.length (Si_lint.run (ctx app)))

let test_fix_nothing_without_dmi () =
  let diags =
    Si_lint.run
      (Si_lint.context
         ~raw_triples:
           [
             Triple.make "s" "p" (Triple.literal "v");
             Triple.make "s" "p" (Triple.literal "v");
           ]
         ())
  in
  (* Duplicate-only fixes need no live store. *)
  let report = ok (Si_lint.fix (Si_lint.context ()) diags) in
  check_int "duplicates" 1 report.Si_lint.duplicate_triples;
  check_int "nothing removed" 0 report.Si_lint.removed_layout_triples

let test_fix_journaled_replays_fixed () =
  (* The acceptance property: --fix repairs go through a Trim
     transaction, so the WAL journal records them and replays to the
     fixed store. *)
  let path = temp_wal "pad.wal" in
  let app, _, _, _ = base_app () in
  ok (Slimpad.enable_wal app path);
  add app (Triple.make "ghost9" Bundle_model.bundle_pos (Triple.literal "1,2"));
  let c = ctx app in
  let diags = Si_lint.run c in
  check_int "one orphan" 1 (List.length diags);
  let report = ok (Si_lint.fix c diags) in
  check_int "removed" 1 report.Si_lint.removed_layout_triples;
  ok (Slimpad.wal_close app);
  (* Recover from the log alone: the orphan's add and the fix's remove
     both replay, landing on the repaired store. *)
  let dump = ok (Result.map_error Log.error_to_string (Log.dump path)) in
  let app2, stats = ok (Slimpad.restore_offline (base_desktop ()) dump) in
  check_bool "replayed both mutations" true (stats.Slimpad.restored >= 2);
  check_int "skipped" 0 stats.Slimpad.skipped;
  check_int "replays to the fixed state" 0
    (List.length (Si_lint.run (ctx ~wal_path:path app2)))

(* ----------------------------------------------------------- reporters *)

let test_reporters () =
  let app, _, _, _ = base_app () in
  add app
    (Triple.make "ghost9" Bundle_model.bundle_pos (Triple.literal "a\"b\n"));
  let diags = Si_lint.run (ctx app) in
  let text = Si_lint.to_text diags in
  check_bool "text has the code" true
    (Re.execp (Re.compile (Re.str "SL105 warning orphan-layout-triple")) text);
  check_bool "text ends with the summary" true
    (Re.execp (Re.compile (Re.str "0 error(s), 1 warning(s), 0 info")) text);
  let json = Si_lint.to_json diags in
  check_bool "json escapes quotes and newlines" true
    (Re.execp (Re.compile (Re.str "a\\\"b\\n")) json);
  check_bool "json is a flat array" true
    (String.length json > 2
    && json.[0] = '['
    && json.[String.length json - 2] = ']');
  check "empty text" "no diagnostics\n" (Si_lint.to_text []);
  check "empty json" "[\n\n]\n" (Si_lint.to_json []);
  check_bool "max severity" true
    (Si_lint.max_severity diags = Some Si_lint.Warning);
  check_bool "max severity empty" true (Si_lint.max_severity [] = None)

(* ------------------------------------------------------ acceptance combo *)

(* One pad seeded with an instance of each defect class. SL301 is the
   one code that cannot coexist with the others in a single log scan:
   mid-log corruption stops the walk before a torn tail, and either
   generation skew excludes the other — so the combo carries
   {SL302, SL303, SL304} and SL301 has its own fixtures above. *)
let test_acceptance_combo () =
  let resilient = Resilient.create ~config:small_config () in
  let app, _, root, scrap = base_app ~resilient () in
  let t = Slimpad.dmi app in
  let bm = bundle_scrap app in
  let m = bm.Bundle_model.model in
  (* SL002 *)
  add app (Triple.make "badconn" Vocab.rdf_type (Triple.resource Vocab.connector));
  add app (Triple.make "badconn" Vocab.predicate (Triple.literal "bad"));
  add app (Triple.make "badconn" Vocab.domain (Triple.resource "ghost"));
  add app (Triple.make "badconn" Vocab.range (Triple.resource "ghost"));
  (* SL003 *)
  add app (Triple.make "cycA" Vocab.rdfs_subclass_of (Triple.resource "cycB"));
  add app (Triple.make "cycB" Vocab.rdfs_subclass_of (Triple.resource "cycA"));
  (* SL004 *)
  let sid = Dmi.scrap_id scrap in
  add app (Triple.make sid "frobnicate" (Triple.literal "x"));
  (* SL101: a second scrap whose mark is then deleted *)
  let doomed =
    ok
      (Slimpad.add_scrap app ~parent:root ~name:"Na" ~mark_type:"xml"
         ~fields:
           [ ("fileName", "labs.xml");
             ("xmlPath", "/report/panel/result[1]") ]
         ())
  in
  let doomed_mark = Dmi.scrap_mark_id t doomed in
  ignore (Manager.remove_mark (Slimpad.marks app) doomed_mark);
  (* SL102 *)
  let lost = Model.new_instance m bm.Bundle_model.bundle () in
  Model.set_property m lost Bundle_model.bundle_name (Triple.literal "Lost");
  (* SL103 *)
  let good_mark = Dmi.scrap_mark_id t scrap in
  let handle = Model.new_instance m bm.Bundle_model.mark_handle () in
  Model.set_property m handle Bundle_model.mark_id (Triple.literal good_mark);
  let orphan = Model.new_instance m bm.Bundle_model.scrap () in
  Model.set_property m orphan Bundle_model.scrap_name (Triple.literal "lone");
  Model.set_property m orphan Bundle_model.scrap_mark (Triple.resource handle);
  (* SL104 *)
  let b1 = Slimpad.add_bundle app ~parent:root ~name:"B1" () in
  let b2 = Slimpad.add_bundle app ~parent:b1 ~name:"B2" () in
  add app
    (Triple.make (Dmi.bundle_id b2) Bundle_model.nested_bundle
       (Triple.resource (Dmi.bundle_id b1)));
  (* SL105 *)
  add app (Triple.make "ghost9" Bundle_model.bundle_pos (Triple.literal "1,2"));
  (* SL201 *)
  Manager.put_mark (Slimpad.marks app)
    (Mark.make ~id:"badmark" ~mark_type:"text"
       ~fields:
         [ ("fileName", "notes.txt"); ("offset", "NaN"); ("length", "3") ]
       ());
  (* SL202 *)
  Manager.put_mark (Slimpad.marks app)
    (Mark.make ~id:"weird" ~mark_type:"exotic" ~fields:[ ("k", "v") ] ());
  (* SL203 *)
  quarantine_mark app;
  (* SL001: the raw file carries one duplicated triple *)
  let dup = Triple.make "s" "p" (Triple.literal "v") in
  (* SL302 + SL303 + SL304: stale log with an unknown record and a torn
     tail, superseded by a valid generation-2 snapshot *)
  let wal_path = temp_wal "pad.wal" in
  write_file wal_path
    (log_bytes ~gen:1 [ Record.encode_fields [ "zz" ] ] ^ "torn");
  write_file (Log.snapshot_path wal_path) (snap_bytes ~gen:2 store_doc);
  let diags = Si_lint.run (ctx ~raw_triples:[ dup; dup ] ~wal_path app) in
  let expected =
    [
      "SL001"; "SL002"; "SL003"; "SL004"; "SL101"; "SL102"; "SL103";
      "SL104"; "SL105"; "SL201"; "SL202"; "SL203"; "SL302"; "SL303";
      "SL304";
    ]
  in
  List.iter
    (fun c ->
      check_int (Printf.sprintf "%s exactly once" c) 1 (count_code c diags))
    expected;
  check_int "nothing unexpected" (List.length expected) (List.length diags);
  check_bool "SL301 cannot coexist here" true (count_code "SL301" diags = 0)

let suite =
  [
    ("registry", `Quick, test_registry);
    ("clean pad lints clean", `Quick, test_clean_pad);
    ("SL001 duplicate triple", `Quick, test_duplicate_triple);
    ("SL002 dangling connector", `Quick, test_dangling_connector);
    ("SL002 malformed cardinality", `Quick, test_malformed_cardinality);
    ("SL003 generalization cycle", `Quick, test_generalization_cycle);
    ("SL003 self loop", `Quick, test_generalization_self_loop);
    ("SL004 conformance violation", `Quick, test_conformance);
    ("SL101 dangling mark handle", `Quick, test_dangling_mark_handle);
    ("SL102 unreachable bundle", `Quick, test_unreachable_bundle);
    ("SL103 orphan scrap", `Quick, test_orphan_scrap);
    ("SL104 containment cycle", `Quick, test_containment_cycle);
    ("SL105 orphan layout triple", `Quick, test_orphan_layout);
    ("SL201 malformed mark address", `Quick, test_mark_address_malformed);
    ("SL201 unknown mark field", `Quick, test_mark_unknown_field);
    ("SL202 unsupported mark type", `Quick, test_mark_type_unsupported);
    ("SL203 quarantined mark", `Quick, test_mark_quarantined);
    ("SL301 bad header", `Quick, test_wal_bad_header);
    ("SL301 mid-log corruption", `Quick, test_wal_corrupt_mid_log);
    ("SL302 torn tail", `Quick, test_wal_torn_tail);
    ("SL303 stale log", `Quick, test_wal_stale_log);
    ("SL301 generation ahead", `Quick, test_wal_generation_ahead);
    ("SL304 unknown record", `Quick, test_wal_unknown_record);
    ("SL304 journal regression", `Quick, test_wal_journal_regression);
    ("journal resets are monotone", `Quick, test_wal_journal_truncation_resets);
    ("SL304 bad snapshot document", `Quick, test_wal_bad_snapshot_doc);
    ("SL305 clean binary snapshot", `Quick, test_wal_binary_snapshot_clean);
    ("SL305 section CRC mismatch", `Quick, test_wal_binary_snapshot_crc);
    ("SL305 truncated container", `Quick, test_wal_binary_snapshot_truncated);
    ("SL305 unsupported version", `Quick, test_wal_binary_snapshot_version);
    ("SL305 missing triple sections", `Quick,
     test_wal_binary_snapshot_missing_section);
    ("SL304 binary rows undecodable", `Quick,
     test_wal_binary_snapshot_bad_rows);
    ("SL307 orphan temp file", `Quick, test_orphan_temp_file);
    ("fix removes orphan layout triples", `Quick, test_fix_removes_orphan_layout);
    ("fix without a live store", `Quick, test_fix_nothing_without_dmi);
    ("fix is journaled and replays", `Quick, test_fix_journaled_replays_fixed);
    ("reporters", `Quick, test_reporters);
    ("acceptance: every defect class once", `Quick, test_acceptance_combo);
  ]
