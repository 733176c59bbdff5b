(* Failure-injection tests: corrupt, truncated and adversarial inputs must
   produce Error values (or parse-tolerant results for HTML), never
   exceptions. The superimposed layer lives on files owned by other
   applications (paper §1: data "outside the box"), so malformed input is
   a normal condition, not an edge case. *)

module Trim = Si_triple.Trim
module Dmi = Si_slim.Dmi
module Desktop = Si_mark.Desktop
module Manager = Si_mark.Manager
module Mark = Si_mark.Mark
module Resilient = Si_mark.Resilient
module Faults = Si_workload.Faults
module Slimpad = Si_slimpad.Slimpad

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A well-formed store file to mutilate. *)
let store_file () =
  let t = Dmi.create () in
  let pad = Dmi.create_slimpad t ~pad_name:"P" in
  let root = Dmi.root_bundle t pad in
  for i = 1 to 5 do
    ignore
      (Dmi.create_scrap t
         ~name:(Printf.sprintf "s%d" i)
         ~mark_id:(Printf.sprintf "m%d" i)
         ~parent:root ())
  done;
  Si_xmlk.Print.to_string ~decl:true (Dmi.to_xml t)

let no_exception f =
  match f () with _ -> true | exception _ -> false

let test_truncated_store_files () =
  let full = store_file () in
  let n = String.length full in
  (* Cut the document at many points; every prefix must load cleanly or
     fail cleanly. *)
  List.iter
    (fun fraction ->
      let len = n * fraction / 100 in
      let mutilated = String.sub full 0 len in
      check_bool
        (Printf.sprintf "truncated at %d%%" fraction)
        true
        (no_exception (fun () -> ignore (Dmi.of_xml
           (match Si_xmlk.Parse.node mutilated with
            | Ok r -> r
            | Error _ -> Si_xmlk.Node.element "garbage" [])))))
    [ 0; 10; 25; 50; 75; 90; 99 ];
  (* A prefix is (almost) never a valid XML document. *)
  check_bool "90% truncation fails to parse" true
    (Result.is_error (Si_xmlk.Parse.node (String.sub full 0 (n * 9 / 10))))

let test_bitflipped_store_files () =
  let full = store_file () in
  (* Corrupt single characters at various positions; parsing/loading must
     not raise. *)
  List.iter
    (fun pos ->
      let bytes = Bytes.of_string full in
      Bytes.set bytes (pos mod String.length full) '\000';
      let corrupted = Bytes.to_string bytes in
      check_bool
        (Printf.sprintf "corrupted at %d" pos)
        true
        (no_exception (fun () ->
             match Si_xmlk.Parse.node corrupted with
             | Ok root -> ignore (Dmi.of_xml root)
             | Error _ -> ())))
    [ 3; 50; 200; 500; 900 ]

let test_wrong_document_kinds () =
  (* Loading one format's file as another fails with Error, not raise. *)
  let workbook_xml =
    Si_spreadsheet.Workbook.to_xml (Si_spreadsheet.Workbook.create ())
  in
  check_bool "workbook as wordproc" true
    (Result.is_error (Si_wordproc.Wordproc.of_xml workbook_xml));
  check_bool "workbook as slides" true
    (Result.is_error (Si_slides.Slides.of_xml workbook_xml));
  check_bool "workbook as pdf" true
    (Result.is_error (Si_pdfdoc.Pdfdoc.of_xml workbook_xml));
  check_bool "workbook as trim" true
    (Result.is_error (Trim.of_xml workbook_xml));
  check_bool "workbook as rdf" true
    (Result.is_error (Si_triple.Rdf_xml.of_xml workbook_xml))

let test_missing_files () =
  check_bool "textdoc" true
    (Result.is_error (Si_textdoc.Textdoc.from_file "/nonexistent/f.txt"));
  check_bool "workbook" true
    (Result.is_error (Si_spreadsheet.Workbook.load "/nonexistent/f.xml"));
  check_bool "trim" true (Result.is_error (Trim.load "/nonexistent/f.xml"));
  check_bool "slimpad" true
    (Result.is_error
       (Slimpad.load (Desktop.create ()) "/nonexistent/pad.xml"))

let test_store_semantic_garbage () =
  (* Well-formed XML with semantically broken content: loads as triples
     (TRIM is schema-less) and the validator reports the breakage. *)
  let broken =
    Si_xmlk.Parse.node_exn
      "<triples count=\"2\">\
       <t s=\"scrap-1\" p=\"rdf:type\"><r>model:bundle-scrap/Scrap</r></t>\
       <t s=\"scrap-1\" p=\"scrapName\"><r>not-a-literal</r></t>\
       </triples>"
  in
  match Dmi.of_xml broken with
  | Error e -> Alcotest.failf "should load (schema-later): %s" e
  | Ok t ->
      let report = Dmi.validate t in
      check_bool "violations reported" true
        (report.Si_metamodel.Validate.violations <> [])

let test_marks_file_with_duplicate_ids () =
  let dup =
    Si_xmlk.Parse.node_exn
      "<marks count=\"2\">\
       <mark id=\"m1\" type=\"text\"><field name=\"fileName\">a</field></mark>\
       <mark id=\"m1\" type=\"text\"><field name=\"fileName\">b</field></mark>\
       </marks>"
  in
  let mgr = Si_mark.Manager.create () in
  check_bool "duplicate ids rejected" true
    (Result.is_error (Si_mark.Manager.of_xml mgr dup))

let test_adversarial_formulas () =
  (* Deeply nested and pathological formulas parse or fail, never raise,
     and evaluation terminates. *)
  let deep n = String.concat "" (List.init n (fun _ -> "(")) ^ "1"
               ^ String.concat "" (List.init n (fun _ -> ")")) in
  check_bool "deep parens parse" true
    (no_exception (fun () -> ignore (Si_spreadsheet.Formula.parse (deep 500))));
  let wb = Si_spreadsheet.Workbook.create () in
  (* A 300-cell dependency chain evaluates without stack trouble. *)
  Si_spreadsheet.Workbook.set wb "A1" "1";
  for i = 2 to 300 do
    Si_spreadsheet.Workbook.set wb
      (Printf.sprintf "A%d" i)
      (Printf.sprintf "=A%d + 1" (i - 1))
  done;
  Alcotest.(check string) "chain" "300" (Si_spreadsheet.Workbook.display wb "A300");
  (* Self-referential ranges terminate with #CYCLE!. *)
  Si_spreadsheet.Workbook.set wb "B1" "=SUM(A1:B9)";
  check_bool "cyclic range terminates" true
    (no_exception (fun () ->
         ignore (Si_spreadsheet.Workbook.display wb "B1")))

let test_huge_flat_xml () =
  (* 20k siblings: parser and path machinery stay iterative enough. *)
  let doc =
    "<r>" ^ String.concat "" (List.init 20_000 (fun i ->
        Printf.sprintf "<e i=\"%d\"/>" i)) ^ "</r>"
  in
  let root = Si_xmlk.Parse.node_exn doc in
  check_int "all parsed" 20_000 (List.length (Si_xmlk.Node.children root));
  let p = Si_xmlk.Path.of_string_exn "/r/e[19999]" in
  check_bool "path into the deep end" true
    (Si_xmlk.Path.resolve_element root p <> None)

let test_html_pathological_nesting () =
  (* 5k unclosed nested divs must not blow the stack at parse, text
     extraction, or printing. *)
  let soup = String.concat "" (List.init 5_000 (fun _ -> "<div>x")) in
  check_bool "survives" true
    (no_exception (fun () ->
         let doc = Si_htmldoc.Htmldoc.parse soup in
         ignore (Si_htmldoc.Htmldoc.to_text doc)))

let test_query_pathological () =
  let trim = Trim.create () in
  for i = 0 to 99 do
    ignore
      (Trim.add trim
         (Si_triple.Triple.make "hub" "spoke"
            (Si_triple.Triple.resource (Printf.sprintf "n%d" i))))
  done;
  (* A 3-way self-join on a hub fans out to 10^6 candidate rows; it must
     complete (and dedupe) without raising. *)
  let q =
    Si_query.Query.parse_exn
      "select ?a where { <hub> spoke ?a . <hub> spoke ?b . <hub> spoke ?c }"
  in
  check_int "deduped" 100 (List.length (Si_query.Query.run trim q))

(* ===================== resilient base-source access ==================== *)

(* A manager with one mark of a synthetic type whose base source is a
   switch we control: the smallest possible flaky base application. *)
let flaky_fixture ?(config = Resilient.default_config ()) () =
  let failing = ref true in
  let mgr = Manager.create () in
  Manager.register_exn mgr
    {
      Manager.module_name = "switch";
      handles_type = "switch";
      validate = (fun _ -> Ok ());
      resolve =
        (fun _ ->
          if !failing then Error "source down"
          else
            Ok
              {
                Mark.res_excerpt = "live";
                res_context = "live";
                res_display = "live";
                res_source = "switch.doc";
              });
    };
  let mark =
    match
      Manager.create_mark mgr ~mark_type:"switch"
        ~fields:[ ("fileName", "switch.doc") ]
        ~excerpt:"cached" ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  (Resilient.create ~config (), mgr, mark.Mark.mark_id, failing)

let no_jitter = (fun _ -> 0 : int -> int)

let small_config =
  {
    (Resilient.default_config ()) with
    Resilient.failure_threshold = 2;
    cooldown = 2;
    max_attempts = 1;
    call_budget = 100;
    quarantine_probes = 2;
    jitter = no_jitter;
  }

let state_of r source =
  match Resilient.breaker_for_source r source with
  | Some i -> i.Resilient.state
  | None -> Alcotest.fail "no breaker for source"

let degraded_with r mgr id pred =
  match Resilient.resolve r mgr id with
  | Ok (Resilient.Degraded { excerpt; fault }) ->
      check_str "degraded serves the cached excerpt" "cached" excerpt;
      check_bool "expected fault" true (pred fault)
  | Ok (Resilient.Fresh _) -> Alcotest.fail "expected Degraded, got Fresh"
  | Error e -> Alcotest.fail (Manager.resolve_error_to_string e)

let test_breaker_lifecycle () =
  let r, mgr, id, failing = flaky_fixture ~config:small_config () in
  (* Closed: two failing calls (one attempt each) trip the breaker. *)
  degraded_with r mgr id (function
    | Resilient.Attempts_exhausted _ -> true
    | _ -> false);
  check_bool "still closed after 1 failure" true
    (state_of r "switch.doc" = Resilient.Closed);
  degraded_with r mgr id (function
    | Resilient.Attempts_exhausted _ -> true
    | _ -> false);
  check_bool "open after threshold" true
    (state_of r "switch.doc" = Resilient.Open);
  (* Open: cooldown calls fast-fail without touching the source. *)
  let info () =
    Option.get (Resilient.breaker_for_source r "switch.doc")
  in
  let failures_before = (info ()).Resilient.total_failures in
  degraded_with r mgr id (function
    | Resilient.Breaker_open _ -> true
    | _ -> false);
  degraded_with r mgr id (function
    | Resilient.Breaker_open _ -> true
    | _ -> false);
  check_int "fast-fails never reached the source" failures_before
    (info ()).Resilient.total_failures;
  check_int "rejections counted" 2 (info ()).Resilient.rejected;
  (* Cool-down elapsed; the source recovers; the half-open probe closes
     the breaker again. *)
  failing := false;
  (match Resilient.resolve r mgr id with
  | Ok (Resilient.Fresh res) -> check_str "live again" "live" res.Mark.res_excerpt
  | Ok (Resilient.Degraded _) -> Alcotest.fail "probe should have succeeded"
  | Error e -> Alcotest.fail (Manager.resolve_error_to_string e));
  check_bool "closed after successful probe" true
    (state_of r "switch.doc" = Resilient.Closed)

let test_quarantine_after_dead_probe_window () =
  let r, mgr, id, _failing = flaky_fixture ~config:small_config () in
  (* The source never recovers: trip, then fail probes across two whole
     cool-down windows. *)
  let exhaust_window () =
    (* cooldown fast-fails, then one failed half-open probe. *)
    for _ = 1 to small_config.Resilient.cooldown + 1 do
      ignore (Resilient.resolve r mgr id)
    done
  in
  ignore (Resilient.resolve r mgr id);
  ignore (Resilient.resolve r mgr id);
  (* tripped *)
  check_bool "not yet quarantined" false (Resilient.quarantined r "switch.doc");
  exhaust_window ();
  exhaust_window ();
  check_bool "quarantined after repeated failed probes" true
    (Resilient.quarantined r "switch.doc");
  (match Resilient.check_drift r mgr id with
  | Ok (Manager.Quarantined (Manager.Resolution_failed { source; _ })) ->
      check_str "quarantine names the source" "switch.doc" source
  | Ok _ -> Alcotest.fail "expected Quarantined"
  | Error e -> Alcotest.fail (Manager.resolve_error_to_string e));
  (* The operator fixes the world: reset forgets the quarantine. *)
  Resilient.reset r;
  check_bool "reset clears quarantine" false
    (Resilient.quarantined r "switch.doc")

let test_backoff_schedule_replays () =
  (* Same seed, same schedule: the retry delays of two independent layers
     are identical, exponential, and capped. *)
  let config () =
    {
      (Resilient.default_config ()) with
      Resilient.failure_threshold = 100;
      max_attempts = 5;
      call_budget = 1000;
      backoff_base = 1;
      backoff_cap = 4;
      jitter = Resilient.deterministic_jitter ~seed:42;
    }
  in
  let run () =
    let r, mgr, id, _ = flaky_fixture ~config:(config ()) () in
    match Resilient.resolve r mgr id with
    | Ok (Resilient.Degraded
            { fault = Resilient.Attempts_exhausted { attempts; backoffs; _ }; _ })
      ->
        (attempts, backoffs)
    | _ -> Alcotest.fail "expected exhausted attempts"
  in
  let attempts, backoffs = run () in
  check_int "all attempts used" 5 attempts;
  check_int "a delay between each pair of attempts" 4 (List.length backoffs);
  List.iteri
    (fun i d ->
      let base = min 4 (1 lsl i) in
      check_bool
        (Printf.sprintf "delay %d in [base, base + jitter bound)" i)
        true
        (d >= base && d < base + base + 1))
    backoffs;
  let attempts2, backoffs2 = run () in
  check_int "replay: attempts" attempts attempts2;
  check_bool "replay: identical schedule" true (backoffs = backoffs2)

let test_call_budget_bounds_one_call () =
  (* Big backoffs against a small budget: the call stops early with
     Budget_exhausted instead of spending its full attempt allowance. *)
  let config =
    {
      (Resilient.default_config ()) with
      Resilient.failure_threshold = 1000;
      max_attempts = 100;
      call_budget = 5;
      backoff_base = 4;
      backoff_cap = 8;
      jitter = no_jitter;
    }
  in
  let r, mgr, id, _ = flaky_fixture ~config () in
  degraded_with r mgr id (function
    | Resilient.Budget_exhausted { attempts; spent; _ } ->
        attempts < 100 && spent <= 5 + 8
    | _ -> false)

let test_fault_schedules () =
  let opener name = Ok ("opened " ^ name) in
  let run inj n =
    List.init n (fun _ ->
        Result.is_ok (Faults.wrap_opener inj opener "doc.txt"))
  in
  (* Fail_first: a scripted outage with an end. *)
  let inj = Faults.create (Faults.Fail_first 3) in
  check_bool "first 3 fail, then recovery" true
    (run inj 5 = [ false; false; false; true; true ]);
  check_int "calls counted" 5 (Faults.calls inj);
  check_int "injections counted" 3 (Faults.injected inj);
  (* Dead and Healthy are the constant schedules. *)
  check_bool "dead never answers" true
    (List.for_all not (run (Faults.create Faults.Dead) 10));
  check_bool "healthy always answers" true
    (List.for_all Fun.id (run (Faults.create Faults.Healthy) 10));
  (* Fail_rate is a seeded coin: deterministic replay, sensitive to the
     seed, and extremes behave like constants. *)
  let flips seed =
    run (Faults.create ~seed (Faults.Fail_rate 0.5)) 100
  in
  check_bool "same seed, same outage" true (flips 1 = flips 1);
  check_bool "different seed, different outage" true (flips 1 <> flips 2);
  check_bool "rate 0 never fails" true
    (List.for_all Fun.id (run (Faults.create (Faults.Fail_rate 0.0)) 50));
  check_bool "rate 1 always fails" true
    (List.for_all not (run (Faults.create (Faults.Fail_rate 1.0)) 50));
  (* reset replays the same coin. *)
  let inj = Faults.create ~seed:7 (Faults.Fail_rate 0.5) in
  let first = run inj 50 in
  Faults.reset inj;
  check_bool "reset replays" true (run inj 50 = first);
  (* [only] scopes the outage to one document. *)
  let inj = Faults.create ~only:[ "a.txt" ] Faults.Dead in
  check_bool "named doc fails" true
    (Result.is_error (Faults.wrap_opener inj opener "a.txt"));
  check_bool "other docs pass through" true
    (Result.is_ok (Faults.wrap_opener inj opener "b.txt"));
  check_int "pass-throughs not counted" 1 (Faults.calls inj)

let test_partial_marks_load_is_all_or_nothing () =
  (* of_xml hitting a bad entry mid-file must not leave the earlier
     entries behind. *)
  let mgr = Manager.create () in
  (match
     Manager.add_mark mgr
       (Mark.make ~id:"keep" ~mark_type:"text"
          ~fields:[ ("fileName", "a.txt") ]
          ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let partial =
    Si_xmlk.Parse.node_exn
      "<marks count=\"3\">\
       <mark id=\"new-1\" type=\"text\"><field name=\"fileName\">b</field></mark>\
       <mark id=\"new-2\" type=\"text\"><field name=\"fileName\">c</field></mark>\
       <mark type=\"text\"><field name=\"fileName\">d</field></mark>\
       </marks>"
  in
  check_bool "load fails on the malformed third mark" true
    (Result.is_error (Manager.of_xml mgr partial));
  check_int "nothing from the failed load stuck" 1 (Manager.mark_count mgr);
  check_bool "pre-existing mark intact" true (Manager.mark mgr "keep" <> None);
  (* Same when the collision is against a pre-existing mark. *)
  let collides =
    Si_xmlk.Parse.node_exn
      "<marks count=\"2\">\
       <mark id=\"new-3\" type=\"text\"><field name=\"fileName\">e</field></mark>\
       <mark id=\"keep\" type=\"text\"><field name=\"fileName\">f</field></mark>\
       </marks>"
  in
  check_bool "duplicate against existing rejected" true
    (Result.is_error (Manager.of_xml mgr collides));
  check_int "still nothing new" 1 (Manager.mark_count mgr)

let test_torn_saves_never_corrupt () =
  let dir = Filename.temp_file "torn" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "store.xml" in
  let trim = Trim.create () in
  ignore
    (Trim.add trim
       (Si_triple.Triple.make "s" "p" (Si_triple.Triple.literal "v")));
  (match Trim.save trim path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* A crash mid-write leaves a torn temp file next to an intact store:
     loading the store ignores the leftover. *)
  let tmp = Si_io.Io.temp_path path in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc "<triples count=\"99\"><t s=\"x\"");
  check_bool "store loads despite torn temp" true
    (match Trim.load path with
    | Ok t2 -> Trim.equal_contents trim t2
    | Error _ -> false);
  (* The next save replaces the leftover and the store survives whole. *)
  (match Trim.save trim path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "temp renamed away by the new save" false (Sys.file_exists tmp);
  check_bool "still loads" true (Result.is_ok (Trim.load path));
  (* The workspace loader never mistakes a temp file for a document. *)
  check_bool "temp suffix recognized" true
    (Si_io.Io.is_temp "pad.xml.si-tmp");
  check_bool "real files not flagged" false
    (Si_io.Io.is_temp "pad.xml");
  (* Unwritable target: an Error, never an exception, and no temp litter. *)
  (match Trim.save trim (Filename.concat dir "no/such/dir/store.xml") with
  | Ok () -> Alcotest.fail "save into a missing directory should fail"
  | Error msg -> check_bool "error mentions the path" true (msg <> ""));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_thousand_mark_pad_under_faults () =
  (* The acceptance scenario: a 1000-scrap pad over two text sources, one
     failing half the time. Every resolution must come back Fresh or
     Degraded-with-cached-excerpt — zero exceptions, zero data loss — and
     the sweep must terminate (bounded retries, tripping breaker). *)
  let desk = Desktop.create () in
  Desktop.add_text desk "flaky.txt"
    (Si_textdoc.Textdoc.of_lines [ "hello world" ]);
  Desktop.add_text desk "stable.txt"
    (Si_textdoc.Textdoc.of_lines [ "hello world" ]);
  let faults = Faults.create ~seed:11 ~only:[ "flaky.txt" ] (Faults.Fail_rate 0.5) in
  let app = Slimpad.create ~wrap:(Faults.wrap faults) desk in
  let mgr = Slimpad.marks app in
  let t = Slimpad.dmi app in
  let pad = Slimpad.new_pad app "load" in
  let root = Dmi.root_bundle t pad in
  let scraps =
    List.init 1000 (fun i ->
        let file = if i mod 2 = 0 then "flaky.txt" else "stable.txt" in
        let mark =
          match
            Manager.create_mark mgr ~mark_type:"text"
              ~fields:
                [ ("fileName", file); ("offset", "0"); ("length", "5");
                  ("selected", "hello") ]
              ~excerpt:"hello" ()
          with
          | Ok m -> m
          | Error e -> Alcotest.fail e
        in
        Dmi.create_scrap t
          ~name:(Printf.sprintf "s%d" i)
          ~mark_id:mark.Mark.mark_id ~parent:root ())
  in
  check_int "all scraps built" 1000 (List.length scraps);
  (* Every outcome is typed; degraded ones carry the cached excerpt. *)
  let fresh = ref 0 and degraded = ref 0 in
  List.iter
    (fun s ->
      match Slimpad.resolve_scrap app s with
      | Ok (Si_mark.Resilient.Fresh res) ->
          incr fresh;
          check_str "live content" "hello" res.Mark.res_excerpt
      | Ok (Si_mark.Resilient.Degraded { excerpt; _ }) ->
          incr degraded;
          check_str "cached excerpt survives" "hello" excerpt
      | Error e -> Alcotest.fail (Manager.resolve_error_to_string e))
    scraps;
  check_int "every scrap accounted for" 1000 (!fresh + !degraded);
  check_bool "the stable source always answered" true (!fresh >= 500);
  (* A refresh sweep terminates and loses nothing. *)
  ignore (Slimpad.refresh_pad app pad);
  List.iter
    (fun s ->
      match Slimpad.scrap_mark app s with
      | Some m -> check_str "excerpt intact after refresh" "hello" m.Mark.excerpt
      | None -> Alcotest.fail "mark vanished")
    scraps;
  let h = Slimpad.pad_health app pad in
  check_int "health covers the pad" 1000
    (h.Slimpad.fresh + h.Slimpad.degraded + h.Slimpad.quarantined);
  check_int "no dangling marks" 0 h.Slimpad.dangling;
  (* The breakers saw both sources and are observable. *)
  let infos = Slimpad.health app in
  check_bool "flaky source has a breaker" true
    (List.exists
       (fun i -> i.Si_mark.Resilient.source = "flaky.txt")
       infos);
  check_bool "stable source stayed closed" true
    (List.exists
       (fun i ->
         i.Si_mark.Resilient.source = "stable.txt"
         && i.Si_mark.Resilient.state = Si_mark.Resilient.Closed
         && i.Si_mark.Resilient.total_failures = 0)
       infos)

let test_degraded_scraps_render_distinctly () =
  let desk = Desktop.create () in
  Desktop.add_text desk "gone.txt"
    (Si_textdoc.Textdoc.of_lines [ "hello world" ]);
  let faults = Faults.create Faults.Dead in
  let app = Slimpad.create ~wrap:(Faults.wrap faults) desk in
  let t = Slimpad.dmi app in
  let pad = Slimpad.new_pad app "p" in
  let root = Dmi.root_bundle t pad in
  let mark =
    match
      Manager.create_mark (Slimpad.marks app) ~mark_type:"text"
        ~fields:
          [ ("fileName", "gone.txt"); ("offset", "0"); ("length", "5");
            ("selected", "hello") ]
        ~excerpt:"hello" ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let scrap =
    Dmi.create_scrap t ~name:"s" ~mark_id:mark.Mark.mark_id ~parent:root ()
  in
  let line = Slimpad.render_scrap_line app scrap in
  check_bool "text rendering flags degradation" true
    (no_exception (fun () -> ()) &&
     (let re = Re.compile (Re.str "DEGRADED cached \"hello\"") in
      Re.execp re line));
  let html = Slimpad.render_pad_html app pad in
  check_bool "html rendering uses the degraded class" true
    (let re = Re.compile (Re.str "class=\"scrap degraded\"") in
     Re.execp re html)

let suite =
  [
    ("truncated store files", `Quick, test_truncated_store_files);
    ("bit-flipped store files", `Quick, test_bitflipped_store_files);
    ("wrong document kinds", `Quick, test_wrong_document_kinds);
    ("missing files", `Quick, test_missing_files);
    ("semantic garbage is validated, not crashed on", `Quick,
     test_store_semantic_garbage);
    ("duplicate mark ids rejected", `Quick, test_marks_file_with_duplicate_ids);
    ("adversarial formulas", `Quick, test_adversarial_formulas);
    ("huge flat XML", `Quick, test_huge_flat_xml);
    ("pathological HTML nesting", `Quick, test_html_pathological_nesting);
    ("pathological query join", `Quick, test_query_pathological);
    ("breaker lifecycle", `Quick, test_breaker_lifecycle);
    ("quarantine after a dead probe window", `Quick,
     test_quarantine_after_dead_probe_window);
    ("backoff schedule replays from its seed", `Quick,
     test_backoff_schedule_replays);
    ("call budget bounds one call", `Quick, test_call_budget_bounds_one_call);
    ("fault schedules", `Quick, test_fault_schedules);
    ("partial marks load is all-or-nothing", `Quick,
     test_partial_marks_load_is_all_or_nothing);
    ("torn saves never corrupt", `Quick, test_torn_saves_never_corrupt);
    ("1000-mark pad under 50% faults", `Quick,
     test_thousand_mark_pad_under_faults);
    ("degraded scraps render distinctly", `Quick,
     test_degraded_scraps_render_distinctly);
  ]
