(* Benchmark harness.

   The paper (ICDE 2001) has no quantitative evaluation — its figures are
   architecture diagrams and screenshots — so each group here either
   exercises a figure's machinery (F6, F7) or measures a design trade-off
   the paper states qualitatively (§6): the space and interpretation cost
   of the generic triple representation (E1, E2), the lightweight list
   store vs the indexed "alternative implementation mechanism" (E3), TRIM
   query/view cost (E4), mapping cost (E6), declarative query vs
   navigational access (E7), and the compound-indexed query path with
   concurrent stores (E10). EXPERIMENTS.md maps each group back to the
   paper's claims.

   Run with: dune exec bench/main.exe
   Machine-readable results: dune exec bench/main.exe -- --json out.json
   writes one JSON entry per test: {"group", "name", "ns_per_run"}
   (ns_per_run is the OLS estimate, null when bechamel produced none). *)

open Bechamel
open Toolkit
module Dmi = Si_slim.Dmi
module Desktop = Si_mark.Desktop
module Manager = Si_mark.Manager
module Mark = Si_mark.Mark
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Store = Si_triple.Store

(* ------------------------------------------------------------- runner *)

(* Per-test OLS estimates, accumulated across groups so --json can dump
   them at the end: (group, test name, ns/run if estimated). *)
let recorded : (string * string * float option) list ref = ref []

(* --smoke: a fast sanity pass (CI runs it on every push) — tiny quota,
   same tests, same JSON shape; the numbers are noise, the exercise is
   the point. *)
let smoke = ref false
let mode_name smoke = if smoke then "smoke" else "full"

let run_group ~name tests =
  Printf.printf "\n== %s ==\n%!" name;
  let cfg =
    if !smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.millisecond 20.) ~kde:None
        ~stabilize:false ()
    else
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None
        ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg
      [ Instance.monotonic_clock ]
      (Test.make_grouped ~name tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let humanize ns =
    if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.1f ns" ns
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (test_name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some (t :: _) ->
             recorded := (name, test_name, Some t) :: !recorded;
             Printf.printf "  %-58s %s/run\n%!" test_name (humanize t)
         | Some [] | None ->
             recorded := (name, test_name, None) :: !recorded;
             Printf.printf "  %-58s (no estimate)\n%!" test_name)

(* Minimal JSON writer (no external dependency): a flat array whose
   first object is {"mode": "smoke"|"full"}, then one {"group", "name",
   "ns_per_run"} object per bench test. The format is documented in
   EXPERIMENTS.md ("Recording results"). *)
let write_json path =
  let escape s =
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
  in
  let entry (group, name, ns) =
    let value =
      match ns with
      | Some v when Float.is_finite v -> Printf.sprintf "%.2f" v
      | Some _ | None -> "null"
    in
    Printf.sprintf "  {\"group\": \"%s\", \"name\": \"%s\", \"ns_per_run\": %s}"
      (escape group) (escape name) value
  in
  let oc = open_out path in
  output_string oc "[\n";
  Printf.fprintf oc "  {\"mode\": \"%s\"},\n" (mode_name !smoke);
  output_string oc (String.concat ",\n" (List.rev_map entry !recorded));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %d bench results to %s\n" (List.length !recorded) path

let staged = Staged.stage

(* A test whose closure has already run once, so its first sample pays
   for no lazily built state. *)
let warmed ~name f =
  ignore (Sys.opaque_identity (f ()));
  Test.make ~name (staged f)

(* The E10 and E15 groups end their set-up with a full major collection,
   so their first samples do not pay the GC debt earlier groups left. *)
let settled tests =
  Gc.full_major ();
  tests

(* --------------------------------------------------------- fixtures *)

(* A bundle-scrap world of [n] scraps through the DMI: one pad, n/10
   bundles, 10 scraps each. *)
let build_world ?store n =
  let t = Dmi.create ?store () in
  let pad = Dmi.create_slimpad t ~pad_name:"bench" in
  let root = Dmi.root_bundle t pad in
  let bundles =
    List.init (max 1 (n / 10)) (fun i ->
        Dmi.create_bundle t ~name:(Printf.sprintf "bundle-%d" i) ~parent:root ())
  in
  let bundle_array = Array.of_list bundles in
  for i = 0 to n - 1 do
    ignore
      (Dmi.create_scrap t
         ~name:(Printf.sprintf "scrap-%d" i)
         ~mark_id:(Printf.sprintf "mark-%d" i)
         ~parent:bundle_array.(i mod Array.length bundle_array)
         ())
  done;
  (t, pad, root, bundle_array)

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
       "<report><panel name=\"lytes\"><result test=\"Na\">140</result>\
        <result test=\"K\">4.2</result></panel></report>");
  Desktop.add_text desk "note.txt"
    (Si_textdoc.Textdoc.of_lines
       [ "Patient: John Smith"; "Plan: wean pressors"; "Call renal." ]);
  let word = Si_wordproc.Wordproc.create ~title:"Note" () in
  Si_wordproc.Wordproc.append_paragraph word "Admitted with sepsis.";
  Desktop.add_word desk "note.doc" word;
  let deck = Si_slides.Slides.create ~title:"Rounds" () in
  let s1 = Si_slides.Slides.add_slide deck ~title:"Case" in
  ignore
    (Si_slides.Slides.add_shape s1 ~id:"problems"
       (Si_slides.Slides.Bullets [ "Septic shock"; "ARF" ]));
  Desktop.add_slides desk "rounds.ppt" deck;
  let pdf = Si_pdfdoc.Pdfdoc.create ~title:"Guideline" () in
  let p1 = Si_pdfdoc.Pdfdoc.add_page pdf in
  ignore (Si_pdfdoc.Pdfdoc.add_line p1 ~y:100. "MAP >= 65 mmHg");
  Desktop.add_pdf desk "guide.pdf" pdf;
  Desktop.add_html desk "wiki.html"
    "<html><head><title>Sepsis</title></head><body><h1 \
     id=\"tx\">Treatment</h1><p>Start antibiotics early.</p></body></html>";
  desk

let mark_fixture () =
  let desk = fig4_desktop () in
  let mgr = Manager.create () in
  Desktop.install_modules desk mgr;
  let mk mark_type fields =
    match Manager.create_mark mgr ~mark_type ~fields () with
    | Ok m -> (mark_type, m.Mark.mark_id)
    | Error e -> failwith e
  in
  let marks =
    [
      mk "excel"
        [ ("fileName", "meds.xls"); ("sheetName", "Medications");
          ("range", "A2:B2") ];
      mk "xml"
        [ ("fileName", "labs.xml"); ("xmlPath", "/report/panel/result[2]") ];
      mk "text"
        [ ("fileName", "note.txt"); ("offset", "26"); ("length", "13");
          ("selected", "wean pressors") ];
      mk "word"
        [ ("fileName", "note.doc"); ("para", "1"); ("offset", "14");
          ("length", "6") ];
      mk "slides"
        [ ("fileName", "rounds.ppt"); ("slide", "1");
          ("shapeId", "problems"); ("bullet", "2") ];
      mk "pdf"
        [ ("fileName", "guide.pdf"); ("page", "1"); ("x", "0"); ("y", "90");
          ("w", "600"); ("h", "30") ];
      mk "html" [ ("fileName", "wiki.html"); ("anchor", "tx") ];
    ]
  in
  (desk, mgr, marks)

(* A native-record baseline for the DMI comparison (E2): the same
   Bundle-Scrap shapes as plain mutable OCaml structures, without the
   generic triple representation underneath. *)
module Native_baseline = struct
  type scrap = {
    mutable scrap_name : string;
    mutable pos : (int * int) option;
    mutable mark_id : string;
  }

  type bundle = {
    mutable bundle_name : string;
    mutable scraps : scrap list;
    mutable nested : bundle list;
  }

  type pad = { mutable pad_name : string; root : bundle }

  let create_pad name =
    { pad_name = name; root = { bundle_name = name; scraps = []; nested = [] } }

  let create_bundle parent name =
    let b = { bundle_name = name; scraps = []; nested = [] } in
    parent.nested <- b :: parent.nested;
    b

  let create_scrap parent name mark_id =
    let s = { scrap_name = name; pos = None; mark_id } in
    parent.scraps <- s :: parent.scraps;
    s
end

(* ------------------------------------------------ E3: store scaling *)

let synthetic_triples n =
  List.init n (fun i ->
      match i mod 3 with
      | 0 ->
          Triple.make
            (Printf.sprintf "bundle-%d" (i / 3))
            "bundleContent"
            (Triple.resource (Printf.sprintf "scrap-%d" i))
      | 1 ->
          Triple.make
            (Printf.sprintf "scrap-%d" (i - 1))
            "scrapName"
            (Triple.literal (Printf.sprintf "scrap %d" i))
      | _ ->
          Triple.make
            (Printf.sprintf "scrap-%d" (i - 2))
            "scrapMark"
            (Triple.resource (Printf.sprintf "mark-%d" i)))

let store_scaling_tests () =
  let sizes = [ 100; 1_000; 10_000 ] in
  List.concat_map
    (fun (impl_name, (module S : Store.S)) ->
      List.concat_map
        (fun n ->
          let triples = synthetic_triples n in
          let filled = S.create () in
          List.iter (fun tr -> ignore (S.add filled tr)) triples;
          let probe_subject = Printf.sprintf "scrap-%d" ((n / 2) + 1) in
          [
            Test.make
              ~name:(Printf.sprintf "insert:%s:n=%d" impl_name n)
              (staged (fun () ->
                   let s = S.create () in
                   List.iter (fun tr -> ignore (S.add s tr)) triples));
            Test.make
              ~name:(Printf.sprintf "select-subject:%s:n=%d" impl_name n)
              (staged (fun () -> S.select ~subject:probe_subject filled));
            Test.make
              ~name:(Printf.sprintf "select-predicate:%s:n=%d" impl_name n)
              (staged (fun () -> S.select ~predicate:"scrapName" filled));
          ])
        sizes)
    Store.implementations

(* ------------------------------------- E4: TRIM query & view scaling *)

let trim_view_tests () =
  List.map
    (fun n ->
      let t, pad, _, _ = build_world n in
      let trim = Dmi.trim t in
      let pad_id = Dmi.pad_id pad in
      Test.make
        ~name:(Printf.sprintf "view:scraps=%d" n)
        (staged (fun () -> Trim.view trim pad_id)))
    [ 10; 100; 1_000 ]
  @ List.map
      (fun depth ->
        let t = Dmi.create () in
        let pad = Dmi.create_slimpad t ~pad_name:"deep" in
        let rec nest parent i =
          if i = 0 then ()
          else
            nest
              (Dmi.create_bundle t ~name:(Printf.sprintf "d%d" i) ~parent ())
              (i - 1)
        in
        nest (Dmi.root_bundle t pad) depth;
        let trim = Dmi.trim t in
        let pad_id = Dmi.pad_id pad in
        Test.make
          ~name:(Printf.sprintf "view:depth=%d" depth)
          (staged (fun () -> Trim.view trim pad_id)))
      [ 8; 64; 256 ]

(* --------------------------------------------- E2: DMI interpretation *)

let dmi_overhead_tests () =
  let t, _, _, bundles = build_world 1_000 in
  let target = bundles.(0) in
  let scrap = List.hd (Dmi.scraps t target) in
  let native_pad = Native_baseline.create_pad "bench" in
  let native_bundle =
    Native_baseline.create_bundle native_pad.Native_baseline.root "b"
  in
  let native_scrap = Native_baseline.create_scrap native_bundle "s" "m" in
  [
    (* Create+delete so the benched bundle does not grow across
       iterations and skew the later read benchmarks. *)
    Test.make ~name:"dmi:create+delete-scrap"
      (staged (fun () ->
           Dmi.delete_scrap t
             (Dmi.create_scrap t ~name:"s" ~mark_id:"m" ~parent:target ())));
    Test.make ~name:"native:create+delete-scrap"
      (staged (fun () ->
           let s = Native_baseline.create_scrap native_bundle "s" "m" in
           native_bundle.Native_baseline.scraps <-
             List.filter
               (fun x -> x != s)
               native_bundle.Native_baseline.scraps));
    Test.make ~name:"dmi:read-scrap-name"
      (staged (fun () -> Dmi.scrap_name t scrap));
    Test.make ~name:"native:read-scrap-name"
      (staged (fun () -> native_scrap.Native_baseline.scrap_name));
    Test.make ~name:"dmi:update-scrap-name"
      (staged (fun () -> Dmi.update_scrap_name t scrap "renamed"));
    Test.make ~name:"native:update-scrap-name"
      (staged (fun () ->
           native_scrap.Native_baseline.scrap_name <- "renamed"));
    Test.make ~name:"dmi:list-bundle-scraps"
      (staged (fun () -> Dmi.scraps t target));
    Test.make ~name:"native:list-bundle-scraps"
      (staged (fun () -> native_bundle.Native_baseline.scraps));
  ]

(* Ablation: the automatically generated (interpreted, run-time-checked)
   DMI vs the hand-written Bundle-Scrap DMI (§6 "automatic generation of
   customized data manipulation interfaces"). *)
let generated_dmi_tests () =
  let t, _, _, bundles = build_world 100 in
  let target = bundles.(0) in
  let scrap = List.hd (Dmi.scraps t target) in
  let scrap_id = Dmi.scrap_id scrap in
  let g =
    Si_slim.Generic_dmi.for_model
      (Dmi.model t).Si_slim.Bundle_model.model
  in
  let must = function Ok v -> v | Error e -> failwith e in
  [
    Test.make ~name:"generated:create+delete-scrap"
      (staged (fun () ->
           let s = must (Si_slim.Generic_dmi.create g "Scrap") in
           ignore (must (Si_slim.Generic_dmi.delete g s))));
    Test.make ~name:"handwritten:create+delete-scrap"
      (staged (fun () ->
           Dmi.delete_scrap t
             (Dmi.create_scrap t ~name:"s" ~mark_id:"m" ~parent:target ())));
    Test.make ~name:"generated:checked-set"
      (staged (fun () ->
           must
             (Si_slim.Generic_dmi.set g scrap_id "scrapName"
                (Triple.literal "renamed"))));
    Test.make ~name:"handwritten:set"
      (staged (fun () -> Dmi.update_scrap_name t scrap "renamed"));
    Test.make ~name:"generated:get"
      (staged (fun () -> Si_slim.Generic_dmi.get_literal g scrap_id "scrapName"));
    Test.make ~name:"handwritten:get"
      (staged (fun () -> Dmi.scrap_name t scrap));
  ]

(* ------------------------------------------------ F7: mark round-trips *)

let mark_tests () =
  let _desk, mgr, marks = mark_fixture () in
  List.map
    (fun (mark_type, mark_id) ->
      Test.make
        ~name:(Printf.sprintf "resolve:%s" mark_type)
        (staged (fun () ->
             match Manager.resolve mgr mark_id with
             | Ok _ -> ()
             | Error e -> failwith (Manager.resolve_error_to_string e))))
    marks
  @ [
      Test.make ~name:"create:excel"
        (staged (fun () ->
             match
               Manager.create_mark mgr ~mark_type:"excel"
                 ~fields:
                   [ ("fileName", "meds.xls"); ("sheetName", "Medications");
                     ("range", "B2") ]
                 ~excerpt:"5" ()
             with
             | Ok _ -> ()
             | Error e -> failwith e));
    ]

(* -------------------------------------------- F6: the three behaviours *)

let behaviour_tests () =
  let _desk, mgr, marks = mark_fixture () in
  let xml_mark = List.assoc "xml" marks in
  List.map
    (fun (label, behaviour) ->
      Test.make
        ~name:(Printf.sprintf "behaviour:%s" label)
        (staged (fun () ->
             match Manager.resolve_with mgr xml_mark behaviour with
             | Ok _ -> ()
             | Error e -> failwith (Manager.resolve_error_to_string e))))
    [
      ("navigate", Mark.Navigate);
      ("extract", Mark.Extract_content);
      ("inplace", Mark.Display_in_place);
    ]

(* -------------------------------------------------- E6: mapping cost *)

let mapping_tests () =
  let module Model = Si_metamodel.Model in
  List.map
    (fun n ->
      let trim = Trim.create () in
      let src = Model.define trim ~name:"src" in
      let bundle = Model.construct src "Bundle" in
      let str = Model.literal_construct src "String" in
      ignore (Model.connect src ~name:"bundleName" ~from_:bundle ~to_:str ());
      for i = 0 to n - 1 do
        let b = Model.new_instance src bundle () in
        Model.set_property src b "bundleName"
          (Triple.literal (Printf.sprintf "b%d" i))
      done;
      Test.make
        ~name:(Printf.sprintf "map-instances:n=%d" n)
        (staged (fun () ->
             let target_trim = Trim.create () in
             let tgt = Model.define target_trim ~name:"tgt" in
             let topic = Model.construct tgt "Topic" in
             let tstr = Model.literal_construct tgt "String" in
             ignore
               (Model.connect tgt ~name:"topicName" ~from_:topic ~to_:tstr ());
             let mapping =
               Si_mapping.Mapping.add_rule_exn
                 (Si_mapping.Mapping.create ~source:src ~target:tgt)
                 {
                   Si_mapping.Mapping.from_construct = "Bundle";
                   to_construct = "Topic";
                   property_map = [ ("bundleName", "topicName") ];
                 }
             in
             Si_mapping.Mapping.apply mapping)))
    [ 10; 100; 1_000 ]

(* --------------------------------------- E7: query vs navigation *)

let query_tests () =
  let t, pad, _, _ = build_world 1_000 in
  let trim = Dmi.trim t in
  let q =
    Si_query.Query.parse_exn
      "select ?n where { ?s <rdf:type> <model:bundle-scrap/Scrap> . ?s \
       scrapName ?n }"
  in
  let needle =
    Si_query.Query.parse_exn "select ?s where { ?s scrapName \"scrap-500\" }"
  in
  let rec nav_all_scrap_names b acc =
    let acc =
      List.fold_left
        (fun acc s -> Dmi.scrap_name t s :: acc)
        acc (Dmi.scraps t b)
    in
    List.fold_left
      (fun acc nested -> nav_all_scrap_names nested acc)
      acc
      (Dmi.nested_bundles t b)
  in
  let root = Dmi.root_bundle t pad in
  (* Optimizer: the same 3-hop join written worst-pattern-first. *)
  let pessimal =
    Si_query.Query.parse_exn
      "select ?n where { ?x ?p ?y . ?s scrapName ?n . ?s scrapName \
       \"scrap-500\" }"
  in
  let optimized = Si_query.Query.optimize trim pessimal in
  [
    Test.make ~name:"query:all-scrap-names"
      (staged (fun () -> Si_query.Query.run trim q));
    Test.make ~name:"nav:all-scrap-names"
      (staged (fun () -> nav_all_scrap_names root []));
    Test.make ~name:"query:point-lookup"
      (staged (fun () -> Si_query.Query.run trim needle));
    Test.make ~name:"query:pessimal-order"
      (staged (fun () -> Si_query.Query.run trim pessimal));
    Test.make ~name:"query:optimized-order"
      (staged (fun () -> Si_query.Query.run trim optimized));
  ]

(* --------------------------- E10: compound-indexed query path (this PR) *)

(* A fixture with wide subjects — 100 subjects x 100 predicates — so the
   bound subject+predicate lookup has something to win: its predicate
   group holds exactly 1 triple where the subject's run holds 100 to
   post-filter. *)
let wide_triples ~subjects ~predicates =
  List.concat_map
    (fun s ->
      List.init predicates (fun p ->
          Triple.make
            (Printf.sprintf "subj-%d" s)
            (Printf.sprintf "pred-%d" p)
            (Triple.literal (Printf.sprintf "v-%d-%d" s p))))
    (List.init subjects Fun.id)

let compound_path_tests () =
  let triples = wide_triples ~subjects:100 ~predicates:100 in
  List.concat_map
    (fun (impl_name, (module S : Store.S)) ->
      let filled = S.create () in
      List.iter (fun tr -> ignore (S.add filled tr)) triples;
      let s = "subj-50" and p = "pred-50" in
      let o = Triple.literal "v-50-50" in
      [
        warmed
          ~name:(Printf.sprintf "select-sp:%s" impl_name)
          (fun () -> S.select ~subject:s ~predicate:p filled);
        (* The seed's single-key path: subject run, then post-filter on
           the predicate — what select-sp used to cost. *)
        warmed
          ~name:(Printf.sprintf "select-sp-postfilter:%s" impl_name)
          (fun () ->
            List.filter
              (fun (tr : Triple.t) -> String.equal tr.predicate p)
              (S.select ~subject:s filled));
        warmed
          ~name:(Printf.sprintf "select-po:%s" impl_name)
          (fun () -> S.select ~predicate:p ~object_:o filled);
        warmed
          ~name:(Printf.sprintf "count-sp:%s" impl_name)
          (fun () -> S.count ~subject:s ~predicate:p filled);
        warmed
          ~name:(Printf.sprintf "exists-subject:%s" impl_name)
          (fun () -> S.count ~subject:s filled > 0);
      ])
    Store.implementations
  |> settled

(* The shape `slimpad serve` runs: one writer and three lock-free
   readers on one shared store. The writer adds 1,000 triples over 97
   subjects; each reader meanwhile runs 1,000 subject-bound selects and
   counts over the same subjects. A run is the time until all four
   domains are done. *)
let concurrent_throughput_tests () =
  let ops = 1_000 in
  let module S = Store.Columnar_store in
  let run () =
    let s = S.create () in
    let subject i = Printf.sprintf "w-r%d" (i mod 97) in
    let writer () =
      for i = 0 to ops - 1 do
        let o = Triple.literal (string_of_int i) in
        ignore (S.add s (Triple.make (subject i) "p" o))
      done
    in
    let reader d () =
      for i = 0 to ops - 1 do
        ignore (S.select ~subject:(subject (i + d)) s);
        ignore (S.count ~subject:(subject (i + (2 * d))) s > 0)
      done
    in
    let domains =
      Domain.spawn writer :: List.init 3 (fun d -> Domain.spawn (reader d))
    in
    List.iter Domain.join domains
  in
  settled [ warmed ~name:("1-writer-3-readers:" ^ S.name) run ]

(* Early-terminating limit: limit 1 must cost a fraction of the full scan
   on the same join. *)
let limit_tests () =
  let t, _, _, _ = build_world 1_000 in
  let trim = Dmi.trim t in
  let full =
    Si_query.Query.parse_exn
      "select ?n where { ?s <rdf:type> <model:bundle-scrap/Scrap> . ?s \
       scrapName ?n }"
  in
  let limited =
    Si_query.Query.parse_exn
      "select ?n where { ?s <rdf:type> <model:bundle-scrap/Scrap> . ?s \
       scrapName ?n } limit 1"
  in
  let topk =
    Si_query.Query.parse_exn
      "select ?n where { ?s <rdf:type> <model:bundle-scrap/Scrap> . ?s \
       scrapName ?n } order by ?n limit 5"
  in
  settled
    [
      warmed ~name:"query:full-scan" (fun () -> Si_query.Query.run trim full);
      warmed ~name:"query:limit-1" (fun () -> Si_query.Query.run trim limited);
      warmed ~name:"query:order-by-top-5" (fun () ->
          Si_query.Query.run trim topk);
    ]

(* ------------------------------------------ application-level benches *)

(* A resolve at the served size: the 200-patient worksheet (2,293
   scraps) on the store the server runs. "BUN 3" labels 33 scraps, near the
   rounds workload's 31.5 matches per resolve; "e", a one-letter search,
   is in 1,176 labels (51%); the empty needle lists every scrap. *)
let served_find_tests () =
  let desk = Desktop.create () in
  let spec = Si_workload.Icu.build_desktop ~patients:200 ~seed:1 desk in
  let app = Si_slimpad.Slimpad.create desk in
  let pad = Si_workload.Icu.build_worksheet app spec in
  [
    Test.make ~name:"find-scraps:label@200-patients"
      (staged (fun () -> Si_slimpad.Slimpad.find_scraps app pad "BUN 3"));
    Test.make ~name:"find-scraps:broad@200-patients"
      (staged (fun () -> Si_slimpad.Slimpad.find_scraps app pad "e"));
    Test.make ~name:"find-scraps:all@200-patients"
      (staged (fun () -> Si_slimpad.Slimpad.find_scraps app pad ""));
  ]

let application_tests () =
  (* A realistic pad: the ICU worksheet over a generated desktop. *)
  let desk = Desktop.create () in
  let spec = Si_workload.Icu.build_desktop ~patients:6 ~seed:11 desk in
  let app = Si_slimpad.Slimpad.create desk in
  let pad = Si_workload.Icu.build_worksheet app spec in
  let ui = Si_tui.Ui.make app pad in
  [
    Test.make ~name:"render:text"
      (staged (fun () -> Si_slimpad.Slimpad.render_pad app pad));
    Test.make ~name:"render:html"
      (staged (fun () -> Si_slimpad.Slimpad.render_pad_html app pad));
    Test.make ~name:"render:tui-frame"
      (staged (fun () -> Si_tui.Ui.render ui ~width:120 ~height:40));
    Test.make ~name:"drift:whole-pad"
      (staged (fun () -> Si_slimpad.Slimpad.drift_report app pad));
    Test.make ~name:"find-scraps"
      (staged (fun () -> Si_slimpad.Slimpad.find_scraps app pad "TODO"));
  ]
  @ served_find_tests ()

(* ------------------------------------------------- E13 lint benches *)

let lint_tests () =
  (* A realistic ICU pad, padded with filler bundles up to the target
     store size; the lint pass runs the full 16-rule catalog. *)
  let app_of_size n =
    let desk = Desktop.create () in
    let spec = Si_workload.Icu.build_desktop ~patients:6 ~seed:11 desk in
    let app = Si_slimpad.Slimpad.create desk in
    let pad = Si_workload.Icu.build_worksheet app spec in
    let dmi = Si_slimpad.Slimpad.dmi app in
    let root = Dmi.root_bundle dmi pad in
    let i = ref 0 in
    while Dmi.triple_count dmi < n do
      incr i;
      ignore
        (Si_slimpad.Slimpad.add_bundle app ~parent:root
           ~name:(Printf.sprintf "filler-%d" !i)
           ~pos:{ Dmi.x = !i; y = !i }
           ())
    done;
    app
  in
  let bench n =
    let app = app_of_size n in
    let ctx =
      Si_lint.context
        ~dmi:(Si_slimpad.Slimpad.dmi app)
        ~marks:(Si_slimpad.Slimpad.marks app)
        ~resilient:(Si_slimpad.Slimpad.resilient app)
        ()
    in
    Test.make
      ~name:(Printf.sprintf "full catalog @ %d triples" n)
      (staged (fun () -> Si_lint.run ctx))
  in
  (* SL004 alone on the 200-patient worksheet: the conformance check that
     a strict bundle apply runs in its preflight. *)
  let conformance =
    let desk = Desktop.create () in
    let spec = Si_workload.Icu.build_desktop ~patients:200 ~seed:1 desk in
    let app = Si_slimpad.Slimpad.create desk in
    ignore (Si_workload.Icu.build_worksheet app spec);
    let ctx = Si_lint.context ~dmi:(Si_slimpad.Slimpad.dmi app) () in
    let rule = Option.get (Si_lint.find_rule "SL004") in
    Test.make ~name:"SL004 @ 200-patient ICU pad"
      (staged (fun () -> Si_lint.run ~rules:[ rule ] ctx))
  in
  List.map bench [ 1_000; 10_000 ] @ [ conformance ]

(* ----------------------------------------- substrate parsing benches *)

let substrate_tests () =
  let xml_doc =
    Si_xmlk.Print.to_string
      (Si_xmlk.Node.element "report"
         (List.init 100 (fun i ->
              Si_xmlk.Node.element "result"
                ~attrs:[ ("test", Printf.sprintf "t%d" i) ]
                [ Si_xmlk.Node.text (string_of_int i) ])))
  in
  let html_doc =
    "<html><body>"
    ^ String.concat ""
        (List.init 100 (fun i -> Printf.sprintf "<tr><td>row %d<td>%d" i i))
    ^ "</body></html>"
  in
  let wb = Si_spreadsheet.Workbook.create () in
  for i = 1 to 50 do
    Si_spreadsheet.Workbook.set wb (Printf.sprintf "A%d" i) (string_of_int i);
    Si_spreadsheet.Workbook.set wb
      (Printf.sprintf "B%d" i)
      (Printf.sprintf "=A%d * 2 + SUM(A1:A%d)" i i)
  done;
  (* The whole-file pad the captivity workload reopens: the 200-patient
     ICU worksheet as [Slimpad.save] writes it, about 2 MB. *)
  let pad_200 =
    let desk = Desktop.create () in
    let spec = Si_workload.Icu.build_desktop ~patients:200 ~seed:1 desk in
    let app = Si_slimpad.Slimpad.create desk in
    ignore (Si_workload.Icu.build_worksheet app spec);
    let path = Filename.temp_file "bench_pad" ".xml" in
    Result.get_ok (Si_slimpad.Slimpad.save app path);
    let xml = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    xml
  in
  [
    Test.make ~name:"xml:parse-100-elements"
      (staged (fun () -> Si_xmlk.Parse.node_exn xml_doc));
    Test.make ~name:"xml:parse-pad-200"
      (staged (fun () -> Si_xmlk.Parse.node_exn pad_200));
    Test.make ~name:"html:parse-100-rows"
      (staged (fun () -> Si_htmldoc.Htmldoc.parse html_doc));
    Test.make ~name:"formula:parse"
      (staged (fun () ->
           Si_spreadsheet.Formula.parse_exn "SUM(B2:B9) * (1 + C1) / 2"));
    Test.make ~name:"spreadsheet:recalc-chain-50"
      (staged (fun () -> Si_spreadsheet.Workbook.display wb "B50"));
  ]

(* --------------------------------- E9: persistence & RDF serialization *)

let persistence_tests () =
  List.concat_map
    (fun n ->
      let t, _, _, _ = build_world n in
      let trim = Dmi.trim t in
      let internal_xml = Trim.to_xml trim in
      let rdf_xml =
        match Si_triple.Rdf_xml.to_xml trim with
        | Ok node -> node
        | Error e -> failwith e
      in
      [
        Test.make
          ~name:(Printf.sprintf "trim-to-xml:scraps=%d" n)
          (staged (fun () -> Trim.to_xml trim));
        Test.make
          ~name:(Printf.sprintf "trim-of-xml:scraps=%d" n)
          (staged (fun () -> Trim.of_xml internal_xml));
        Test.make
          ~name:(Printf.sprintf "rdf-to-xml:scraps=%d" n)
          (staged (fun () -> Si_triple.Rdf_xml.to_xml trim));
        Test.make
          ~name:(Printf.sprintf "rdf-of-xml:scraps=%d" n)
          (staged (fun () -> Si_triple.Rdf_xml.of_xml rdf_xml));
      ])
    [ 10; 100; 1_000 ]

(* --------------------------------------------- E1: space (direct print) *)

let space_report () =
  Printf.printf "\n== E1: space overhead of the generic representation ==\n";
  Printf.printf "  %-10s %12s %14s %16s %18s\n" "scraps" "triples"
    "triples/scrap" "store XML bytes" "native-ish bytes";
  List.iter
    (fun n ->
      let t, pad, _, _ = build_world n in
      let baseline = Dmi.create () in
      let model_triples = Dmi.triple_count baseline in
      let triples = Dmi.triple_count t - model_triples in
      let xml_bytes = String.length (Si_xmlk.Print.to_string (Dmi.to_xml t)) in
      (* A compact purpose-built serialization as the "native" yardstick:
         roughly what a hand-written format would store per object. *)
      let rec native_size b acc =
        let acc =
          List.fold_left
            (fun acc s ->
              acc
              + String.length (Dmi.scrap_name t s)
              + String.length (Dmi.scrap_mark_id t s)
              + 16)
            acc (Dmi.scraps t b)
        in
        List.fold_left
          (fun acc nested ->
            native_size nested
              (acc + String.length (Dmi.bundle_name t nested) + 16))
          acc
          (Dmi.nested_bundles t b)
      in
      let native_bytes = native_size (Dmi.root_bundle t pad) 64 in
      Printf.printf "  %-10d %12d %14.1f %16d %18d\n" n triples
        (float_of_int triples /. float_of_int (max 1 n))
        xml_bytes native_bytes)
    [ 10; 100; 1_000 ];
  Printf.printf
    "  (triples/scrap counts the whole pad structure: scrap + name + mark\n\
    \   handle + membership; the model definition itself is %d triples,\n\
    \   paid once per store.)\n"
    (Dmi.triple_count (Dmi.create ()))

let registry_report () =
  let _desk, mgr, _marks = mark_fixture () in
  Printf.printf "\n== F7: registered mark modules ==\n  %s\n"
    (String.concat ", " (Manager.module_names mgr))

(* --------------------- E11: resilient resolution under faults ---------- *)

(* One breaker-guarded sweep over a flaky and a healthy mark per run. The
   desktop's note.txt fails at the given rate (deterministic injection,
   seed 7). At 0% this measures the resilient layer's overhead over plain
   Manager.resolve; at 10% / 50% it adds the cost of retries, breaker
   trips, and degraded (cached-excerpt) outcomes. *)
let resilience_tests () =
  let make_case rate =
    let desk = fig4_desktop () in
    let faults =
      Si_workload.Faults.create ~seed:7 ~only:[ "note.txt" ]
        (Si_workload.Faults.Fail_rate rate)
    in
    let mgr = Manager.create () in
    Desktop.install_modules ~wrap:(Si_workload.Faults.wrap faults) desk mgr;
    (* Excerpts supplied up front: creation must not depend on the flaky
       opener, only resolution does. *)
    let mk mark_type fields excerpt =
      match Manager.create_mark mgr ~mark_type ~fields ~excerpt () with
      | Ok m -> m.Mark.mark_id
      | Error e -> failwith e
    in
    let flaky =
      mk "text"
        [ ("fileName", "note.txt"); ("offset", "26"); ("length", "13");
          ("selected", "wean pressors") ]
        "wean pressors"
    in
    let healthy =
      mk "xml"
        [ ("fileName", "labs.xml"); ("xmlPath", "/report/panel/result[2]") ]
        "4.2"
    in
    let resilient = Si_mark.Resilient.create () in
    Test.make
      ~name:
        (Printf.sprintf "resolve sweep @ %2d%% faults"
           (int_of_float (rate *. 100.)))
      (staged (fun () ->
           List.iter
             (fun id ->
               match Si_mark.Resilient.resolve resilient mgr id with
               | Ok _ -> ()
               | Error e -> failwith (Manager.resolve_error_to_string e))
             [ flaky; healthy ]))
  in
  List.map make_case [ 0.0; 0.1; 0.5 ]

(* ------------------------ E12: journaled persistence (WAL) ------------- *)

let open_pad ?policy path =
  fst
    (Result.get_ok
       (Si_slimpad.Slimpad.open_wal ?policy (Desktop.create ()) path))

(* The cost of making ONE mutation durable, as the pad grows. The
   whole-file path re-serializes the entire store per save (O(pad));
   the WAL appends two framed records (O(change)). Each run toggles a
   probe triple — add then remove — and persists after each op, so both
   paths do identical logical work and leave the store unchanged. *)
let wal_mutation_tests () =
  let sizes = [ 100; 1_000; 10_000 ] in
  let fill trim n =
    for i = 1 to n do
      ignore
        (Trim.add trim
           (Triple.make
              (Printf.sprintf "r%d" i)
              "scrapName"
              (Triple.literal (Printf.sprintf "scrap %d" i))))
    done
  in
  let probe = Triple.make "probe" "scrapName" (Triple.literal "probe") in
  let whole_file n =
    let trim = Trim.create () in
    fill trim n;
    let path = Filename.temp_file "bench_whole" ".xml" in
    Test.make
      ~name:(Printf.sprintf "whole-file save per mutation @ %d" n)
      (staged (fun () ->
           ignore (Trim.add trim probe);
           Result.get_ok (Trim.save trim path);
           ignore (Trim.remove trim probe);
           Result.get_ok (Trim.save trim path)))
  in
  let journaled n =
    let path = Filename.temp_file "bench_wal" ".wal" in
    Sys.remove path;
    let app = open_pad ~policy:Si_wal.Log.Immediate path in
    let trim = Dmi.trim (Si_slimpad.Slimpad.dmi app) in
    fill trim n;
    Test.make
      ~name:(Printf.sprintf "wal append per mutation @ %d" n)
      (staged (fun () ->
           ignore (Trim.add trim probe);
           ignore (Trim.remove trim probe)))
  in
  List.concat_map (fun n -> [ whole_file n; journaled n ]) sizes

(* Recovery (open: read, verify CRCs, replay) against log length, and
   compaction (snapshot + log truncate) against store size, through the
   journaled pad that production recovery opens. *)
let wal_recovery_tests () =
  let log_of_length n =
    let path = Filename.temp_file "bench_recover" ".wal" in
    Sys.remove path;
    let app = open_pad path in
    let trim = Dmi.trim (Si_slimpad.Slimpad.dmi app) in
    for i = 1 to n do
      ignore
        (Trim.add trim
           (Triple.make
              (Printf.sprintf "r%d" i)
              "scrapName"
              (Triple.literal (Printf.sprintf "scrap %d" i))))
    done;
    Result.get_ok (Si_slimpad.Slimpad.wal_close app);
    path
  in
  let recover n =
    let path = log_of_length n in
    Test.make
      ~name:(Printf.sprintf "recovery (open+replay) @ %d records" n)
      (staged (fun () ->
           Result.get_ok (Si_slimpad.Slimpad.wal_close (open_pad path))))
  in
  let compact n =
    let app = open_pad (log_of_length n) in
    Test.make
      ~name:(Printf.sprintf "compaction (checkpoint) @ %d triples" n)
      (staged (fun () -> Result.get_ok (Si_slimpad.Slimpad.wal_compact app)))
  in
  List.concat_map (fun n -> [ recover n; compact n ]) [ 100; 1_000; 10_000 ]

(* ------------------------ E14: instrumentation overhead (this PR) *)

(* Each hot operation measured twice: with span tracing off (the
   default — only always-on counters fire) and with it on (spans +
   latency histograms). The off/on delta is the cost of observing;
   EXPERIMENTS.md E14 tracks it against a <5% budget for the traced
   case and ~0 for the untraced one. The closures flip the global
   switch themselves (one atomic store, noise-level) because bechamel
   interleaves runs. *)
let obs_overhead_tests () =
  let t, _, _, _ = build_world 1_000 in
  let trim = Dmi.trim t in
  let subject =
    match Trim.to_list trim with
    | tr :: _ -> tr.Triple.subject
    | [] -> assert false
  in
  let needle =
    Si_query.Query.parse_exn "select ?s where { ?s scrapName \"scrap-500\" }"
  in
  let dir = Filename.temp_file "si_bench_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let log, _ = Result.get_ok (Si_wal.Log.open_ (Filename.concat dir "a.wal")) in
  let payload = String.make 64 'x' in
  let off f () =
    Si_obs.Span.disable ();
    f ()
  in
  let on f () =
    Si_obs.Span.enable ();
    f ()
  in
  let select () = ignore (Trim.select ~subject trim) in
  let query () = ignore (Si_query.Query.run trim needle) in
  let append () = ignore (Si_wal.Log.append log payload) in
  [
    Test.make ~name:"trim select:point (tracing off)" (staged (off select));
    Test.make ~name:"trim select:point (tracing on)" (staged (on select));
    Test.make ~name:"query:point-lookup (tracing off)" (staged (off query));
    Test.make ~name:"query:point-lookup (tracing on)" (staged (on query));
    Test.make ~name:"wal append 64B (tracing off)" (staged (off append));
    Test.make ~name:"wal append 64B (tracing on)" (staged (on append));
  ]

(* ------------- E15: columnar store scaling & binary snapshot codec *)

(* The columnar store at sizes where representation dominates. The
   dataset is [synthetic_triples] plus one "captive" bundle holding
   n/100 scraps — the §3 many-scrap bundle — so the probes cover both
   run regimes: fat-run counts and filtered selects (run lengths and
   int-compare scans), and point probes on short runs, which sit at the
   allocation floor. The store is filled by [add], so it holds a packed
   base and a delta of up to a quarter of it. 1M rows only off-smoke. *)
let e15_triples n =
  let fat = max 64 (n / 100) in
  let captive =
    List.init fat (fun i ->
        Triple.make "bundle-captive" "bundleContent"
          (Triple.resource (Printf.sprintf "scrap-%d" (i * 3))))
  in
  synthetic_triples (n - fat) @ captive

let columnar_scaling_tests () =
  let sizes =
    if !smoke then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  List.concat_map
    (fun n ->
      let triples = e15_triples n in
      List.concat_map
        (fun (impl_name, (module S : Store.S)) ->
          let filled = S.create () in
          List.iter (fun tr -> ignore (S.add filled tr)) triples;
          let point_subj = Printf.sprintf "scrap-%d" ((n / 2 / 3 * 3) + 1) in
          let so_obj = Triple.resource "scrap-300" in
          let probes =
            [
              ( "count-predicate",
                fun () -> ignore (S.count ~predicate:"scrapName" filled) );
              ( "count-subject-fat",
                fun () -> ignore (S.count ~subject:"bundle-captive" filled) );
              ( "count-sp-fat",
                fun () ->
                  ignore
                    (S.count ~subject:"bundle-captive"
                       ~predicate:"bundleContent" filled) );
              ( "select-so-fat",
                fun () ->
                  ignore
                    (S.select ~subject:"bundle-captive" ~object_:so_obj filled)
              );
              ( "select-subject",
                fun () -> ignore (S.select ~subject:point_subj filled) );
              ( "exists-po",
                fun () ->
                  ignore
                    (S.count ~predicate:"bundleContent" ~object_:so_obj filled
                    > 0)
              );
            ]
          in
          List.map
            (fun (probe_name, probe) ->
              warmed
                ~name:(Printf.sprintf "%s:%s:n=%d" probe_name impl_name n)
                probe)
            probes)
        [ ("columnar", (module Store.Columnar_store : Store.S)) ])
    sizes
  |> settled

(* Recovering a served pad from its snapshot bytes: the decoder
   [Slimpad.of_snapshot_bytes] runs ([Pad_format.restore], the
   Bundle-Scrap model install included) into the store [slimpad serve]
   uses, which builds its packed base once from the columns. *)
let recover_pad_test n =
  let dmi = Dmi.create () in
  Trim.add_all (Dmi.trim dmi) (synthetic_triples n);
  let bytes =
    Si_wal.Binary.encode
      (Si_slimpad.Pad_format.sections dmi (Manager.create ()))
  in
  warmed
    ~name:(Printf.sprintf "recover-pad:n=%d" n)
    (fun () ->
      match Si_wal.Binary.decode bytes with
      | Error e -> failwith e
      | Ok sections ->
          Result.get_ok
            (Si_slimpad.Pad_format.restore (Manager.create ()) sections))

(* Binary vs XML snapshot codec: encode, decode (= recovery's parse
   path, including the XML parse the binary form skips), and the byte
   sizes as a printed report. *)
let snapshot_codec_tests () =
  let sizes = if !smoke then [ 10_000 ] else [ 10_000; 100_000 ] in
  List.concat_map
    (fun n ->
      let trim = Trim.create () in
      Trim.add_all trim (synthetic_triples n);
      let xml = Si_xmlk.Print.to_string (Trim.to_xml trim) in
      let bin = Trim.to_binary trim in
      [
        warmed
          ~name:(Printf.sprintf "encode-xml:n=%d" n)
          (fun () -> ignore (Si_xmlk.Print.to_string (Trim.to_xml trim)));
        warmed
          ~name:(Printf.sprintf "encode-binary:n=%d" n)
          (fun () -> ignore (Trim.to_binary trim));
        warmed
          ~name:(Printf.sprintf "recover-xml:n=%d" n)
          (fun () ->
            match Si_xmlk.Parse.node xml with
            | Error _ -> assert false
            | Ok root ->
                Result.get_ok
                  (Trim.of_xml (Si_xmlk.Node.strip_whitespace root)));
        warmed
          ~name:(Printf.sprintf "recover-binary:n=%d" n)
          (fun () -> Result.get_ok (Trim.of_binary bin));
      ])
    sizes
  @ [ recover_pad_test (if !smoke then 10_000 else 100_000) ]
  @ (* The checksum every container section and WAL record pays. *)
  let mib = String.init (1 lsl 20) (fun i -> Char.chr ((i * 131) land 0xff)) in
  settled [ warmed ~name:"crc32:1MiB" (fun () -> Si_wal.Crc32.digest mib) ]

let snapshot_size_report () =
  Printf.printf "\n-- E15 snapshot bytes (binary vs XML) --\n";
  List.iter
    (fun n ->
      let trim = Trim.create () in
      Trim.add_all trim (synthetic_triples n);
      let xml = String.length (Si_xmlk.Print.to_string (Trim.to_xml trim)) in
      let bin = String.length (Trim.to_binary trim) in
      Printf.printf "  n=%-8d xml %9d B   binary %9d B   (%.1fx smaller)\n" n
        xml bin
        (float_of_int xml /. float_of_int bin))
    (if !smoke then [ 10_000 ] else [ 10_000; 100_000 ])

(* ------------- E16: WAL shipping, follower lag, and PITR restore *)

(* What replication costs the write path, and what recovery costs the
   read path. Three angles: (a) the per-append overhead of the shipping
   tee and of synchronously draining to in-process followers, against a
   plain journal append; (b) the follower staleness bound under load at
   different ship cadences, as a printed distribution; (c) point-in-time
   restore cost against archive depth, through the real Slimpad path
   (base snapshot + sealed-segment replay). Followers here are raw
   [Si_wal.Replica]s with no-op apply/install so the probes price the
   protocol and framing, not the TRIM mutation underneath (E12 already
   prices that). *)

let e16_dir () =
  let dir = Filename.temp_file "si_bench_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let e16_replica () =
  Si_wal.Replica.create
    ~apply:(fun _ -> Ok ())
    ~install:(fun ~term:_ ~seq:_ _ -> Ok ())
    ()

let e16_leader ~followers () =
  let dir = e16_dir () in
  let log, _ =
    Result.get_ok (Si_wal.Log.open_ (Filename.concat dir "leader.wal"))
  in
  let sh =
    Result.get_ok
      (Si_wal.Ship.create ~archive:(Filename.concat dir "archive") log)
  in
  let replicas =
    List.init followers (fun i ->
        let r = e16_replica () in
        Result.get_ok
          (Si_wal.Ship.attach sh
             ~name:(Printf.sprintf "f%d" i)
             (Si_wal.Replica.transport r));
        r)
  in
  (log, sh, replicas)

let ship_overhead_tests () =
  let payload = String.make 64 'x' in
  let plain =
    let dir = e16_dir () in
    let log, _ =
      Result.get_ok (Si_wal.Log.open_ (Filename.concat dir "a.wal"))
    in
    Test.make ~name:"append 64B: plain log"
      (staged (fun () -> ignore (Si_wal.Log.append log payload)))
  in
  let teed =
    let log, _, _ = e16_leader ~followers:0 () in
    Test.make ~name:"append 64B: shipper tee (seal amortized)"
      (staged (fun () -> ignore (Si_wal.Log.append log payload)))
  in
  let shipped n =
    let log, sh, _ = e16_leader ~followers:n () in
    Test.make
      ~name:
        (Printf.sprintf "append+ship 64B: %d in-process follower%s" n
           (if n = 1 then "" else "s"))
      (staged (fun () ->
           ignore (Si_wal.Log.append log payload);
           Result.get_ok (Si_wal.Ship.ship sh)))
  in
  let burst k =
    let log, sh, _ = e16_leader ~followers:1 () in
    Test.make
      ~name:(Printf.sprintf "ship burst: %d x 64B, 1 follower" k)
      (staged (fun () ->
           for _ = 1 to k do
             ignore (Si_wal.Log.append log payload)
           done;
           Result.get_ok (Si_wal.Ship.ship sh)))
  in
  [ plain; teed; shipped 1; shipped 3 ]
  @ List.map burst (if !smoke then [ 16 ] else [ 16; 64 ])

(* The staleness a reader sees at a follower between ship rounds,
   sampled leader-side (records assigned minus records acked) after
   every append. The p50 of a cadence-k stream sits near k/2; the max
   is the bound [fresh_enough] enforces against. *)
let ship_lag_report () =
  Printf.printf "\n-- E16 follower lag under load (records behind leader) --\n";
  let payload = String.make 64 'x' in
  let total = if !smoke then 400 else 4_000 in
  List.iter
    (fun every ->
      let log, sh, _ = e16_leader ~followers:1 () in
      let h = Si_obs.Histogram.create () in
      for i = 1 to total do
        ignore (Si_wal.Log.append log payload);
        if i mod every = 0 then Result.get_ok (Si_wal.Ship.ship sh);
        Si_obs.Histogram.add h (Si_wal.Ship.lag sh)
      done;
      Printf.printf
        "  ship every %-3d  p50 %6.0f  p90 %6.0f  p99 %6.0f  max %6d  (%d \
         appends)\n"
        every
        (Si_obs.Histogram.median h)
        (Si_obs.Histogram.quantile h 0.9)
        (Si_obs.Histogram.quantile h 0.99)
        (Si_obs.Histogram.max_value h)
        total)
    [ 1; 16; 64 ]

(* Point-in-time recovery through the real application path: a leader
   journals bundles behind a shipping tee (8 records per sealed
   segment), then [restore_at] rebuilds the pad at the archive's tip —
   one base snapshot plus every sealed segment. Restore cost should be
   linear in archive depth. *)
let restore_tests () =
  let seg_counts = if !smoke then [ 4 ] else [ 4; 16; 64 ] in
  List.map
    (fun segs ->
      let dir = e16_dir () in
      let app, _ =
        Result.get_ok
          (Si_slimpad.Slimpad.open_wal (Desktop.create ())
             (Filename.concat dir "pad.wal"))
      in
      let pad = Si_slimpad.Slimpad.new_pad app "bench-pad" in
      let archive = Filename.concat dir "pad.archive" in
      Result.get_ok
        (Si_slimpad.Slimpad.start_shipping ~segment_records:8 app ~archive);
      let root = Dmi.root_bundle (Si_slimpad.Slimpad.dmi app) pad in
      (* One add_bundle journals 4 records, so two bundles fill one
         8-record segment; the buffer seals itself on exactly the last
         op and the archive tip equals the shipper's cursor. *)
      for i = 1 to segs * 2 do
        ignore
          (Si_slimpad.Slimpad.add_bundle app ~parent:root
             ~name:(Printf.sprintf "node-%04d" i)
             ())
      done;
      Result.get_ok (Si_slimpad.Slimpad.wal_sync app);
      let at = Si_wal.Ship.seq (Option.get (Si_slimpad.Slimpad.shipper app)) in
      let probe () =
        match
          Si_slimpad.Slimpad.restore_at (Desktop.create ()) ~archive ~at
        with
        | Ok (_, reached) -> assert (reached = at)
        | Error e -> failwith e
      in
      probe ();
      Test.make
        ~name:(Printf.sprintf "restore @ %d segments" segs)
        (staged probe))
    seg_counts

(* ------------------------------------------------ E17: the pad server *)

(* Serving cost end to end: a real server on an ephemeral localhost
   port, real TCP clients. The bechamel group prices single-request
   RTTs (the unit the open-loop sweep below multiplies); the printed
   report drives the arrival-rate sweep with >= 2 concurrent clients
   and locates the overload knee — the rate where typed [Overloaded]
   rejections appear while interactive latency stays bounded. *)

let e17_server () =
  let dir = e16_dir () in
  let app, _ =
    Result.get_ok
      (Si_slimpad.Slimpad.open_wal (Desktop.create ())
         (Filename.concat dir "pad.wal"))
  in
  ignore (Si_slimpad.Slimpad.new_pad app "bench-pad");
  let config =
    { Si_serve.Server.default_config with workers = 2; job_capacity = 2 }
  in
  Result.get_ok (Si_serve.Server.start ~config app)

(* The measured server outlives its group's Test.make closures; main
   stops it after the group runs. *)
let e17_cleanup = ref (fun () -> ())

let server_tests () =
  let server = e17_server () in
  (e17_cleanup := fun () -> Si_serve.Server.stop server);
  let port = Si_serve.Server.port server in
  (* One shared connection: a worker owns a connection for its whole
     life, so more persistent clients than workers would leave later
     tests waiting in the accept queue. Tests run sequentially and the
     protocol is strict request/response, so sharing is safe. *)
  let c = Result.get_ok (Si_serve.Client.connect ~port ()) in
  let rtt name req =
    Test.make ~name
      (staged (fun () ->
           match Si_serve.Client.request c req with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let module P = Si_serve.Proto in
  [
    rtt "rtt: ping" P.Ping;
    rtt "rtt: count (indexed read)" (P.Count P.any);
    rtt "rtt: select limit 16"
      (P.Select { pattern = P.any; limit = 16 });
    rtt "rtt: add (durable write)"
      (P.Add (Si_triple.Triple.make "bench" "rtt" (Si_triple.Triple.Literal "v")));
  ]

let server_load_report () =
  Printf.printf "\n-- E17 open-loop serving sweep (2 clients, RTT in us) --\n";
  let server = e17_server () in
  let port = Si_serve.Server.port server in
  let requests = if !smoke then 150 else 600 in
  let us ns = ns /. 1_000. in
  let sweep rate =
    let r = Si_workload.Loadgen.run ~port ~rate ~requests () in
    Printf.printf
      "  rate %5.0f/s  p50 %7.0f  p99 %8.0f  ok %4d  overloaded %3d  \
       errors %d\n"
      rate
      (us (Si_workload.Loadgen.quantile_ns r 0.5))
      (us (Si_workload.Loadgen.quantile_ns r 0.99))
      r.Si_workload.Loadgen.ok r.Si_workload.Loadgen.overloaded
      r.Si_workload.Loadgen.errors;
    r
  in
  let uncontended = sweep 50. in
  ignore (sweep 400.);
  ignore (sweep 2_000.);
  (* The knee: saturate the bounded bulk-job queue while interactive
     traffic keeps flowing. Bulk submits must be rejected with typed
     [Overloaded]; the interactive p99 under that flood should stay
     within a small factor of the uncontended run. *)
  let flooded =
    Si_workload.Loadgen.run ~port ~rate:2_000. ~requests
      ~mix:{ Si_workload.Loadgen.default_mix with bulk = 5 }
      ()
  in
  let p99 r = us (Si_workload.Loadgen.quantile_ns r 0.99) in
  Printf.printf
    "  bulk flood    p50 %7.0f  p99 %8.0f  ok %4d  bulk rejected %3d\n"
    (us (Si_workload.Loadgen.quantile_ns flooded 0.5))
    (p99 flooded) flooded.Si_workload.Loadgen.ok
    flooded.Si_workload.Loadgen.rejected_bulk;
  Printf.printf
    "  knee: bulk rejections %s, interactive p99 %.1fx uncontended\n"
    (if flooded.Si_workload.Loadgen.rejected_bulk > 0 then "engaged"
     else "NOT ENGAGED")
    (p99 flooded /. Float.max 1. (p99 uncontended));
  Si_serve.Server.stop server

(* ------------------ E18: instrumented locking overhead (this PR) *)

(* [Si_check.Lock] against the raw [Mutex] it wraps, in both checker
   states. Disabled is the shipping configuration — every mutex in the
   tree now routes through the wrapper, so the E10/E17 groups above
   already price it end to end and the pr8->pr9 JSON compare enforces
   the <5% budget. Enabled prices the sanitizer itself: the DLS
   held-stack upkeep, graph edges, and hold timing. The closures flip
   the global switch per run (bechamel interleaves runs, same pattern
   as E14); main disables and resets the checker after the group so the
   edges recorded here never leak into a later report. *)
let check_overhead_tests () =
  Si_check.Hierarchy.declare ~rank:9100 ~doc:"bench scratch lock"
    "bench.lock";
  Si_check.Hierarchy.declare ~rank:9110 ~doc:"bench scratch inner lock"
    "bench.lock.inner";
  let raw = Mutex.create () in
  let lk = Si_check.Lock.create ~class_:"bench.lock" in
  let inner = Si_check.Lock.create ~class_:"bench.lock.inner" in
  let disabled f () =
    Si_check.set_enabled false;
    f ()
  and enabled f () =
    Si_check.set_enabled true;
    f ()
  in
  let raw_pair () =
    Mutex.lock raw;
    Mutex.unlock raw
  in
  let pair () =
    Si_check.Lock.lock lk;
    Si_check.Lock.unlock lk
  in
  let nested () =
    Si_check.Lock.with_lock lk (fun () ->
        Si_check.Lock.with_lock inner (fun () -> ()))
  in
  (* The E10 hot op under instrumentation: a store add (store writer
     lock + atom-table lock per call) with a select every 10th run. *)
  let module S = Store.Columnar_store in
  let s = S.create () in
  let i = ref 0 in
  let store_op () =
    incr i;
    let subject = Printf.sprintf "s-%d" (!i mod 97) in
    ignore (S.add s (Triple.make subject "p" (Triple.literal "v")));
    if !i mod 10 = 0 then ignore (S.select ~subject s)
  in
  [
    Test.make ~name:"raw mutex lock/unlock" (staged raw_pair);
    Test.make ~name:"Si_check.Lock pair (disabled)" (staged (disabled pair));
    Test.make ~name:"Si_check.Lock pair (enabled)" (staged (enabled pair));
    Test.make ~name:"nested with_lock x2 (enabled)" (staged (enabled nested));
    Test.make ~name:"store add+select (disabled)"
      (staged (disabled store_op));
    Test.make ~name:"store add+select (enabled)"
      (staged (enabled store_op));
  ]

(* ------------------- E19: capture bundle throughput vs pad size *)

(* Capture and apply over synthetic pads of 1k/10k/100k triples, with
   and without base documents. Bases go through an in-memory reader (50
   four-KB documents) so the group prices the bundle machinery — section
   framing, CRCs, the compact triple codec — not the filesystem. Apply
   targets a fresh pad per run; that pad's construction is part of the
   restore path a migrating user actually pays. *)
let bundle_tests () =
  let module Slimpad = Si_slimpad.Slimpad in
  let sizes = if !smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let base_doc = String.make 4_096 'x' in
  let bases ~kind:_ ~name = Ok (name, base_doc) in
  List.concat_map
    (fun n ->
      let app = Slimpad.create (Desktop.create ()) in
      Trim.add_all (Dmi.trim (Slimpad.dmi app)) (synthetic_triples n);
      for i = 0 to 49 do
        Manager.put_mark (Slimpad.marks app)
          (Mark.make
             ~id:(Printf.sprintf "m-%d" i)
             ~mark_type:"text"
             ~fields:[ ("fileName", Printf.sprintf "doc-%02d.txt" i) ]
             ~excerpt:"cached excerpt" ())
      done;
      let plain, _ = Si_bundle.capture app in
      let with_bases, _ = Si_bundle.capture ~bases app in
      [
        Test.make
          ~name:(Printf.sprintf "capture:n=%d" n)
          (staged (fun () -> ignore (Si_bundle.capture app)));
        Test.make
          ~name:(Printf.sprintf "capture+bases:n=%d" n)
          (staged (fun () -> ignore (Si_bundle.capture ~bases app)));
        Test.make
          ~name:(Printf.sprintf "verify:n=%d" n)
          (staged (fun () -> assert (Si_bundle.verify with_bases = [])));
        Test.make
          ~name:(Printf.sprintf "apply:n=%d" n)
          (staged (fun () ->
               let target = Slimpad.create (Desktop.create ()) in
               ignore
                 (Result.get_ok
                    (Si_bundle.apply ~excerpts:true target plain))));
      ])
    sizes

let bundle_size_report () =
  let module Slimpad = Si_slimpad.Slimpad in
  Printf.printf "\n-- E19 bundle bytes vs pad size --\n";
  let base_doc = String.make 4_096 'x' in
  let bases ~kind:_ ~name = Ok (name, base_doc) in
  List.iter
    (fun n ->
      let app = Slimpad.create (Desktop.create ()) in
      Trim.add_all (Dmi.trim (Slimpad.dmi app)) (synthetic_triples n);
      for i = 0 to 49 do
        Manager.put_mark (Slimpad.marks app)
          (Mark.make
             ~id:(Printf.sprintf "m-%d" i)
             ~mark_type:"text"
             ~fields:[ ("fileName", Printf.sprintf "doc-%02d.txt" i) ]
             ~excerpt:"cached excerpt" ())
      done;
      let plain, _ = Si_bundle.capture app in
      let full, _ = Si_bundle.capture ~bases app in
      Printf.printf
        "  n=%-8d bundle %9d B   +bases %9d B   (50 marks, 4 KiB docs)\n" n
        (String.length plain) (String.length full))
    (if !smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ])

(* ------------------------------------- --compare: regression gating *)

(* Compare two --json files test by test, keyed by each test's full
   (group-prefixed) name: a test whose new ns_per_run exceeds threshold
   x its old one fails the gate. A group median would hide a regression
   in one test among many, and would move when rows are only added or
   dropped. Tests present on only one side are reported as [new] or
   [gone] but never fail (the bench suite changes over time). Smoke
   runs measure 10k-sized inputs under a tiny quota, so a comparison
   across modes is refused (exit 2). A file without a mode object is a
   full run, as is every baseline recorded before the field existed. *)
let compare_runs ~threshold ~report_path old_path new_path =
  let load path =
    let contents = In_channel.with_open_bin path In_channel.input_all in
    match Si_obs.Json.of_string contents with
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | Ok json ->
        let entries = Option.value (Si_obs.Json.list json) ~default:[] in
        let mode =
          List.find_map
            (fun entry ->
              Option.bind (Si_obs.Json.mem "mode" entry) Si_obs.Json.str)
            entries
        in
        let tests = Hashtbl.create 256 in
        List.iter
          (fun entry ->
            match
              ( Option.bind (Si_obs.Json.mem "name" entry) Si_obs.Json.str,
                Option.bind (Si_obs.Json.mem "ns_per_run" entry)
                  Si_obs.Json.number )
            with
            | Some name, Some ns when Float.is_finite ns && ns >= 0. ->
                Hashtbl.replace tests name ns
            | _ -> ())
          entries;
        (Option.value mode ~default:(mode_name false), tests)
  in
  let old_mode, old_tests = load old_path
  and new_mode, new_tests = load new_path in
  if old_mode <> new_mode then begin
    Printf.printf
      "bench comparison refused: %s is a %s run, %s is a %s run; compare \
       smoke runs only with smoke baselines\n"
      old_path old_mode new_path new_mode;
    exit 2
  end;
  let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let all = List.sort_uniq compare (names old_tests @ names new_tests) in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "bench comparison: %s -> %s (gate: per test > %.1fx)" old_path new_path
    threshold;
  let failures = ref 0 in
  List.iter
    (fun test ->
      match
        (Hashtbl.find_opt old_tests test, Hashtbl.find_opt new_tests test)
      with
      | Some o, Some n ->
          if o > 0. then begin
            let ratio = n /. o in
            let verdict =
              if ratio > threshold then begin
                incr failures;
                "FAIL"
              end
              else "ok"
            in
            line "  %-4s %-80s %12.0fns -> %12.0fns (%.2fx)" verdict test o n
              ratio
          end
          else line "  ok   %-80s old 0ns; skipped" test
      | None, Some n -> line "  new  %-80s %12.0fns (no baseline)" test n
      | Some o, None -> line "  gone %-80s was %12.0fns" test o
      | None, None -> ())
    all;
  line "%s"
    (if !failures = 0 then "comparison passed"
     else Printf.sprintf "comparison FAILED: %d test(s) regressed" !failures);
  let text = Buffer.contents buf in
  print_string text;
  (match report_path with
  | Some path -> Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  | None -> ());
  if !failures = 0 then 0 else 1

let () =
  let argv = Array.to_list Sys.argv in
  let flag_value name =
    let rec find = function
      | x :: value :: _ when x = name -> Some value
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let json_path = flag_value "--json" in
  (match
     let rec find = function
       | "--compare" :: old_path :: new_path :: _ -> Some (old_path, new_path)
       | _ :: rest -> find rest
       | [] -> None
     in
     find argv
   with
  | Some (old_path, new_path) ->
      let threshold =
        match flag_value "--threshold" with
        | Some t -> float_of_string t
        | None -> 3.0
      in
      exit
        (compare_runs ~threshold ~report_path:(flag_value "--report") old_path
           new_path)
  | None -> ());
  (* Spans and histograms time through this clock; give them the same
     monotonic source bechamel measures with (Toolkit.Monotonic_clock
     wraps the clock_gettime(CLOCK_MONOTONIC) stubs, in ns). *)
  let clock_witness = Toolkit.Monotonic_clock.make () in
  Si_obs.Clock.set (fun () ->
      int_of_float (Toolkit.Monotonic_clock.get clock_witness));
  smoke := List.mem "--smoke" argv;
  Printf.printf "superimposed-information benchmarks (paper: ICDE 2001)%s\n"
    (if !smoke then " [smoke mode]" else "");
  space_report ();
  registry_report ();
  run_group ~name:"E3 store scaling (list vs indexed)" (store_scaling_tests ());
  run_group ~name:"E4 TRIM reachability views" (trim_view_tests ());
  run_group ~name:"E2 DMI vs native records" (dmi_overhead_tests ());
  run_group ~name:"ablation: generated vs hand-written DMI"
    (generated_dmi_tests ());
  run_group ~name:"F7 mark create/resolve per base type" (mark_tests ());
  run_group ~name:"F6 viewing behaviours" (behaviour_tests ());
  run_group ~name:"E6 model-to-model mapping" (mapping_tests ());
  run_group ~name:"E7 query vs navigation" (query_tests ());
  run_group ~name:"E10 compound-indexed query path" (compound_path_tests ());
  run_group ~name:"E10 concurrent store throughput"
    (concurrent_throughput_tests ());
  run_group ~name:"E10 early-terminating limit" (limit_tests ());
  run_group ~name:"E9 persistence & RDF serialization" (persistence_tests ());
  run_group ~name:"E11 resilient resolution under faults"
    (resilience_tests ());
  run_group ~name:"E12 journaled persistence: mutate+persist"
    (wal_mutation_tests ());
  run_group ~name:"E12 journaled persistence: recovery & compaction"
    (wal_recovery_tests ());
  run_group ~name:"application-level (ICU worksheet, 6 patients)"
    (application_tests ());
  run_group ~name:"E13 static analysis (full rule catalog)" (lint_tests ());
  run_group ~name:"substrate parsers" (substrate_tests ());
  run_group ~name:"E14 instrumentation overhead" (obs_overhead_tests ());
  snapshot_size_report ();
  run_group ~name:"E15 columnar store scaling" (columnar_scaling_tests ());
  run_group ~name:"E15 snapshot codec (binary vs XML)"
    (snapshot_codec_tests ());
  ship_lag_report ();
  run_group ~name:"E16 WAL shipping (append overhead, ship throughput)"
    (ship_overhead_tests ());
  run_group ~name:"E16 PITR restore vs archive depth" (restore_tests ());
  run_group ~name:"E17 pad server request RTT" (server_tests ());
  !e17_cleanup ();
  server_load_report ();
  run_group ~name:"E18 instrumented locking overhead"
    (check_overhead_tests ());
  Si_check.set_enabled false;
  Si_check.reset ();
  run_group ~name:"E19 capture bundle (capture/verify/apply)"
    (bundle_tests ());
  bundle_size_report ();
  Si_obs.Span.disable ();
  ignore (Si_obs.Span.drain ());
  (match json_path with Some path -> write_json path | None -> ());
  Printf.printf "\nbench: done\n"
