(* Tests for the workload generators (experiments F2, C1 and the ATC
   analogue). *)

module Desktop = Si_mark.Desktop
module Dmi = Si_slim.Dmi
module Slimpad = Si_slimpad.Slimpad
open Si_workload

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ ICU *)

let icu_app ?patients ?meds_per_patient ?labs_per_patient seed =
  let desk = Desktop.create () in
  let spec = Icu.build_desktop ?patients ?meds_per_patient ?labs_per_patient ~seed desk in
  let app = Slimpad.create desk in
  let pad = Icu.build_worksheet app spec in
  (app, spec, pad)

let test_icu_shape () =
  let app, spec, pad = icu_app ~patients:3 42 in
  let t = Slimpad.dmi app in
  let root = Dmi.root_bundle t pad in
  check_int "three patient bundles" 3 (List.length (Dmi.nested_bundles t root));
  check_int "three patients in spec" 3 (List.length (spec.Icu.patients));
  let patient = List.hd (Dmi.nested_bundles t root) in
  check "bundle named after patient"
    (List.hd spec.Icu.patients).Icu.name
    (Dmi.bundle_name t patient);
  (* Each patient bundle holds a nested Labs bundle. *)
  check_int "labs bundle" 1 (List.length (Dmi.nested_bundles t patient));
  let labs = List.hd (Dmi.nested_bundles t patient) in
  check_int "six lab scraps" 6 (List.length (Dmi.scraps t labs))

let test_icu_marks_resolve () =
  let app, _, pad = icu_app ~patients:2 7 in
  let scraps = Slimpad.find_scraps app pad "" in
  check_bool "plenty of scraps" true (List.length scraps > 10);
  (* Every scrap's mark resolves against the generated documents. *)
  List.iter
    (fun s ->
      match Slimpad.scrap_content app s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "scrap failed to resolve: %s" e)
    scraps

let test_icu_medication_marks () =
  let app, spec, pad = icu_app ~patients:2 ~meds_per_patient:2 11 in
  let patient = List.hd spec.Icu.patients in
  (* The medication scrap excerpt contains the patient's drugs from the
     shared workbook. *)
  let med_scrap =
    List.find
      (fun s ->
        match Slimpad.scrap_mark app s with
        | Some m -> m.Si_mark.Mark.mark_type = "excel"
        | None -> false)
      (Slimpad.find_scraps app pad "")
  in
  let content = ok (Slimpad.scrap_content app med_scrap) in
  check_bool "has patient name" true
    (let re = Re.compile (Re.str patient.Icu.name) in
     Re.execp re content)

let test_icu_deterministic () =
  let app1, _, pad1 = icu_app ~patients:3 99 in
  let app2, _, pad2 = icu_app ~patients:3 99 in
  check "same seed, same worksheet"
    (Slimpad.render_pad app1 pad1)
    (Slimpad.render_pad app2 pad2);
  let app3, _, pad3 = icu_app ~patients:3 100 in
  check_bool "different seed differs" true
    (Slimpad.render_pad app1 pad1 <> Slimpad.render_pad app3 pad3)

let test_icu_todos_annotated () =
  let app, _, pad = icu_app ~patients:2 5 in
  let t = Slimpad.dmi app in
  let todos = Slimpad.find_scraps app pad "TODO:" in
  check_bool "todo scraps exist" true (todos <> []);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) "annotated" [ "to-do" ]
        (Dmi.annotations t s))
    todos

let test_icu_valid_store () =
  let app, _, _ = icu_app ~patients:4 3 in
  check_int "conformant" 0
    (List.length
       (Dmi.validate (Slimpad.dmi app)).Si_metamodel.Validate.violations)

(* A resolve's select budget: finding a label costs the same number of
   triple selects on a 10-patient and a 60-patient worksheet, so a
   select per scrap or per bundle of the pad fails here. *)
let test_icu_find_select_budget () =
  let selects = Si_obs.Registry.counter "triple.select" in
  let selects_to_find patients =
    let app, _, pad = icu_app ~patients 21 in
    let t = Slimpad.dmi app in
    let last_patient =
      List.nth (Dmi.nested_bundles t (Dmi.root_bundle t pad)) (patients - 1)
    in
    let labs = List.hd (Dmi.nested_bundles t last_patient) in
    let target =
      Dmi.create_scrap t ~name:"Troponin 0.4" ~mark_id:"m" ~parent:labs ()
    in
    let before = Si_obs.Counter.get selects in
    let found = Slimpad.find_scraps app pad "Troponin" in
    let used = Si_obs.Counter.get selects - before in
    Alcotest.(check (list string))
      "found once" [ Dmi.scrap_id target ] (List.map Dmi.scrap_id found);
    used
  in
  let small = selects_to_find 10 and large = selects_to_find 60 in
  check_int "same selects at 10 and 60 patients" small large;
  (* The name select, the pad's root, the name re-read, the holding
     bundle, and one step up per bundle from the lab bundle. *)
  check_int "selects per find" 6 large

(* ---------------------------------------------------------- concordance *)

let test_concordance () =
  let desk = Desktop.create () in
  Concordance.install_play desk;
  let app = Slimpad.create desk in
  let pad = Concordance.build app ~terms:[ "sleep"; "death"; "dream" ] in
  let t = Slimpad.dmi app in
  let root = Dmi.root_bundle t pad in
  check_int "three term bundles" 3 (List.length (Dmi.nested_bundles t root));
  let sleep_bundle =
    List.find
      (fun b -> Dmi.bundle_name t b = "sleep")
      (Dmi.nested_bundles t root)
  in
  (* "sleep" appears 5 times in the soliloquy. *)
  check_int "five occurrences of sleep" 5
    (List.length (Dmi.scraps t sleep_bundle));
  (* Each scrap resolves to the term and knows its line. *)
  List.iter
    (fun s ->
      check "content is the term" "sleep" (ok (Slimpad.scrap_content app s));
      check_bool "label cites the line" true
        (let re = Re.compile (Re.str "(line ") in
         Re.execp re (Dmi.scrap_name t s)))
    (Dmi.scraps t sleep_bundle)

let test_concordance_missing_term () =
  let desk = Desktop.create () in
  Concordance.install_play desk;
  let app = Slimpad.create desk in
  let pad = Concordance.build app ~terms:[ "spaceship" ] in
  let t = Slimpad.dmi app in
  let bundle = List.hd (Dmi.nested_bundles t (Dmi.root_bundle t pad)) in
  check_int "empty bundle" 0 (List.length (Dmi.scraps t bundle))

let test_concordance_context () =
  (* Navigating a concordance entry shows the surrounding lines. *)
  let desk = Desktop.create () in
  Concordance.install_play desk;
  let app = Slimpad.create desk in
  let pad = Concordance.build app ~terms:[ "question" ] in
  let s = List.hd (Slimpad.find_scraps app pad "question") in
  let res = ok (Slimpad.double_click app s) in
  check_bool "context shows the famous line" true
    (let re = Re.compile (Re.str "To be, or not to be") in
     Re.execp re res.Si_mark.Mark.res_context)

(* ------------------------------------------------------------------ ATC *)

let test_atc () =
  let desk = Desktop.create () in
  let spec = Atc.build_desktop ~flights:10 ~seed:21 desk in
  let app = Slimpad.create desk in
  let pad = Atc.build_board app spec in
  let t = Slimpad.dmi app in
  let sectors = Dmi.nested_bundles t (Dmi.root_bundle t pad) in
  check_int "sector bundles" (List.length spec.Atc.sectors)
    (List.length sectors);
  let strip_count =
    List.fold_left (fun n b -> n + List.length (Dmi.scraps t b)) 0 sectors
  in
  check_int "all strips bundled" 10 strip_count;
  (* Every strip resolves to its flight's row. *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let content = ok (Slimpad.scrap_content app s) in
          check_bool "row starts with callsign" true
            (let re = Re.compile (Re.str (Dmi.scrap_name t s)) in
             Re.execp re content))
        (Dmi.scraps t b))
    sectors

let test_atc_deterministic () =
  let build seed =
    let desk = Desktop.create () in
    let spec = Atc.build_desktop ~seed desk in
    let app = Slimpad.create desk in
    let pad = Atc.build_board app spec in
    Slimpad.render_pad app pad
  in
  check "deterministic" (build 4) (build 4)

let suite =
  [
    ("icu: worksheet shape (F2)", `Quick, test_icu_shape);
    ("icu: all marks resolve", `Quick, test_icu_marks_resolve);
    ("icu: medication marks hit the workbook", `Quick,
     test_icu_medication_marks);
    ("icu: deterministic in seed", `Quick, test_icu_deterministic);
    ("icu: todos annotated", `Quick, test_icu_todos_annotated);
    ("icu: store conformant", `Quick, test_icu_valid_store);
    ("icu: find_scraps select budget", `Quick, test_icu_find_select_budget);
    ("concordance: per-term bundles (C1)", `Quick, test_concordance);
    ("concordance: missing term", `Quick, test_concordance_missing_term);
    ("concordance: context", `Quick, test_concordance_context);
    ("atc: sector board", `Quick, test_atc);
    ("atc: deterministic", `Quick, test_atc_deterministic);
  ]
