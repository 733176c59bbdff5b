(* Tests for the metamodel: model definition, generalization, instances,
   conformance validation. *)

open Si_metamodel
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Lookups through the compiled model, and one instance's share of the
   conformance report. *)
let constructs m = Model.constructs (Model.compile m)
let connectors m = Model.connectors (Model.compile m)

let connector_for m domain predicate =
  Model.connector_for (Model.compile m) domain predicate

let violations_of m inst =
  List.filter
    (fun v -> v.Validate.resource = inst)
    (Validate.check m).Validate.violations

(* A miniature relational model, as the paper's §4.3 example: "in the
   relational model, tables, attributes, keys and domains are constructs". *)
let relational trim =
  let m = Model.define trim ~name:"relational" in
  let table = Model.construct m "Table" in
  let attribute = Model.construct m "Attribute" in
  let string_ = Model.literal_construct m "String" in
  let _ =
    Model.connect m ~name:"tableName" ~from_:table ~to_:string_
      ~card:Model.one_card ()
  in
  let _ =
    Model.connect m ~name:"hasAttribute" ~from_:table ~to_:attribute
      ~card:Model.at_least_one ()
  in
  let _ =
    Model.connect m ~name:"attrName" ~from_:attribute ~to_:string_
      ~card:Model.one_card ()
  in
  (m, table, attribute, string_)

let test_define_idempotent () =
  let trim = Trim.create () in
  let m1 = Model.define trim ~name:"m" in
  let m2 = Model.define trim ~name:"m" in
  check "same id" (Model.id m1) (Model.id m2);
  check_int "one model" 1 (List.length (Model.all trim));
  check_bool "find" true (Model.find trim ~name:"m" <> None);
  check_bool "find missing" true (Model.find trim ~name:"nope" = None)

let test_two_models_coexist () =
  (* The flexibility claim: multiple superimposed models in one store. *)
  let trim = Trim.create () in
  let m1, _, _, _ = relational trim in
  let m2 = Model.define trim ~name:"topicmap" in
  let _ = Model.construct m2 "Topic" in
  check_int "two models" 2 (List.length (Model.all trim));
  check_int "relational constructs" 3 (List.length (constructs m1));
  check_int "topicmap constructs" 1 (List.length (constructs m2))

let test_constructs () =
  let trim = Trim.create () in
  let m, table, _, string_ = relational trim in
  check_bool "kinds" true
    (table.Model.kind = Model.Construct
    && string_.Model.kind = Model.Literal_construct);
  let mark = Model.mark_construct m "Mark" in
  check_bool "mark kind" true (mark.Model.kind = Model.Mark_construct);
  check "name" "Table" (Model.construct_name m table);
  check_bool "find" true (Model.find_construct m "Table" = Some table);
  check_bool "idempotent" true (Model.construct m "Table" = table);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Model: construct \"Table\" already exists with another kind")
    (fun () -> ignore (Model.literal_construct m "Table"))

let test_connectors () =
  let trim = Trim.create () in
  let m, table, attribute, string_ = relational trim in
  check_int "three connectors" 3 (List.length (connectors m));
  let conn = Option.get (connector_for m table "hasAttribute") in
  check_bool "range" true
    (conn.Model.conn_range.Model.construct_id = attribute.Model.construct_id);
  check_bool "card" true (conn.Model.card = Model.at_least_one);
  check_bool "absent connector" true
    (connector_for m attribute "hasAttribute" = None);
  (* Idempotent on (domain, name). *)
  let again =
    Model.connect m ~name:"hasAttribute" ~from_:table ~to_:string_ ()
  in
  check_bool "idempotent keeps original range" true
    (again.Model.conn_range.Model.construct_id = attribute.Model.construct_id)

let test_generalization () =
  let trim = Trim.create () in
  let m = Model.define trim ~name:"g" in
  let base = Model.construct m "Element" in
  let mid = Model.construct m "Container" in
  let leaf = Model.construct m "Bundle" in
  Model.generalize m ~sub:mid ~super:base;
  Model.generalize m ~sub:leaf ~super:mid;
  let cm = Model.compile m in
  Alcotest.(check (list string))
    "transitive" [ "Container"; "Element" ]
    (List.sort compare (List.map (Model.name_of cm) (Model.ancestors cm leaf)));
  Alcotest.(check (list string))
    "declared edges only" [ "Container" ]
    (List.map (Model.name_of cm) (Model.parents cm leaf));
  check_bool "reflexive" true (Model.is_a cm ~sub:leaf ~super:leaf);
  check_bool "transitive" true (Model.is_a cm ~sub:leaf ~super:base);
  check_bool "not reverse" false (Model.is_a cm ~sub:base ~super:leaf)

let test_generalization_cycle_safe () =
  let trim = Trim.create () in
  let m = Model.define trim ~name:"c" in
  let a = Model.construct m "A" in
  let b = Model.construct m "B" in
  Model.generalize m ~sub:a ~super:b;
  Model.generalize m ~sub:b ~super:a;
  (* Must terminate. *)
  check_int "supers of a" 1
    (List.length (Model.ancestors (Model.compile m) a))

let test_inherited_connectors () =
  let trim = Trim.create () in
  let m = Model.define trim ~name:"inh" in
  let base = Model.construct m "Named" in
  let leaf = Model.construct m "Scrap" in
  let string_ = Model.literal_construct m "String" in
  Model.generalize m ~sub:leaf ~super:base;
  let _ = Model.connect m ~name:"label" ~from_:base ~to_:string_ () in
  check_bool "inherited lookup" true
    (connector_for m leaf "label" <> None);
  check_int "applicable includes inherited" 1
    (List.length (Model.applicable (Model.compile m) leaf))

let test_instances () =
  let trim = Trim.create () in
  let m, table, _, _ = relational trim in
  let employees = Model.new_instance m table () in
  Model.set_property m employees "tableName" (Triple.literal "Employees");
  check "property" "Employees"
    (match Model.property m employees "tableName" with
    | Some (Triple.Literal s) -> s
    | _ -> "?");
  check_bool "typed" true
    (Model.instance_type trim employees = Some table.Model.construct_id);
  Alcotest.(check (list string))
    "instances_of" [ employees ]
    (Model.instances_of m table);
  (* set_property replaces. *)
  Model.set_property m employees "tableName" (Triple.literal "Staff");
  check_int "single value" 1
    (List.length (Model.properties m employees));
  (* add_property accumulates. *)
  Model.add_property m employees "note" (Triple.literal "a");
  Model.add_property m employees "note" (Triple.literal "b");
  check_int "multi-valued" 3 (List.length (Model.properties m employees))

let test_reserved_predicates_rejected () =
  let trim = Trim.create () in
  let m, table, _, _ = relational trim in
  let inst = Model.new_instance m table () in
  Alcotest.check_raises "rdf:type is reserved"
    (Invalid_argument "Model: \"rdf:type\" is a reserved metamodel predicate")
    (fun () -> Model.set_property m inst "rdf:type" (Triple.literal "x"))

let test_delete_instance () =
  let trim = Trim.create () in
  let m, table, attribute, _ = relational trim in
  let t = Model.new_instance m table () in
  let a = Model.new_instance m attribute () in
  Model.set_property m t "hasAttribute" (Triple.resource a);
  Model.set_property m a "attrName" (Triple.literal "id");
  let removed = Model.delete_instance m a in
  check_bool "removed outgoing and incoming" true (removed >= 3);
  check_bool "no dangling incoming" true
    (Trim.select ~object_:(Triple.resource a) trim = [])

let test_conformance_links () =
  let trim = Trim.create () in
  let m, table, _, _ = relational trim in
  let schema_table = Model.new_instance m table () in
  Model.conform m ~instance:"row-1" ~to_:schema_table;
  Alcotest.(check (list string))
    "conforms_to" [ schema_table ]
    (Model.conforms_to trim "row-1")

let test_describe () =
  let trim = Trim.create () in
  let m, _, _, _ = relational trim in
  let lines = String.split_on_char '\n' (Model_dsl.print m) in
  check_bool "mentions Table" true (List.mem "construct Table" lines);
  check_bool "mentions cardinality" true
    (List.mem "Table.hasAttribute : Attribute [1..*]" lines)

(* ---------------------------------------------------------- validation *)

let valid_world () =
  let trim = Trim.create () in
  let m, table, attribute, _ = relational trim in
  let t = Model.new_instance m table () in
  let a = Model.new_instance m attribute () in
  Model.set_property m t "tableName" (Triple.literal "Employees");
  Model.set_property m t "hasAttribute" (Triple.resource a);
  Model.set_property m a "attrName" (Triple.literal "id");
  (trim, m, table, attribute, t, a)

let test_validate_ok () =
  let _, m, _, _, _, _ = valid_world () in
  let report = Validate.check m in
  check_int "checked" 2 report.Validate.checked;
  check_bool "valid" true (Validate.is_valid m)

let test_validate_unknown_property () =
  let _, m, _, _, t, _ = valid_world () in
  Model.set_property m t "frobnicate" (Triple.literal "x");
  let vs = violations_of m t in
  check_int "one violation" 1 (List.length vs);
  check_bool "names predicate" true
    ((List.hd vs).Validate.predicate = Some "frobnicate")

let test_validate_range_literal_vs_resource () =
  let _, m, _, _, t, a = valid_world () in
  (* Literal where a resource is required. *)
  Model.add_property m t "hasAttribute" (Triple.literal "not-a-ref");
  (* Resource where a literal is required. *)
  Model.set_property m a "attrName" (Triple.resource t);
  let report = Validate.check m in
  check_int "two violations" 2 (List.length report.Validate.violations)

let test_validate_wrong_construct () =
  let _, m, table, _, t, _ = valid_world () in
  let other = Model.new_instance m table () in
  Model.set_property m other "tableName" (Triple.literal "Other");
  (* hasAttribute must point at an Attribute, not a Table... *)
  Model.add_property m t "hasAttribute" (Triple.resource other);
  let vs = violations_of m t in
  check_int "one violation" 1 (List.length vs)

let test_validate_dangling () =
  let _, m, _, _, t, _ = valid_world () in
  Model.add_property m t "hasAttribute" (Triple.resource "ghost");
  let vs = violations_of m t in
  check_int "dangling" 1 (List.length vs)

let test_validate_cardinality () =
  let trim = Trim.create () in
  let m, table, _, _ = relational trim in
  let t = Model.new_instance m table () in
  (* Missing tableName [1..1] and hasAttribute [1..many]. *)
  let vs = violations_of m t in
  check_int "two too-few" 2 (List.length vs);
  Model.set_property m t "tableName" (Triple.literal "A");
  Model.add_property m t "tableName" (Triple.literal "B") |> ignore;
  let vs = violations_of m t in
  (* Now: tableName has 2 values (max 1) and hasAttribute still missing. *)
  check_int "too-many + too-few" 2 (List.length vs)

let test_validate_subconstruct_accepted () =
  let trim = Trim.create () in
  let m = Model.define trim ~name:"sub" in
  let element = Model.construct m "Element" in
  let bundle = Model.construct m "Bundle" in
  let pad = Model.construct m "Pad" in
  Model.generalize m ~sub:bundle ~super:element;
  let _ =
    Model.connect m ~name:"holds" ~from_:pad ~to_:element ~card:Model.any_card ()
  in
  let p = Model.new_instance m pad () in
  let b = Model.new_instance m bundle () in
  Model.set_property m p "holds" (Triple.resource b);
  check_bool "subconstruct satisfies range" true (Validate.is_valid m)

let test_validate_lower_bounds () =
  let trim = Trim.create () in
  let m, table, attribute, _ = relational trim in
  let t = Model.new_instance m table () in
  (* Zero facts on tableName [1..1] and hasAttribute [1..*]: both lower
     bounds are reported, each naming its predicate and shortfall. *)
  let vs = violations_of m t in
  let names = List.filter_map (fun v -> v.Validate.predicate) vs in
  check_bool "tableName [1..1] reported" true (List.mem "tableName" names);
  check_bool "hasAttribute [1..*] reported" true (List.mem "hasAttribute" names);
  check_bool "problems count the shortfall" true
    (List.for_all
       (fun v ->
         let re = Re.compile (Re.str "0 value(s), at least 1 required") in
         Re.execp re v.Validate.problem)
       vs);
  (* Exactly the lower bound satisfies both. *)
  let a = Model.new_instance m attribute () in
  Model.set_property m a "attrName" (Triple.literal "id");
  Model.set_property m t "tableName" (Triple.literal "T");
  Model.set_property m t "hasAttribute" (Triple.resource a);
  check_int "bounds met" 0 (List.length (violations_of m t));
  (* [1..*] is unbounded above: more values stay fine. *)
  let b = Model.new_instance m attribute () in
  Model.set_property m b "attrName" (Triple.literal "name");
  Model.add_property m t "hasAttribute" (Triple.resource b);
  check_int "unbounded above" 0 (List.length (violations_of m t))

let test_validate_inherited_lower_bound () =
  (* A connector declared on a superconstruct binds instances of the
     subconstruct: Table.tableName [1..1] applies to a View. *)
  let trim = Trim.create () in
  let m, table, _, string_ = relational trim in
  let view = Model.construct m "View" in
  Model.generalize m ~sub:view ~super:table;
  let _ =
    Model.connect m ~name:"definition" ~from_:view ~to_:string_
      ~card:Model.one_card ()
  in
  let v = Model.new_instance m view () in
  let vs = violations_of m v in
  let names = List.filter_map (fun x -> x.Validate.predicate) vs in
  check_bool "inherited tableName missing" true (List.mem "tableName" names);
  check_bool "inherited hasAttribute missing" true
    (List.mem "hasAttribute" names);
  check_bool "own definition missing" true (List.mem "definition" names);
  check_int "three lower bounds" 3 (List.length vs)

let test_validate_batch_lower_bounds () =
  (* The batch path reports every under-populated instance, once each. *)
  let trim = Trim.create () in
  let m, table, attribute, _ = relational trim in
  let _t1 = Model.new_instance m table () in
  let _t2 = Model.new_instance m table () in
  let _a = Model.new_instance m attribute () in
  let report = Validate.check m in
  check_int "instances checked" 3 report.Validate.checked;
  (* Two per empty Table (tableName, hasAttribute), one per empty
     Attribute (attrName). *)
  check_int "violations" 5 (List.length report.Validate.violations);
  check_bool "not valid" false (Validate.is_valid m);
  check "report text"
    "3 instance(s) checked, 5 violation(s)\n\
    \  <attribute-3>.attrName: 0 value(s), at least 1 required\n\
    \  <table-1>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <table-1>.tableName: 0 value(s), at least 1 required\n\
    \  <table-2>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <table-2>.tableName: 0 value(s), at least 1 required\n"
    (Validate.report_to_string report);
  (* One seeded defect of every kind the checker reports, plus the
     cases it must accept, pinned as the full report text. *)
  let view = Model.construct m "View" in
  Model.generalize m ~sub:view ~super:table;
  let _ =
    Model.connect m ~name:"ofTable" ~from_:attribute ~to_:table
      ~card:Model.optional_card ()
  in
  let other = Model.define trim ~name:"other" in
  let foreign =
    Model.new_instance other (Model.construct other "Foreign") ~id:"f1" ()
  in
  let inst c id = Model.new_instance m c ~id () in
  let lit = Triple.literal and res = Triple.resource in
  let t1 = inst table "t1" and a1 = inst attribute "a1" in
  let v1 = inst view "v1" and t2 = inst table "t2" and t3 = inst table "t3" in
  Model.set_property m t1 "tableName" (lit "T1");
  Model.add_property m t1 "hasAttribute" (res a1);
  Model.add_property m t1 "frobnicate" (lit "x");
  Model.add_property m t1 "hasAttribute" (lit "not-a-ref");
  Model.add_property m t1 "hasAttribute" (res "ghost");
  Model.add_property m t1 "hasAttribute" (res foreign);
  Model.add_property m t1 "hasAttribute" (res t2);
  Model.set_property m a1 "attrName" (res t1);
  (* A View is a Table: ofTable accepts it. *)
  Model.set_property m a1 "ofTable" (res v1);
  Model.set_property m v1 "tableName" (lit "V");
  Model.set_property m v1 "hasAttribute" (res a1);
  Model.set_property m t3 "tableName" (lit "A");
  Model.add_property m t3 "tableName" (lit "B");
  ignore t2;
  check "defects report"
    "8 instance(s) checked, 15 violation(s)\n\
    \  <a1>.attrName: expected a literal String, found resource <t1>\n\
    \  <attribute-3>.attrName: 0 value(s), at least 1 required\n\
    \  <t1>.hasAttribute: expected a Attribute, found a Table (<t2>)\n\
    \  <t1>.hasAttribute: <f1> is typed outside this model\n\
    \  <t1>.hasAttribute: dangling reference to <ghost>\n\
    \  <t1>.hasAttribute: expected a Attribute resource, found literal \
     \"not-a-ref\"\n\
    \  <t1>.frobnicate: no connector \"frobnicate\" on construct Table (or \
     its supertypes)\n\
    \  <t2>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <t2>.tableName: 0 value(s), at least 1 required\n\
    \  <t3>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <t3>.tableName: 2 value(s), at most 1 allowed\n\
    \  <table-1>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <table-1>.tableName: 0 value(s), at least 1 required\n\
    \  <table-2>.hasAttribute: 0 value(s), at least 1 required\n\
    \  <table-2>.tableName: 0 value(s), at least 1 required\n"
    (Validate.report_to_string (Validate.check m));
  (* A generalization cycle: each end inherits the other's connectors,
     and checking terminates. *)
  let cyc = Model.define trim ~name:"cyc" in
  let a = Model.construct cyc "A" and b = Model.construct cyc "B" in
  let str = Model.literal_construct cyc "String" in
  Model.generalize cyc ~sub:a ~super:b;
  Model.generalize cyc ~sub:b ~super:a;
  let _ =
    Model.connect cyc ~name:"label" ~from_:a ~to_:str ~card:Model.one_card ()
  in
  let _ =
    Model.connect cyc ~name:"peer" ~from_:b ~to_:a ~card:Model.optional_card ()
  in
  let x = Model.new_instance cyc a ~id:"x" () in
  let y = Model.new_instance cyc b ~id:"y" () in
  Model.add_property cyc x "peer" (res y);
  Model.add_property cyc x "peer" (res x);
  Model.set_property cyc y "label" (lit "y");
  check "cycle report"
    "2 instance(s) checked, 2 violation(s)\n\
    \  <x>.label: 0 value(s), at least 1 required\n\
    \  <x>.peer: 2 value(s), at most 1 allowed\n"
    (Validate.report_to_string (Validate.check cyc))

let test_report_rendering () =
  let _, m, _, _, t, _ = valid_world () in
  Model.set_property m t "bogus" (Triple.literal "x");
  let text = Validate.report_to_string (Validate.check m) in
  check_bool "mentions count" true
    (String.length text > 0
    && String.sub text 0 1 = "2" (* "2 instance(s) checked..." *));
  check_bool "mentions predicate" true
    (let re = Re.compile (Re.str "bogus") in
     Re.execp re text)

let test_malformed_cardinality_dropped () =
  (* A connector whose cardinality literal is not an integer is dropped
     like a dangling one: nothing that reads the model raises. *)
  let trim = Trim.create () in
  let m, table, _, _ = relational trim in
  let table_name =
    List.find
      (fun c -> c.Model.conn_predicate = "tableName")
      (connectors m)
  in
  Trim.set trim ~subject:table_name.Model.connector_id
    ~predicate:Vocab.min_card (Triple.literal "one");
  check_int "dropped" 2 (List.length (connectors m));
  let t = Model.new_instance m table ~id:"t" () in
  Model.set_property m t "tableName" (Triple.literal "T");
  Alcotest.(check (list string))
    "checked without it"
    [
      "no connector \"tableName\" on construct Table (or its supertypes)";
      "0 value(s), at least 1 required";
    ]
    (List.map (fun v -> v.Validate.problem) (violations_of m t));
  check_bool "printed without it" false
    (List.mem "Table.tableName : String [1..1]"
       (String.split_on_char '\n' (Model_dsl.print m)));
  let g = Si_slim.Generic_dmi.for_model m in
  check_bool "no generated update" false
    (List.mem "Update_Table_tableName" (Si_slim.Generic_dmi.operations g))

(* ------------------------------------------------------ SLIM-ML DSL *)

let library_dsl =
  "model library\n\
   # a catalogue\n\
   literal String\n\
   construct Book\n\
   construct Reference\n\
   mark Citation\n\
   \n\
   Reference isa Book\n\
   \n\
   Book.title : String [1..1]\n\
   Book.writtenBy : Author [0..*]\n\
   Reference.shelf : String [0..1]\n\
   Author.name : String [1..1]\n"

let test_dsl_parse () =
  let trim = Trim.create () in
  let m =
    match Model_dsl.parse trim library_dsl with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  check "name" "library" (Model.name m);
  (* Author was declared implicitly by its property lines. *)
  check_int "constructs" 5 (List.length (constructs m));
  let book = Option.get (Model.find_construct m "Book") in
  let reference = Option.get (Model.find_construct m "Reference") in
  let citation = Option.get (Model.find_construct m "Citation") in
  check_bool "kinds" true
    (citation.Model.kind = Model.Mark_construct
    && (Option.get (Model.find_construct m "String")).Model.kind
       = Model.Literal_construct);
  check_bool "generalization" true
    (Model.is_a (Model.compile m) ~sub:reference ~super:book);
  let title = Option.get (connector_for m book "title") in
  check_bool "cardinality" true (title.Model.card = Model.one_card);
  check_bool "inherited property usable" true
    (connector_for m reference "title" <> None)

let test_dsl_default_cardinality () =
  let trim = Trim.create () in
  let m =
    match Model_dsl.parse trim "model m\nA.knows : A\n" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let a = Option.get (Model.find_construct m "A") in
  let knows = Option.get (connector_for m a "knows") in
  check_bool "defaults to 0..*" true (knows.Model.card = Model.any_card)

let test_dsl_errors () =
  let fails text expected_line =
    match Model_dsl.parse (Trim.create ()) text with
    | Ok _ -> Alcotest.failf "expected parse failure on %S" text
    | Error msg ->
        check_bool
          (Printf.sprintf "%S mentions line %d" text expected_line)
          true
          (let re =
             Re.compile (Re.str (Printf.sprintf "line %d" expected_line))
           in
           Re.execp re msg || expected_line = 0)
  in
  fails "" 0;
  fails "construct X\n" 0 (* no model line *);
  fails "model m\nmodel n\n" 0 (* duplicate model *);
  fails "model m\nbogus line here\n" 2;
  fails "model m\nA.p : B [1..x]\n" 2;
  fails "model m\nA.p : B [3..1]\n" 2;
  fails "model m\n123bad : C\n" 2

let test_dsl_print_roundtrip () =
  let trim = Trim.create () in
  let m =
    match Model_dsl.parse trim library_dsl with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let printed = Model_dsl.print m in
  let trim2 = Trim.create () in
  let m2 =
    match Model_dsl.parse trim2 printed with
    | Ok m -> m
    | Error e -> Alcotest.failf "reparse failed: %s\n%s" e printed
  in
  check_int "same constructs" (List.length (constructs m))
    (List.length (constructs m2));
  check_int "same connectors" (List.length (connectors m))
    (List.length (connectors m2));
  (* Printing the reparse is a fixed point. *)
  check "fixed point" printed (Model_dsl.print m2)

let test_dsl_drives_generic_dmi () =
  (* The full §4.4 pipeline: DSL text -> model -> generated DMI -> data ->
     validation. *)
  let trim = Trim.create () in
  let m =
    match Model_dsl.parse trim library_dsl with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let g = Si_slim.Generic_dmi.for_model m in
  let book = Result.get_ok (Si_slim.Generic_dmi.create g "Book") in
  (match
     Si_slim.Generic_dmi.set g book "title"
       (Si_triple.Triple.literal "Cognition in the Wild")
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let author = Result.get_ok (Si_slim.Generic_dmi.create g "Author") in
  (match
     Si_slim.Generic_dmi.set g author "name"
       (Si_triple.Triple.literal "Hutchins")
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Si_slim.Generic_dmi.add g book "writtenBy"
       (Si_triple.Triple.resource author)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "valid" 0
    (List.length (Validate.check m).Validate.violations)

(* Property: models survive TRIM persistence (model = data). *)
let prop_model_persists =
  QCheck.Test.make ~name:"model definitions survive XML persistence" ~count:50
    QCheck.(int_range 1 8)
    (fun n ->
      let trim = Trim.create () in
      let m = Model.define trim ~name:"p" in
      let string_ = Model.literal_construct m "String" in
      let cs =
        List.init n (fun i -> Model.construct m (Printf.sprintf "C%d" i))
      in
      List.iter
        (fun c ->
          ignore (Model.connect m ~name:"label" ~from_:c ~to_:string_ ()))
        cs;
      match Trim.of_xml (Trim.to_xml trim) with
      | Error _ -> false
      | Ok trim2 -> (
          match Model.find trim2 ~name:"p" with
          | None -> false
          | Some m2 ->
              List.length (constructs m2)
              = List.length (constructs m)
              && List.length (connectors m2) = n))

(* Property: parse -> print -> parse is a fixed point of the DSL,
   through implicit construct declarations (constructs first mentioned
   in isa or property lines, in any order), comments, and every
   cardinality form. The printer declares every construct explicitly
   and derives isa lines from the direct (not transitive)
   generalization edges, so the printed text must reparse to the same
   model and reprint identically. *)
let prop_dsl_roundtrip =
  QCheck.Test.make ~name:"dsl parse/print round-trip" ~count:100
    QCheck.(pair (int_range 2 7) (int_bound 1_000_000))
    (fun (n, salt) ->
      (* A little deterministic LCG on the salt keeps the case shape a
         pure function of the QCheck input (shrinkable, replayable). *)
      let state = ref (salt + 1) in
      let rand bound =
        state := !state * 48271 mod 0x7fffffff;
        !state mod bound
      in
      let buf = Buffer.create 256 in
      let line fmt =
        Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
      in
      line "model roundtrip";
      line "# generated case %d/%d" n salt;
      line "literal String";
      for i = 0 to n - 1 do
        match rand 3 with
        | 0 -> line "construct C%d" i
        | 1 -> line "mark K%d" i
        | _ -> () (* left implicit: a later mention creates it *)
      done;
      line "";
      (* Acyclic generalization, edges pointing at lower indices; either
         end may still be undeclared at this point. *)
      for i = 1 to n - 1 do
        if rand 2 = 0 then line "C%d isa C%d" i (rand i)
      done;
      let cards =
        [| ""; " [0..1]"; " [1..1]"; " [0..*]"; " [1..*]"; " [2..5]" |]
      in
      for i = 0 to n - 1 do
        if rand 3 > 0 then
          line "C%d.p%d : String%s" i i cards.(rand (Array.length cards));
        if rand 2 = 0 then
          line "C%d.ref%d : C%d%s # a reference" i i (rand n)
            cards.(rand (Array.length cards))
      done;
      let text = Buffer.contents buf in
      match Model_dsl.parse (Trim.create ()) text with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s\n%s" e text
      | Ok m -> (
          let printed = Model_dsl.print m in
          match Model_dsl.parse (Trim.create ()) printed with
          | Error e ->
              QCheck.Test.fail_reportf "reparse failed: %s\n%s" e printed
          | Ok m2 ->
              List.length (constructs m2)
              = List.length (constructs m)
              && List.length (connectors m2)
                 = List.length (connectors m)
              && Model_dsl.print m2 = printed))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_model_persists; prop_dsl_roundtrip ]

let suite =
  [
    ("define is idempotent", `Quick, test_define_idempotent);
    ("two models coexist", `Quick, test_two_models_coexist);
    ("constructs", `Quick, test_constructs);
    ("connectors", `Quick, test_connectors);
    ("generalization", `Quick, test_generalization);
    ("generalization cycle-safe", `Quick, test_generalization_cycle_safe);
    ("inherited connectors", `Quick, test_inherited_connectors);
    ("instances & properties", `Quick, test_instances);
    ("reserved predicates rejected", `Quick, test_reserved_predicates_rejected);
    ("delete_instance", `Quick, test_delete_instance);
    ("conformance links", `Quick, test_conformance_links);
    ("describe", `Quick, test_describe);
    ("validate: clean model", `Quick, test_validate_ok);
    ("validate: unknown property", `Quick, test_validate_unknown_property);
    ("validate: literal/resource mismatch", `Quick,
     test_validate_range_literal_vs_resource);
    ("validate: wrong construct", `Quick, test_validate_wrong_construct);
    ("validate: dangling reference", `Quick, test_validate_dangling);
    ("validate: cardinality", `Quick, test_validate_cardinality);
    ("validate: subconstruct accepted", `Quick,
     test_validate_subconstruct_accepted);
    ("validate: lower bounds", `Quick, test_validate_lower_bounds);
    ("validate: inherited lower bound", `Quick,
     test_validate_inherited_lower_bound);
    ("validate: batch lower bounds", `Quick, test_validate_batch_lower_bounds);
    ("report rendering", `Quick, test_report_rendering);
    ("validate: malformed cardinality dropped", `Quick,
     test_malformed_cardinality_dropped);
    ("dsl: parse", `Quick, test_dsl_parse);
    ("dsl: default cardinality", `Quick, test_dsl_default_cardinality);
    ("dsl: errors carry line numbers", `Quick, test_dsl_errors);
    ("dsl: print round-trip", `Quick, test_dsl_print_roundtrip);
    ("dsl: drives the generated DMI", `Quick, test_dsl_drives_generic_dmi);
  ]
  @ props
