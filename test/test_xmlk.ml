(* Tests for the XML kit: parser, printer, paths. *)

open Si_xmlk

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node_testable = Alcotest.testable Node.pp Node.equal

let parse s =
  match Parse.node s with
  | Ok n -> n
  | Error e -> Alcotest.failf "parse failed: %s" (Parse.error_to_string e)

let parse_fails s =
  match Parse.node s with
  | Ok _ -> Alcotest.failf "expected parse failure on %S" s
  | Error _ -> ()

(* -------------------------------------------------------------- parsing *)

let test_parse_minimal () =
  let n = parse "<a/>" in
  Alcotest.check node_testable "self-closing" (Node.element "a" []) n

let test_parse_nested () =
  let n = parse "<a><b><c>hi</c></b><b/></a>" in
  Alcotest.check node_testable "nested"
    (Node.element "a"
       [
         Node.element "b" [ Node.element "c" [ Node.text "hi" ] ];
         Node.element "b" [];
       ])
    n

let test_parse_attrs () =
  let n = parse {|<x id="1" name='two &amp; three'/>|} in
  check "id" "1" (Node.attr_exn "id" n);
  check "name" "two & three" (Node.attr_exn "name" n)

let test_parse_entities () =
  let n = parse "<t>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</t>" in
  check "entities" "<>&'\"AB" (Node.text_content n)

let test_parse_numeric_utf8 () =
  let n = parse "<t>&#233;&#x20AC;</t>" in
  check "utf8" "\xC3\xA9\xE2\x82\xAC" (Node.text_content n)

let test_parse_cdata () =
  let n = parse "<t><![CDATA[<raw> & unescaped]]></t>" in
  check "cdata" "<raw> & unescaped" (Node.text_content n)

let test_parse_comment_kept () =
  let n = parse "<t><!-- note --><x/></t>" in
  check_int "children" 2 (List.length (Node.children n))

let test_parse_prolog () =
  let n =
    parse
      "<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n<!-- c -->\n<r/>"
  in
  check "root" "r" (Option.get (Node.name n))

let test_parse_pi () =
  let n = parse "<t><?target some content?></t>" in
  match Node.children n with
  | [ Node.Pi (t, c) ] ->
      check "target" "target" t;
      check "content" "some content" c
  | _ -> Alcotest.fail "expected a PI child"

let test_parse_whitespace_text () =
  let n = parse "<a>\n  <b/>\n</a>" in
  check_int "raw children" 3 (List.length (Node.children n));
  let stripped = Node.strip_whitespace n in
  check_int "stripped" 1 (List.length (Node.children stripped))

let test_parse_errors () =
  parse_fails "";
  parse_fails "<a>";
  parse_fails "<a></b>";
  parse_fails "<a><b></a></b>";
  parse_fails "<a attr></a>";
  parse_fails "<a>&unknown;</a>";
  parse_fails "<a/><b/>";
  parse_fails "just text"

let test_parse_error_position () =
  match Parse.node "<a>\n<b>\n</c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e -> check_int "line" 3 e.line

(* Line:column of the errors a reader hits mid-value, pinned as the
   character-at-a-time reader reported them. *)
let test_parse_error_positions_pinned () =
  let error_at s =
    match Parse.node s with
    | Ok _ -> Alcotest.failf "expected failure on %S" s
    | Error e -> Printf.sprintf "%d:%d %s" e.line e.column e.message
  in
  check "attribute value" "3:5 unterminated attribute value"
    (error_at "<a>\n  <b k=\"abc/>\n</a>");
  check "attribute value after an entity" "3:5 unterminated attribute value"
    (error_at "<a>\n  <b k='abc&amp;def/>\n</a>");
  check "entity in text" "2:6 unterminated, expected \";\""
    (error_at "<a>\n  x &amp y\n</a>");
  check "entity in attribute" "2:9 unterminated, expected \";\""
    (error_at "<a>\n <b k=\"&lt\"/></a>");
  check "comment" "2:7 unterminated, expected \"-->\""
    (error_at "<a>\n  <!-- no end\n</a>");
  check "unknown entity" "1:12 unknown entity &bogus;"
    (error_at "<a>x&bogus;y</a>");
  check "past U+10FFFF" "1:14 unknown entity &#x110000;"
    (error_at "<a>&#x110000;</a>")

(* XML 1.0 [Char]: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
   [#x10000-#x10FFFF]. A character reference must name one of those. *)
let test_parse_char_refs_must_be_xml_chars () =
  List.iter
    (fun (ref_, utf8) ->
      check ref_ utf8 (Node.text_content (parse ("<a>" ^ ref_ ^ "</a>")));
      check (ref_ ^ " in an attribute") utf8
        (Node.attr_exn "k" (parse ("<a k=\"" ^ ref_ ^ "\"/>"))))
    [
      ("&#9;", "\t");
      ("&#xA;", "\n");
      ("&#xD;", "\r");
      ("&#x20;", " ");
      ("&#xD7FF;", "\xED\x9F\xBF");
      ("&#xE000;", "\xEE\x80\x80");
      ("&#xFFFD;", "\xEF\xBF\xBD");
      ("&#x10000;", "\xF0\x90\x80\x80");
      ("&#x10FFFF;", "\xF4\x8F\xBF\xBF");
    ];
  List.iter
    (fun ref_ ->
      List.iter
        (fun doc ->
          match Parse.node doc with
          | Ok _ -> Alcotest.failf "accepted %S" doc
          | Error e ->
              check doc
                (Printf.sprintf "%s does not name an XML character" ref_)
                e.message)
        [ "<a>" ^ ref_ ^ "</a>"; "<a k='" ^ ref_ ^ "'/>" ])
    [ "&#0;"; "&#x1;"; "&#8;"; "&#x1F;"; "&#xD800;"; "&#xDFFF;"; "&#xFFFE;";
      "&#xFFFF;" ]

let test_parse_entity_placement () =
  let text s = Node.text_content (parse ("<t>" ^ s ^ "</t>")) in
  check "text: start" "<ab" (text "&lt;ab");
  check "text: middle" "a&b" (text "a&amp;b");
  check "text: end" "ab>" (text "ab&gt;");
  check "text: only entities" "\"'" (text "&quot;&apos;");
  let attr q s = Node.attr_exn "k" (parse ("<t k=" ^ q ^ s ^ q ^ "/>")) in
  List.iter
    (fun q ->
      check ("attr: start " ^ q) "<ab" (attr q "&lt;ab");
      check ("attr: middle " ^ q) "a&b" (attr q "a&amp;b");
      check ("attr: end " ^ q) "ab>" (attr q "ab&gt;");
      check ("attr: only an entity " ^ q) "A" (attr q "&#65;");
      check ("attr: empty " ^ q) "" (attr q ""))
    [ "\""; "'" ]

let test_parse_angles_in_attrs () =
  let n = parse {|<t d="a<b>c" s='x<y>z' mix="it's" quo='say "hi"'/>|} in
  check "double-quoted" "a<b>c" (Node.attr_exn "d" n);
  check "single-quoted" "x<y>z" (Node.attr_exn "s" n);
  check "apostrophe inside double quotes" "it's" (Node.attr_exn "mix" n);
  check "quotes inside single quotes" {|say "hi"|} (Node.attr_exn "quo" n)

let test_parse_whitespace_runs_kept () =
  let n = parse "<a> <b/>\t\n<c/>  </a>" in
  Alcotest.(check (list node_testable))
    "whitespace-only runs are Text nodes"
    [
      Node.text " ";
      Node.element "b" [];
      Node.text "\t\n";
      Node.element "c" [];
      Node.text "  ";
    ]
    (Node.children n)

let test_parse_mismatch_message () =
  match Parse.node "<a></b>" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
      let contains sub =
        let re = Re.compile (Re.str sub) in
        Re.execp re e.message
      in
      check_bool "mentions both tags" true
        (contains "<a>" && contains "</b>")

let test_fragment () =
  match Parse.fragment "<a/>text<b/>" with
  | Ok [ Node.Element _; Node.Text "text"; Node.Element _ ] -> ()
  | Ok _ -> Alcotest.fail "wrong fragment shape"
  | Error e -> Alcotest.fail (Parse.error_to_string e)

(* ------------------------------------------------------------- printing *)

let test_print_compact () =
  let n =
    Node.element "a"
      ~attrs:[ ("k", "v\"w") ]
      [ Node.text "x<y"; Node.element "b" [] ]
  in
  check "compact" {|<a k="v&quot;w">x&lt;y<b/></a>|} (Print.to_string n)

let test_print_decl () =
  let s = Print.to_string ~decl:true (Node.element "a" []) in
  check_bool "has decl" true (String.length s > 5 && String.sub s 0 5 = "<?xml")

let test_pretty_roundtrip () =
  let n =
    Node.element "root"
      [
        Node.element "inline" [ Node.text "only text" ];
        Node.element "nested" [ Node.element "x" []; Node.element "y" [] ];
      ]
  in
  let reparsed = Node.strip_whitespace (parse (Print.to_string_pretty n)) in
  Alcotest.check node_testable "pretty round trip" n reparsed

(* ----------------------------------------------------------- accessors *)

let sample =
  Node.element "report"
    ~attrs:[ ("date", "2001-03-01") ]
    [
      Node.element "patient" [ Node.text "John Smith" ];
      Node.element "panel"
        ~attrs:[ ("name", "electrolytes") ]
        [
          Node.element "result" ~attrs:[ ("units", "mmol/L") ]
            [ Node.text "140" ];
          Node.element "result" ~attrs:[ ("units", "mmol/L") ]
            [ Node.text "4.2" ];
        ];
      Node.element "panel" ~attrs:[ ("name", "cbc") ] [];
    ]

let test_accessors () =
  check_int "size" 9 (Node.size sample);
  check_int "depth" 4 (Node.depth sample);
  check_int "descendant elements" 6
    (List.length (Node.descendant_elements sample));
  check "text" "John Smith1404.2" (Node.text_content sample);
  check_int "panels" 2 (List.length (Node.find_children "panel" sample));
  check_bool "missing child" true (Node.find_child "nope" sample = None)

let test_set_attr () =
  let n = Node.set_attr "date" "2001-04-01" sample in
  check "replaced" "2001-04-01" (Node.attr_exn "date" n);
  let n2 = Node.set_attr "new" "v" sample in
  check "added" "v" (Node.attr_exn "new" n2)

let test_equal_attr_order () =
  let a = Node.element "x" ~attrs:[ ("a", "1"); ("b", "2") ] [] in
  let b = Node.element "x" ~attrs:[ ("b", "2"); ("a", "1") ] [] in
  check_bool "attr order irrelevant" true (Node.equal a b)

(* ---------------------------------------------------------------- paths *)

let path_testable = Alcotest.testable Path.pp Path.equal

let test_path_parse_print () =
  let cases =
    [
      "/report";
      "/report/panel[2]";
      "/report/panel[2]/result";
      "/report/panel/@name";
      "/report/patient/text()";
      "/*/panel";
    ]
  in
  List.iter
    (fun s -> check ("roundtrip " ^ s) s (Path.to_string (Path.of_string_exn s)))
    cases

let test_path_parse_normalizes_index_one () =
  Alcotest.check path_testable "x[1] = x"
    (Path.of_string_exn "/a/b")
    (Path.of_string_exn "/a[1]/b[1]")

let test_path_parse_errors () =
  let fails s =
    match Path.of_string s with
    | Ok _ -> Alcotest.failf "expected path error on %S" s
    | Error _ -> ()
  in
  fails "";
  fails "relative/path";
  fails "/";
  fails "/a[0]";
  fails "/a[x]";
  fails "/a[2";
  fails "/@attr";
  fails "/text()"

let resolve_text s =
  match Path.resolve sample (Path.of_string_exn s) with
  | Some (Path.Resolved_element n) -> Node.text_content n
  | Some (Path.Resolved_text t) -> t
  | Some (Path.Resolved_attribute (_, v)) -> v
  | None -> Alcotest.failf "did not resolve %s" s

let test_path_resolve () =
  check "first result" "140" (resolve_text "/report/panel/result");
  check "second result" "4.2" (resolve_text "/report/panel[1]/result[2]");
  check "attribute" "cbc" (resolve_text "/report/panel[2]/@name");
  check "text()" "John Smith" (resolve_text "/report/patient/text()");
  check "wildcard root" "John Smith" (resolve_text "/*/patient")

let test_path_resolve_missing () =
  let missing s = Path.resolve sample (Path.of_string_exn s) = None in
  check_bool "bad root" true (missing "/nope");
  check_bool "bad index" true (missing "/report/panel[3]");
  check_bool "bad attr" true (missing "/report/panel/@nope");
  check_bool "root index >1" true (missing "/report[2]")

let test_path_of () =
  let target =
    List.nth (Node.children (Option.get (Node.find_child "panel" sample))) 1
  in
  match Path.path_of ~root:sample target with
  | None -> Alcotest.fail "path_of failed"
  | Some p ->
      check "computed path" "/report/panel/result[2]" (Path.to_string p);
      (match Path.resolve_element sample p with
      | Some n -> check_bool "resolves back" true (n == target)
      | None -> Alcotest.fail "computed path did not resolve")

let test_path_of_foreign_node () =
  let foreign = Node.element "alien" [] in
  check_bool "foreign not found" true
    (Path.path_of ~root:sample foreign = None);
  check_bool "text node rejected" true
    (Path.path_of ~root:sample (Node.text "x") = None)

let test_all_element_paths () =
  let pairs = Path.all_element_paths sample in
  check_int "count" 6 (List.length pairs);
  List.iter
    (fun (p, n) ->
      match Path.resolve_element sample p with
      | Some found -> check_bool "identity" true (found == n)
      | None -> Alcotest.failf "path %s did not resolve" (Path.to_string p))
    pairs

let test_path_parent () =
  let p = Path.of_string_exn "/a/b/c" in
  check "parent" "/a/b" (Path.to_string (Option.get (Path.parent p)));
  let attr = Path.of_string_exn "/a/b/@k" in
  check "attr parent" "/a/b" (Path.to_string (Option.get (Path.parent attr)));
  check_bool "root has no parent" true
    (Path.parent (Path.of_string_exn "/a") = None)

(* ------------------------------------------------------ property tests *)

let gen_name =
  QCheck.Gen.(
    let* first = oneofl [ "a"; "b"; "item"; "node"; "panel" ] in
    return first)

let gen_text =
  QCheck.Gen.(
    string_size (int_range 0 12)
      ~gen:(oneofl [ 'x'; 'y'; '<'; '&'; '"'; '\''; ' '; '7'; '>' ]))

let gen_tree =
  QCheck.Gen.(
    sized_size (int_range 0 40) @@ fix (fun self n ->
        if n <= 0 then map (fun t -> Node.text ("t" ^ t)) gen_text
        else
          frequency
            [
              (2, map (fun t -> Node.text ("t" ^ t)) gen_text);
              (1, map (fun t -> Node.cdata ("c" ^ t))
                   (string_size (int_range 0 8) ~gen:(char_range 'a' 'z')));
              ( 4,
                let* name = gen_name in
                let* attrs =
                  list_size (int_range 0 3)
                    (pair (oneofl [ "k1"; "k2"; "k3" ]) gen_text)
                in
                let attrs =
                  List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs
                in
                let* children = list_size (int_range 0 4) (self (n / 2)) in
                return (Node.element name ~attrs children) );
            ]))

let gen_element =
  QCheck.Gen.(
    let* name = gen_name in
    let* children = list_size (int_range 0 5) gen_tree in
    return (Node.element name children))

let arbitrary_element = QCheck.make gen_element ~print:(Print.to_string)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:300 arbitrary_element
    (fun tree ->
      match Parse.node (Print.to_string tree) with
      | Ok reparsed -> Node.equal (Node.normalize tree) reparsed
      | Error _ -> false)

(* Note: text nodes in generated trees never start with a space, so pretty
   printing (which re-indents) is compared after whitespace stripping on a
   tree that contains no whitespace-only text nodes. *)
let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"pretty print/parse round-trip" ~count:300
    arbitrary_element (fun tree ->
      match Parse.node (Print.to_string_pretty tree) with
      | Ok reparsed ->
          (* Pretty printing inserts whitespace-only text nodes between
             element children; stripping recovers the original only when the
             original had no adjacent text (which "t"-prefixed texts
             guarantee they are not whitespace-only). *)
          Node.equal
            (Node.normalize (Node.strip_whitespace tree))
            (Node.normalize (Node.strip_whitespace reparsed))
      | Error _ -> false)

(* Text with entities at random places parses back to its unescaped
   string, in element content and in an attribute value. *)
let prop_entities_decode =
  let piece =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map
              (fun s -> (s, s))
              (string_size (int_range 0 6)
                 ~gen:
                   (oneofl [ 'x'; ' '; '>'; '\''; ';'; '#'; '\n'; '\xC3' ])) );
          ( 2,
            oneofl
              [
                ("&lt;", "<");
                ("&gt;", ">");
                ("&amp;", "&");
                ("&apos;", "'");
                ("&quot;", "\"");
                ("&#65;", "A");
                ("&#xE9;", "\xC3\xA9");
              ] );
        ])
  in
  let gen =
    QCheck.Gen.(
      map
        (fun ps ->
          ( String.concat "" (List.map fst ps),
            String.concat "" (List.map snd ps) ))
        (list_size (int_range 0 8) piece))
  in
  QCheck.Test.make ~name:"entities decode wherever they fall" ~count:300
    (QCheck.make gen ~print:fst) (fun (escaped, plain) ->
      let in_text = parse ("<t>" ^ escaped ^ "</t>") in
      let in_attr = parse ("<t k=\"" ^ escaped ^ "\"/>") in
      Node.text_content in_text = plain && Node.attr_exn "k" in_attr = plain)

let prop_all_paths_resolve =
  QCheck.Test.make ~name:"every enumerated path resolves to its node"
    ~count:200 arbitrary_element (fun tree ->
      Path.all_element_paths tree
      |> List.for_all (fun (p, n) ->
             match Path.resolve_element tree p with
             | Some found -> found == n
             | None -> false))

let prop_path_of_inverse =
  QCheck.Test.make ~name:"path_of is the inverse of resolve" ~count:200
    arbitrary_element (fun tree ->
      Path.all_element_paths tree
      |> List.for_all (fun (p, n) ->
             match Path.path_of ~root:tree n with
             | Some computed -> Path.equal computed p
             | None -> false))

let prop_size_positive =
  QCheck.Test.make ~name:"size >= descendant element count" ~count:200
    arbitrary_element (fun tree ->
      Node.size tree >= List.length (Node.descendant_elements tree))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_print_parse_roundtrip;
      prop_pretty_parse_roundtrip;
      prop_entities_decode;
      prop_all_paths_resolve;
      prop_path_of_inverse;
      prop_size_positive;
    ]

let suite =
  [
    ("parse: minimal", `Quick, test_parse_minimal);
    ("parse: nested", `Quick, test_parse_nested);
    ("parse: attributes", `Quick, test_parse_attrs);
    ("parse: entities", `Quick, test_parse_entities);
    ("parse: numeric refs to UTF-8", `Quick, test_parse_numeric_utf8);
    ("parse: CDATA", `Quick, test_parse_cdata);
    ("parse: comments kept", `Quick, test_parse_comment_kept);
    ("parse: prolog and doctype", `Quick, test_parse_prolog);
    ("parse: processing instruction", `Quick, test_parse_pi);
    ("parse: whitespace & strip", `Quick, test_parse_whitespace_text);
    ("parse: malformed inputs rejected", `Quick, test_parse_errors);
    ("parse: error carries position", `Quick, test_parse_error_position);
    ("parse: mismatch names both tags", `Quick, test_parse_mismatch_message);
    ("parse: error positions pinned", `Quick,
      test_parse_error_positions_pinned);
    ("parse: character references name XML characters", `Quick,
      test_parse_char_refs_must_be_xml_chars);
    ("parse: entity at start, middle, end", `Quick,
      test_parse_entity_placement);
    ("parse: < and > inside attribute values", `Quick,
      test_parse_angles_in_attrs);
    ("parse: whitespace-only runs kept", `Quick,
      test_parse_whitespace_runs_kept);
    ("parse: fragment", `Quick, test_fragment);
    ("print: compact escaping", `Quick, test_print_compact);
    ("print: declaration", `Quick, test_print_decl);
    ("print: pretty round-trip", `Quick, test_pretty_roundtrip);
    ("node: accessors", `Quick, test_accessors);
    ("node: set_attr", `Quick, test_set_attr);
    ("node: equality ignores attr order", `Quick, test_equal_attr_order);
    ("path: parse/print round-trip", `Quick, test_path_parse_print);
    ("path: [1] is implicit", `Quick, test_path_parse_normalizes_index_one);
    ("path: malformed rejected", `Quick, test_path_parse_errors);
    ("path: resolution", `Quick, test_path_resolve);
    ("path: missing targets", `Quick, test_path_resolve_missing);
    ("path: path_of", `Quick, test_path_of);
    ("path: path_of foreign node", `Quick, test_path_of_foreign_node);
    ("path: all_element_paths", `Quick, test_all_element_paths);
    ("path: parent", `Quick, test_path_parent);
  ]
  @ props
