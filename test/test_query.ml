(* Tests for the query language over TRIM (paper §6; experiment E7). *)

open Si_query.Query
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small bundle-scrap-shaped world. *)
let world () =
  let trim = Trim.create () in
  Trim.add_all trim
    [
      Triple.make "b1" "rdf:type" (Triple.resource "Bundle");
      Triple.make "b1" "bundleName" (Triple.literal "John Smith");
      Triple.make "b1" "bundleContent" (Triple.resource "s1");
      Triple.make "b1" "bundleContent" (Triple.resource "s2");
      Triple.make "b2" "rdf:type" (Triple.resource "Bundle");
      Triple.make "b2" "bundleName" (Triple.literal "Jane Doe");
      Triple.make "b2" "bundleContent" (Triple.resource "s3");
      Triple.make "s1" "rdf:type" (Triple.resource "Scrap");
      Triple.make "s1" "scrapName" (Triple.literal "Dopamine 5");
      Triple.make "s1" "scrapMark" (Triple.resource "h1");
      Triple.make "s2" "rdf:type" (Triple.resource "Scrap");
      Triple.make "s2" "scrapName" (Triple.literal "Fentanyl");
      Triple.make "s2" "scrapMark" (Triple.resource "h2");
      Triple.make "s3" "rdf:type" (Triple.resource "Scrap");
      Triple.make "s3" "scrapName" (Triple.literal "Dopamine 10");
      Triple.make "s3" "scrapMark" (Triple.resource "h3");
      Triple.make "h1" "markId" (Triple.literal "excel-1");
      Triple.make "h2" "markId" (Triple.literal "excel-2");
      Triple.make "h3" "markId" (Triple.literal "xml-1");
    ];
  trim

let literal_values var bindings =
  List.filter_map
    (fun b ->
      match List.assoc_opt var b with
      | Some (Triple.Literal l) -> Some l
      | _ -> None)
    bindings

let test_single_pattern () =
  let trim = world () in
  let q = query [ pat (Var "b") (Literal "bundleName") (Var "n") ] in
  let results = run trim q in
  check_int "two bundles" 2 (List.length results);
  Alcotest.(check (list string))
    "names sorted" [ "Jane Doe"; "John Smith" ]
    (List.sort compare (literal_values "n" results))

let test_join () =
  let trim = world () in
  (* Scrap names in John Smith's bundle. *)
  let q =
    query
      [
        pat (Var "b") (Literal "bundleName") (Literal "John Smith");
        pat (Var "b") (Literal "bundleContent") (Var "s");
        pat (Var "s") (Literal "scrapName") (Var "n");
      ]
      ~select:[ "n" ]
  in
  Alcotest.(check (list string))
    "joined" [ "Dopamine 5"; "Fentanyl" ]
    (List.sort compare (literal_values "n" (run trim q)))

let test_three_hop_join () =
  let trim = world () in
  (* Bundle name -> scrap -> handle -> mark id. *)
  let q =
    parse_exn
      "select ?bn ?m where { ?b bundleName ?bn . ?b bundleContent ?s . \
       ?s scrapMark ?h . ?h markId ?m } filter prefix(?m, \"excel\")"
  in
  let results = run trim q in
  check_int "two excel marks" 2 (List.length results);
  check_bool "all from John Smith" true
    (List.for_all (fun l -> l = "John Smith") (literal_values "bn" results))

let test_fixed_resource () =
  let trim = world () in
  let q = query [ pat (Resource "s3") (Literal "scrapName") (Var "n") ] in
  Alcotest.(check (list string)) "s3" [ "Dopamine 10" ]
    (literal_values "n" (run trim q))

let test_wildcard () =
  let trim = world () in
  let q = query [ pat (Var "s") (Literal "scrapMark") Wildcard ] in
  check_int "scraps with any mark" 3 (List.length (run trim q))

let test_variable_predicate () =
  let trim = world () in
  let q = query [ pat (Resource "s1") (Var "p") (Var "o") ] in
  check_int "all properties of s1" 3 (List.length (run trim q))

let test_filters () =
  let trim = world () in
  let base = [ pat (Var "s") (Literal "scrapName") (Var "n") ] in
  check_int "contains" 2
    (count trim (query base ~filters:[ Contains ("n", "Dopamine") ]));
  check_int "equals" 1
    (count trim (query base ~filters:[ Equals ("n", "Fentanyl") ]));
  check_int "prefix" 2
    (count trim (query base ~filters:[ Prefix ("n", "Dopamine") ]));
  check_int "no match" 0
    (count trim (query base ~filters:[ Contains ("n", "insulin") ]));
  let q2 =
    query
      [ pat (Var "s") (Literal "scrapMark") (Var "h") ]
      ~filters:[ Bound_to_resource "h" ]
  in
  check_int "isResource" 3 (count trim q2)

let test_no_results () =
  let trim = world () in
  check_int "empty" 0
    (count trim (query [ pat (Var "x") (Literal "nope") (Var "y") ]))

let test_duplicate_elimination () =
  let trim = world () in
  (* Projecting only the bundle name over its two scraps collapses. *)
  let q =
    query
      [
        pat (Var "b") (Literal "bundleName") (Var "n");
        pat (Var "b") (Literal "bundleContent") (Var "s");
      ]
      ~select:[ "n" ]
  in
  Alcotest.(check (list string))
    "distinct" [ "Jane Doe"; "John Smith" ]
    (List.sort compare (literal_values "n" (run trim q)))

let test_parse_roundtrip () =
  let inputs =
    [
      "select ?n where { ?b bundleName ?n }";
      "select ?a ?b where { ?a <rdf:type> <Bundle> . ?a bundleName ?b }";
      "where { ?s scrapMark _ }";
      "select * where { ?s ?p ?o } filter contains(?o, \"x\")";
      "select ?m where { ?h markId ?m } filter isResource(?h) filter \
       prefix(?m, \"excel\")";
    ]
  in
  List.iter
    (fun input ->
      match parse input with
      | Error e -> Alcotest.failf "parse %S failed: %s" input e
      | Ok q -> (
          (* Round-trip: printing and reparsing yields the same query. *)
          match parse (to_string q) with
          | Ok q2 ->
              check ("roundtrip " ^ input) (to_string q) (to_string q2)
          | Error e -> Alcotest.failf "reparse failed: %s" e))
    inputs

let test_parse_errors () =
  List.iter
    (fun input ->
      match parse input with
      | Ok _ -> Alcotest.failf "expected parse error on %S" input
      | Error _ -> ())
    [
      ""; "select ?x"; "where { }"; "where { ?a }"; "where { ?a b }";
      "where { ?a b ?c } filter bogus(?c, \"x\")";
      "where { ?a b ?c } garbage";
      "where { ?a b \"unterminated }";
    ]

let test_parsed_equals_constructed () =
  let trim = world () in
  let parsed =
    parse_exn "select ?n where { ?b bundleName ?n }"
  in
  let constructed =
    query ~select:[ "n" ] [ pat (Var "b") (Literal "bundleName") (Var "n") ]
  in
  check_bool "same results" true (run trim parsed = run trim constructed)

let test_query_bound_variable_join_order () =
  let trim = world () in
  (* The join works regardless of pattern order (bindings flow through). *)
  let q1 =
    parse_exn
      "select ?m where { ?h markId ?m . ?s scrapMark ?h . ?s scrapName \
       \"Fentanyl\" }"
  in
  Alcotest.(check (list string)) "reverse order" [ "excel-2" ]
    (literal_values "m" (run trim q1))

let test_order_by_and_limit () =
  let trim = world () in
  let base = "select ?n where { ?s scrapName ?n }" in
  let names q =
    literal_values "n" (run trim (parse_exn q))
  in
  Alcotest.(check (list string))
    "ascending" [ "Dopamine 10"; "Dopamine 5"; "Fentanyl" ]
    (names (base ^ " order by ?n"));
  Alcotest.(check (list string))
    "descending" [ "Fentanyl"; "Dopamine 5"; "Dopamine 10" ]
    (names (base ^ " order by ?n desc"));
  Alcotest.(check (list string))
    "limit" [ "Dopamine 10"; "Dopamine 5" ]
    (names (base ^ " order by ?n limit 2"));
  Alcotest.(check (list string))
    "limit 0" []
    (names (base ^ " limit 0"));
  (* order/limit survive printing. *)
  let q = parse_exn (base ^ " order by ?n desc limit 1") in
  Alcotest.(check (list string)) "roundtrip semantics" [ "Fentanyl" ]
    (literal_values "n" (run trim (parse_exn (to_string q))));
  (* Malformed clauses rejected. *)
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "expected error on %S" s
      | Error _ -> ())
    [
      base ^ " order ?n"; base ^ " order by n"; base ^ " limit";
      base ^ " limit ?x"; base ^ " limit -3";
    ]

let test_order_with_filter_combined () =
  let trim = world () in
  let q =
    parse_exn
      "select ?n where { ?s scrapName ?n } filter contains(?n, \"Dopamine\") \
       order by ?n desc limit 1"
  in
  Alcotest.(check (list string)) "combined" [ "Dopamine 5" ]
    (literal_values "n" (run trim q))

let test_binding_to_string () =
  let b = [ ("n", Triple.Literal "x"); ("r", Triple.Resource "y") ] in
  check "rendering" "?n=\"x\", ?r=<y>" (binding_to_string b)

let test_optimize_semantics () =
  let trim = world () in
  (* A deliberately bad ordering: unrestricted pattern first. *)
  let q =
    parse_exn
      "select ?bn ?m where { ?s ?p ?o . ?b bundleName ?bn . ?b bundleContent \
       ?s2 . ?s2 scrapMark ?h . ?h markId ?m }"
  in
  let optimized = optimize trim q in
  check_bool "same results" true
    (List.sort compare (run trim q) = List.sort compare (run trim optimized));
  (* The optimizer moves the wildcard pattern off the front. *)
  check_bool "wildcard not first" true
    (match optimized.patterns with
    | { subj = Var _; pred = Var _; obj = Var _ } :: _ -> false
    | _ -> true)

let test_optimize_prefers_constants () =
  let trim = world () in
  let q =
    query
      [
        pat (Var "b") (Literal "bundleContent") (Var "s");
        pat (Var "b") (Literal "bundleName") (Literal "Jane Doe");
      ]
  in
  let optimized = optimize trim q in
  (* The fully-constant-object pattern (1 match) should come first. *)
  (match optimized.patterns with
  | { obj = Literal "Jane Doe"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected the selective pattern first");
  check_bool "results unchanged" true
    (List.sort compare (run trim q)
    = List.sort compare (run trim optimized))

let test_optimize_avoids_cross_products () =
  let trim = world () in
  (* Patterns sharing no variables with the start: the connected one must
     follow its anchor even if larger. *)
  let q =
    parse_exn
      "select ?m where { ?h markId ?m . ?s scrapName \"Fentanyl\" . ?s \
       scrapMark ?h }"
  in
  let optimized = optimize trim q in
  (* After the anchor (scrapName = Fentanyl), the next pattern must share
     ?s, not jump to the disconnected markId pattern. *)
  (match optimized.patterns with
  | _anchor :: { pred = Literal "scrapMark"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected the connected pattern second");
  Alcotest.(check (list string)) "results" [ "excel-2" ]
    (literal_values "m" (run trim optimized))

(* A store wrapper that counts [select] calls, to observe how much of the
   store the executor actually enumerates. *)
let select_calls = ref 0

module Counting_store = struct
  module B = Si_triple.Store.List_store

  type t = B.t

  let name = "counting"
  let create = B.create
  let add = B.add
  let remove = B.remove
  let mem = B.mem
  let size = B.size
  let clear = B.clear

  let select ?subject ?predicate ?object_ s =
    incr select_calls;
    B.select ?subject ?predicate ?object_ s

  let count = B.count
  let of_packed_columns = B.of_packed_columns
end

let test_limit_stops_enumerating () =
  (* A 2-pattern join over 100 subjects: the full run probes the store
     once for the first pattern plus once per candidate subject; limit 1
     must stop after the first complete binding. *)
  let trim = Trim.create ~store:(module Counting_store : Si_triple.Store.S) () in
  for i = 0 to 99 do
    ignore
      (Trim.add trim
         (Triple.make (Printf.sprintf "s%d" i) "p1"
            (Triple.literal (Printf.sprintf "a%d" i))));
    ignore
      (Trim.add trim
         (Triple.make (Printf.sprintf "s%d" i) "p2"
            (Triple.literal (Printf.sprintf "b%d" i))))
  done;
  let q limit =
    query ?limit
      [
        pat (Var "s") (Literal "p1") (Var "a");
        pat (Var "s") (Literal "p2") (Var "b");
      ]
  in
  select_calls := 0;
  let full = run trim (q None) in
  let full_calls = !select_calls in
  check_int "full results" 100 (List.length full);
  select_calls := 0;
  let limited = run trim (q (Some 1)) in
  let limited_calls = !select_calls in
  check_int "limited results" 1 (List.length limited);
  check_bool
    (Printf.sprintf "limit-1 store accesses (%d) << full scan (%d)"
       limited_calls full_calls)
    true
    (limited_calls <= 3 && full_calls >= 100);
  check_bool "limited bindings come from the full result" true
    (List.for_all (fun b -> List.mem b full) limited)

let test_limit_without_order_is_distinct_subset () =
  let trim = world () in
  let full = run trim (parse_exn "select ?n where { ?s scrapName ?n }") in
  let two = run trim (parse_exn "select ?n where { ?s scrapName ?n } limit 2") in
  check_int "two results" 2 (List.length two);
  check_bool "distinct" true
    (List.length (List.sort_uniq compare two) = List.length two);
  check_bool "subset of the full result" true
    (List.for_all (fun b -> List.mem b full) two)

let test_contains_edge_cases () =
  let trim = Trim.create () in
  Trim.add_all trim
    [
      Triple.make "s1" "name" (Triple.literal "abc");
      Triple.make "s2" "name" (Triple.literal "aab");
      Triple.make "s3" "name" (Triple.literal "xyzabc");
      Triple.make "s4" "name" (Triple.literal "ababa");
      Triple.make "s5" "name" (Triple.literal "");
    ];
  let n needle =
    count trim
      (query
         [ pat (Var "s") (Literal "name") (Var "n") ]
         ~filters:[ Contains ("n", needle) ])
  in
  check_int "empty needle matches all" 5 (n "");
  check_int "needle at start and middle" 2 (n "abc");
  check_int "overlapping needle" 1 (n "aba");
  check_int "needle at very end" 1 (n "zabc");
  check_int "whole-string needle" 1 (n "xyzabc");
  check_int "needle longer than any value" 0 (n "xyzabcd");
  check_int "absent needle" 0 (n "q")

(* Property: order_by + limit k is exactly the first k of the full ordered
   result (the bounded top-k selection must agree with a full sort). *)
let prop_topk_matches_full_sort =
  QCheck.Test.make ~name:"order_by + limit = take k of full ordered result"
    ~count:150
    QCheck.(triple (int_range 0 40) (int_range 0 8) bool)
    (fun (n, k, descending) ->
      let trim = Trim.create () in
      for i = 0 to n - 1 do
        ignore
          (Trim.add trim
             (Triple.make
                (Printf.sprintf "r%d" (i mod 7))
                "p"
                (Triple.literal (Printf.sprintf "v%d" (i mod 11)))))
      done;
      let order = if descending then Descending "o" else Ascending "o" in
      let base = [ pat (Var "s") (Literal "p") (Var "o") ] in
      let full = run trim (query base ~order_by:order) in
      let topk = run trim (query base ~order_by:order ~limit:k) in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      topk = take k full)

(* Property: a query of one pattern with all variables returns exactly the
   store's triples. *)
let prop_select_all =
  QCheck.Test.make ~name:"?s ?p ?o enumerates the store" ~count:100
    QCheck.(int_range 0 30)
    (fun n ->
      let trim = Trim.create () in
      for i = 0 to n - 1 do
        ignore
          (Trim.add trim
             (Triple.make
                (Printf.sprintf "r%d" (i mod 7))
                (Printf.sprintf "p%d" (i mod 3))
                (Triple.literal (string_of_int i))))
      done;
      count trim (query [ pat (Var "s") (Var "p") (Var "o") ]) = Trim.size trim)

(* Property: optimization never changes results. *)
let prop_optimize_preserves =
  QCheck.Test.make ~name:"optimize preserves query results" ~count:100
    QCheck.(pair (int_range 0 30) (int_range 0 4))
    (fun (n, shape) ->
      let trim = Trim.create () in
      for i = 0 to n - 1 do
        ignore
          (Trim.add trim
             (Triple.make
                (Printf.sprintf "r%d" (i mod 5))
                (Printf.sprintf "p%d" (i mod 3))
                (if i mod 2 = 0 then Triple.literal (string_of_int i)
                 else Triple.resource (Printf.sprintf "r%d" ((i + 1) mod 5)))))
      done;
      let q =
        match shape with
        | 0 -> query [ pat (Var "s") (Var "p") (Var "o") ]
        | 1 ->
            query
              [
                pat (Var "s") (Literal "p0") (Var "o");
                pat (Var "o") (Var "p") (Var "x");
              ]
        | 2 ->
            query
              [
                pat (Var "a") (Var "p") (Var "b");
                pat (Var "c") (Literal "p1") (Var "d");
              ]
        | 3 ->
            query
              [
                pat (Resource "r0") (Var "p") (Var "o");
                pat (Var "o") (Literal "p2") (Var "x");
                pat (Var "x") (Var "q") (Var "y");
              ]
        | _ ->
            query
              [
                pat (Var "s") (Literal "p1") (Var "o");
                pat (Var "s") (Literal "p2") (Var "o2");
              ]
      in
      List.sort compare (run trim q)
      = List.sort compare (run trim (optimize trim q)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_select_all; prop_optimize_preserves; prop_topk_matches_full_sort ]

let suite =
  [
    ("single pattern", `Quick, test_single_pattern);
    ("two-pattern join", `Quick, test_join);
    ("three-hop join + filter", `Quick, test_three_hop_join);
    ("fixed resource subject", `Quick, test_fixed_resource);
    ("wildcard", `Quick, test_wildcard);
    ("variable predicate", `Quick, test_variable_predicate);
    ("filters", `Quick, test_filters);
    ("no results", `Quick, test_no_results);
    ("duplicate elimination", `Quick, test_duplicate_elimination);
    ("parse round-trip", `Quick, test_parse_roundtrip);
    ("parse errors", `Quick, test_parse_errors);
    ("parsed = constructed", `Quick, test_parsed_equals_constructed);
    ("join order independence", `Quick, test_query_bound_variable_join_order);
    ("optimize: semantics preserved", `Quick, test_optimize_semantics);
    ("optimize: constants first", `Quick, test_optimize_prefers_constants);
    ("optimize: no cross products", `Quick, test_optimize_avoids_cross_products);
    ("order by & limit", `Quick, test_order_by_and_limit);
    ("order + filter + limit", `Quick, test_order_with_filter_combined);
    ("limit stops enumerating the store", `Quick, test_limit_stops_enumerating);
    ("limit without order: distinct subset", `Quick,
     test_limit_without_order_is_distinct_subset);
    ("contains filter edge cases", `Quick, test_contains_edge_cases);
    ("binding rendering", `Quick, test_binding_to_string);
  ]
  @ props
