(* Tests for Si_obs: the histogram bucket layout and merge algebra
   (pinned by QCheck properties — the bench --compare gate rides on
   them), span nesting across domains over the sharded store, and the
   snapshot JSON round-trip behind `slimpad stats --json`. *)

module Counter = Si_obs.Counter
module Histogram = Si_obs.Histogram
module Span = Si_obs.Span
module Registry = Si_obs.Registry
module Report = Si_obs.Report
module Json = Si_obs.Json
module Store = Si_triple.Store
module Triple = Si_triple.Triple

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------ bucket layout *)

let test_bucket_layout () =
  check_int "zero lands in bucket 0" 0 (Histogram.index_of 0);
  check_int "negative clamps to bucket 0" 0 (Histogram.index_of (-17));
  check_int "top bucket holds max_int"
    (Histogram.bucket_count - 1)
    (Histogram.index_of max_int);
  (* Buckets tile the value range with no gaps or overlaps: bounds are
     strictly increasing and each bound belongs to its own bucket. *)
  for i = 0 to Histogram.bucket_count - 2 do
    let lo = Histogram.lower_bound i and hi = Histogram.lower_bound (i + 1) in
    check_bool (Printf.sprintf "bound %d < bound %d" i (i + 1)) true (lo < hi);
    check_int (Printf.sprintf "bound of %d is in %d" i i) i
      (Histogram.index_of lo);
    check_int
      (Printf.sprintf "last value of %d is in %d" i i)
      i
      (Histogram.index_of (hi - 1))
  done

let nonneg =
  (* Cover every octave, not just small ints: mask into [0, max_int]. *)
  QCheck.Gen.(
    oneof [ int_range 0 4096; map (fun i -> i land max_int) int ])

let arbitrary_value = QCheck.make nonneg ~print:string_of_int

let prop_bucket_contains_value =
  QCheck.Test.make ~name:"value lies within its bucket's bounds" ~count:1000
    arbitrary_value (fun v ->
      let i = Histogram.index_of v in
      Histogram.lower_bound i <= v
      && (i = Histogram.bucket_count - 1 || v < Histogram.lower_bound (i + 1)))

let prop_index_monotone =
  QCheck.Test.make ~name:"index_of is monotone" ~count:1000
    (QCheck.pair arbitrary_value arbitrary_value) (fun (v, w) ->
      let lo = min v w and hi = max v w in
      Histogram.index_of lo <= Histogram.index_of hi)

let prop_relative_error_bounded =
  QCheck.Test.make ~name:"bucket representative within ~25% of value"
    ~count:1000 arbitrary_value (fun v ->
      QCheck.assume (v > 0 && v < max_int / 2);
      let r = Histogram.representative (Histogram.index_of v) in
      Float.abs (r -. float_of_int v) /. float_of_int v <= 0.25)

let values_list =
  QCheck.Gen.(list_size (int_range 0 200) nonneg)

let arbitrary_values =
  QCheck.make values_list ~print:(fun l ->
      String.concat "," (List.map string_of_int l))

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let prop_merge_is_bulk_add =
  QCheck.Test.make
    ~name:"merge equals adding both value sets to one histogram" ~count:300
    (QCheck.pair arbitrary_values arbitrary_values) (fun (a, b) ->
      let merged = Histogram.merge (hist_of a) (hist_of b) in
      Histogram.summary merged = Histogram.summary (hist_of (a @ b)))

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summary/of_summary round-trip" ~count:300
    arbitrary_values (fun values ->
      let s = Histogram.summary (hist_of values) in
      Histogram.summary (Histogram.of_summary s) = s)

let prop_quantiles_within_range =
  QCheck.Test.make ~name:"quantiles stay within [min, max]" ~count:300
    (QCheck.pair arbitrary_values (QCheck.float_range 0. 1.))
    (fun (values, q) ->
      QCheck.assume (values <> []);
      let h = hist_of values in
      let v = Histogram.quantile h q in
      float_of_int (Histogram.min_value h) <= v
      && v <= float_of_int (Histogram.max_value h))

(* ------------------------------------------------------------- spans *)

(* Run a thunk under tracing with a deterministic tick clock, then
   return what it left in the span buffer. Everything global (clock,
   switch, buffer) is restored even when the thunk raises. *)
let trace_with_ticks f =
  let tick = Atomic.make 0 in
  Si_obs.Clock.set (fun () -> Atomic.fetch_and_add tick 1);
  Span.set_capacity 8192;
  ignore (Span.drain ());
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Si_obs.Clock.reset ();
      Span.set_capacity 4096)
    (fun () ->
      f ();
      Span.disable ();
      Span.drain ())

let span_exn what = function
  | Some s -> s
  | None -> Alcotest.failf "%s: span not recorded" what

let find_span spans layer op =
  List.find_opt
    (fun (s : Span.finished) -> s.layer = layer && s.op = op)
    spans

let test_span_nesting () =
  let spans =
    trace_with_ticks (fun () ->
        Span.with_ ~layer:"a" ~op:"outer" (fun () ->
            Span.with_ ~layer:"b" ~op:"inner" (fun () -> ());
            Span.with_ ~layer:"b" ~op:"later" (fun () -> ()));
        Span.with_ ~layer:"c" ~op:"solo" (fun () -> ()))
  in
  check_int "four spans" 4 (List.length spans);
  let outer = span_exn "outer" (find_span spans "a" "outer") in
  let inner = span_exn "inner" (find_span spans "b" "inner") in
  let later = span_exn "later" (find_span spans "b" "later") in
  let solo = span_exn "solo" (find_span spans "c" "solo") in
  check_bool "outer is a root" true (outer.parent = None);
  check_bool "solo is a root" true (solo.parent = None);
  check_bool "inner nests under outer" true (inner.parent = Some outer.id);
  check_bool "later nests under outer" true (later.parent = Some outer.id);
  check_bool "children ordered by start" true
    (inner.start_ns < later.start_ns);
  check_bool "outer covers inner" true
    (outer.start_ns < inner.start_ns && inner.stop_ns <= outer.stop_ns);
  check "tree rendering" "a.outer\n  b.inner\n  b.later\nc.solo\n"
    (Report.span_tree ~timings:false spans)

let test_span_survives_raise () =
  let spans =
    trace_with_ticks (fun () ->
        try Span.with_ ~layer:"a" ~op:"boom" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  let s = span_exn "boom" (find_span spans "a" "boom") in
  check_bool "raising span still recorded" true (s.stop_ns > s.start_ns)

(* Four domains each run an outer span wrapping inserts into one shared
   sharded store. Per-domain parent stacks must keep the nesting
   straight: every span's parent lives on the same domain, and the
   instrumented triple.insert spans nest under the domain's own outer
   span, never a sibling's. *)
let test_span_domains () =
  let per_domain = 25 in
  let spans =
    trace_with_ticks (fun () ->
        let trim =
          Si_triple.Trim.create ~store:(module Store.Sharded_columnar) ()
        in
        let worker d () =
          Span.with_ ~layer:"test" ~op:(Printf.sprintf "worker-%d" d)
            (fun () ->
              for i = 0 to per_domain - 1 do
                ignore
                  (Si_triple.Trim.add trim
                     (Triple.make
                        (Printf.sprintf "r%d-%d" d i)
                        "name"
                        (Triple.literal "x")))
              done)
        in
        let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join domains)
  in
  let outers =
    List.filter (fun (s : Span.finished) -> s.layer = "test") spans
  in
  check_int "one outer span per domain" 4 (List.length outers);
  let domains_seen =
    List.sort_uniq compare
      (List.map (fun (s : Span.finished) -> s.domain) outers)
  in
  check_int "outers ran on distinct domains" 4 (List.length domains_seen);
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Span.finished) -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun (s : Span.finished) ->
      match s.parent with
      | None -> ()
      | Some p -> (
          match Hashtbl.find_opt by_id p with
          | None -> Alcotest.failf "span %d has unknown parent %d" s.id p
          | Some parent ->
              check_int
                (Printf.sprintf "span %d parent on same domain" s.id)
                parent.domain s.domain))
    spans;
  List.iter
    (fun (outer : Span.finished) ->
      let children =
        List.filter
          (fun (s : Span.finished) -> s.parent = Some outer.id)
          spans
      in
      check_int
        (Printf.sprintf "inserts nested under %s" outer.op)
        per_domain (List.length children);
      List.iter
        (fun (c : Span.finished) ->
          check (Printf.sprintf "child of %s is an insert" outer.op)
            "triple.insert"
            (c.layer ^ "." ^ c.op))
        children)
    outers

let test_span_ring_drops_oldest () =
  let dropped = ref 0 in
  let spans =
    trace_with_ticks (fun () ->
        Span.set_capacity 8;
        for i = 0 to 19 do
          Span.with_ ~layer:"ring" ~op:(string_of_int i) (fun () -> ())
        done;
        (* [drain] resets the overflow count, so read it first. *)
        dropped := Span.dropped ())
  in
  check_int "ring keeps the newest capacity spans" 8 (List.length spans);
  check "newest retained" "19"
    (match List.rev spans with s :: _ -> s.op | [] -> "");
  check_int "overflow counted" 12 !dropped

(* ------------------------------------------------- registry & reports *)

let test_registry_identity () =
  let c1 = Registry.counter "test_obs.ident" in
  let c2 = Registry.counter "test_obs.ident" in
  check_bool "counter get-or-create returns the same handle" true (c1 == c2);
  Counter.add c1 3;
  check_int "shared handle shares the count" 3 (Counter.get c2);
  Counter.reset c1;
  let h1 = Registry.histogram "test_obs.ident" in
  let h2 = Registry.histogram "test_obs.ident" in
  check_bool "histogram get-or-create returns the same handle" true (h1 == h2)

let sample_snapshot () =
  let h = hist_of [ 3; 17; 170; 1_000; 65_536; 1_000_000 ] in
  let deep = hist_of (List.init 500 (fun i -> (i * i) + 1)) in
  {
    Registry.counters =
      [ ("triple.insert", 547); ("wal.append", 12); ("wal.fsync", 1) ];
    gauges = [ ("replica.lag", 4) ];
    histograms =
      [ ("query.run", Histogram.summary h); ("wal.fsync", Histogram.summary deep) ];
  }

let test_stats_json_roundtrip () =
  let snap = sample_snapshot () in
  let text = Json.to_string ~pretty:true (Report.to_json snap) in
  let parsed =
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats JSON does not parse back: %s" e
  in
  match Report.of_json parsed with
  | Error e -> Alcotest.failf "stats JSON does not decode: %s" e
  | Ok snap' ->
      check_bool "counters round-trip" true (snap.counters = snap'.counters);
      check_bool "gauges round-trip" true (snap.gauges = snap'.gauges);
      check_bool "histogram summaries round-trip" true
        (snap.histograms = snap'.histograms)

let prop_report_json_roundtrip =
  QCheck.Test.make ~name:"random snapshots round-trip through JSON"
    ~count:200 arbitrary_values (fun values ->
      let snap =
        {
          Registry.counters = [ ("a.b", List.length values) ];
          gauges = [];
          histograms =
            (if values = [] then []
             else [ ("a.lat", Histogram.summary (hist_of values)) ]);
        }
      in
      match Json.of_string (Json.to_string (Report.to_json snap)) with
      | Error _ -> false
      | Ok j -> (
          match Report.of_json j with
          | Error _ -> false
          | Ok snap' ->
              snap'.counters = snap.counters
              && snap'.histograms = snap.histograms))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_prometheus_shape () =
  let out = Report.to_prometheus (sample_snapshot ()) in
  check_bool "counter line present" true
    (contains out "si_events_total{name=\"triple.insert\"} 547");
  check_bool "+Inf bucket present" true (contains out "le=\"+Inf\"");
  check_bool "histogram sum present" true
    (contains out "si_latency_ns_sum{name=\"query.run\"}")

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bucket_contains_value;
      prop_index_monotone;
      prop_relative_error_bounded;
      prop_merge_is_bulk_add;
      prop_summary_roundtrip;
      prop_quantiles_within_range;
      prop_report_json_roundtrip;
    ]

let suite =
  [
    ("histogram: bucket layout", `Quick, test_bucket_layout);
    ("span: lexical nesting & tree", `Quick, test_span_nesting);
    ("span: recorded despite raise", `Quick, test_span_survives_raise);
    ("span: per-domain stacks over sharded store", `Quick, test_span_domains);
    ("span: ring buffer drops oldest", `Quick, test_span_ring_drops_oldest);
    ("registry: get-or-create identity", `Quick, test_registry_identity);
    ("report: stats JSON round-trip", `Quick, test_stats_json_roundtrip);
    ("report: prometheus exposition", `Quick, test_prometheus_shape);
  ]
  @ props
