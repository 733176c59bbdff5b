(* The four workloads: how each sets up, what one rep does, and the
   per-layer numbers of its traced run. *)

module Proto = Si_serve.Proto
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Desktop = Si_mark.Desktop
module Histogram = Si_obs.Histogram

type env = {
  cli : string;  (** The slimpad binary under test. *)
  work : string;  (** This run's scratch directory. *)
  trace_dir : string;
  sizes : Gen.sizes;
  seed : int;
}

let log env = Filename.concat env.work "children.log"

type prepared =
  | Rounds of Gen.rounds
  | Lookup of Gen.lookup
  | Ingest of Gen.rounds
  | Captivity of Gen.rounds * string option ref  (** First digest seen. *)

let pristine env = Filename.concat env.work "pristine"

let prepare env = function
  | "rounds" -> Rounds (Gen.build_rounds ~sizes:env.sizes ~seed:env.seed (pristine env))
  | "lookup" -> Lookup (Gen.build_lookup ~sizes:env.sizes ~seed:env.seed (pristine env))
  | "ingest" -> Ingest (Gen.build_rounds ~sizes:env.sizes ~seed:env.seed (pristine env))
  | "captivity" ->
      Captivity (Gen.build_rounds ~sizes:env.sizes ~seed:env.seed (pristine env), ref None)
  | w -> invalid_arg ("unknown workload " ^ w)

(* What one rep measured: metrics with one value per rep (set-up,
   memory, diagnostics), and timing metrics with one value per window
   of the rep. *)
type rep = {
  values : (string * float) list;
  windows : (string * float list) list;
  attempted : int;
  failed : int;
  errors : string list;
}

let us ns = ns /. 1e3

let p50 b = Stats.quantile_sorted (Stats.Buf.sorted b) 0.5
let p99 b = Stats.quantile_sorted (Stats.Buf.sorted b) 0.99

(* --- served workloads ------------------------------------------------- *)

let sessions env = function
  | Rounds r ->
      List.init Gen.rounds_sessions (fun session ->
          Gen.rounds_ops r ~sizes:env.sizes ~seed:env.seed ~session)
  | Lookup l -> [ Gen.lookup_ops l ~sizes:env.sizes ~seed:env.seed ~tag:"s" ]
  | Ingest _ -> [ Gen.ingest_ops ~sizes:env.sizes ~seed:env.seed ~tag:"s" ]
  | Captivity _ -> []

let count_ops p plan =
  List.fold_left (fun n ops -> Array.fold_left (fun n o -> if p o then n + 1 else n) n ops) 0 plan

let is_write (o : Gen.op) = o.cls = Gen.Write

(* The end of a served rep: a last check through the protocol, then
   the server stops. Returns (attempted, failed, errors, how it ended). *)
let finish prepared srv (plan : Gen.op array list) (results : Served.session list) dir =
  let count_any expected =
    match Served.one_request srv (Proto.Count Proto.any) with
    | Ok (Proto.Count_is n) when n = expected -> []
    | Ok (Proto.Count_is n) -> [ Printf.sprintf "final count %d, expected %d" n expected ]
    | _ -> [ "final count: no answer" ]
  in
  match prepared with
  | Rounds r ->
      let errs = count_any r.r_triples in
      (1, List.length errs, errs, Served.shutdown srv)
  | Lookup l ->
      let errs = count_any (l.l_triples + count_ops is_write plan) in
      (1, List.length errs, errs, Served.shutdown srv)
  | Ingest _ ->
      (* Every acknowledged write, interactive or bulk, must survive a
         SIGKILL: reopen the log as the next process would. *)
      let jobs = List.concat_map (fun (s : Served.session) -> s.jobs) results in
      let bulk_jobs = count_ops (fun (o : Gen.op) -> o.kind = "bulk") plan in
      let unfinished = Served.await_jobs srv jobs in
      let ended = Served.kill srv in
      let app =
        Gen.must "reopen after kill"
          (Result.map fst (Slimpad.open_wal (Desktop.create ()) (Gen.wal_path dir)))
      in
      let trim = Dmi.trim (Slimpad.dmi app) in
      let acked = List.concat_map Gen.ingest_added plan in
      let lost = List.filter (fun t -> not (Trim.mem trim t)) acked in
      let bulk = Trim.count_select ~predicate:Gen.bulk_predicate trim in
      ignore (Slimpad.wal_close app);
      let errs =
        (if unfinished = [] then [] else [ Printf.sprintf "%d job(s) failed" (List.length unfinished) ])
        @ (if lost = [] then []
           else [ Printf.sprintf "%d acknowledged write(s) lost" (List.length lost) ])
        @
        if bulk = bulk_jobs * Gen.bulk_count then []
        else [ Printf.sprintf "%d bulk triple(s) survived, expected %d" bulk (bulk_jobs * Gen.bulk_count) ]
      in
      (* The durability check counts as one request per acked write. *)
      ( List.length acked,
        List.length lost + (if bulk = bulk_jobs * Gen.bulk_count then 0 else 1)
        + List.length unfinished,
        errs,
        ended )
  | Captivity _ -> assert false

let merge_buf f results =
  let b = Stats.Buf.create () in
  List.iter (fun (s : Served.session) -> Stats.Buf.append b (f s)) results;
  b

(* Tails and per-kind latencies of the rep; they do not gate. *)
let diagnostics results =
  let all = Stats.Buf.create () in
  List.iter
    (fun (s : Served.session) ->
      List.iter (fun (_, lat, _) -> Stats.Buf.add all (float_of_int lat)) s.samples)
    results;
  let kinds =
    List.sort_uniq compare
      (List.concat_map
         (fun (s : Served.session) -> Hashtbl.fold (fun k _ acc -> k :: acc) s.by_kind [])
         results)
  in
  ("latency_p99_us", us (p99 all))
  :: ("samples", float_of_int (Stats.Buf.length all))
  :: List.concat_map
       (fun k ->
         let b =
           merge_buf
             (fun s -> Option.value (Hashtbl.find_opt s.by_kind k) ~default:(Stats.Buf.create ()))
             results
         in
         [
           (k ^ "_p50_us", us (p50 b));
           (k ^ "_p99_us", us (p99 b));
           (k ^ "_samples", float_of_int (Stats.Buf.length b));
         ])
       kinds

(* Windows are short, so that some fall between the slowdowns other
   tenants of a shared machine cause, except on ingest: there a window
   must hold a compaction (one per 10,000 requests) for its throughput
   to price the background work. *)
let window_ns = function Ingest _ -> 1_000_000_000 | _ -> 250_000_000

(* The measured stretch, where every session is past its warm-up and
   none has finished, cut into windows (one window when the stretch is
   shorter). Each window gives its throughput and the median round
   trip of all, read and write requests. *)
let windows ~window_ns (results : Served.session list) =
  let spans =
    List.filter_map
      (fun (s : Served.session) ->
        match s.samples with
        | [] -> None
        | (last, _, _) :: _ ->
            let first = List.fold_left (fun m (t, _, _) -> min m t) last s.samples in
            Some (first, last))
      results
  in
  if List.length spans < List.length results || spans = [] then []
  else
    let start = List.fold_left (fun m (f, _) -> max m f) min_int spans in
    let stop = List.fold_left (fun m (_, l) -> min m l) max_int spans in
    let width = max 1 (min window_ns (stop - start)) in
    let n = max 1 ((stop - start) / width) in
    let all = Array.make n [] and read = Array.make n [] and write = Array.make n [] in
    List.iter
      (fun (s : Served.session) ->
        List.iter
          (fun (t, lat, cls) ->
            let k = (t - start) / width in
            if t >= start && k < n then begin
              let lat = float_of_int lat in
              all.(k) <- lat :: all.(k);
              match cls with
              | Gen.Read -> read.(k) <- lat :: read.(k)
              | Gen.Write -> write.(k) <- lat :: write.(k)
              | Gen.Other -> ()
            end)
          s.samples)
      results;
    let p50s a =
      Array.to_list a |> List.filter_map (fun l -> if l = [] then None else Some (us (Stats.median l)))
    in
    [
      ( "ops_per_s",
        Array.to_list
          (Array.map (fun l -> float_of_int (List.length l) /. (float_of_int width /. 1e9)) all) );
      ("latency_p50_us", p50s all);
      ("read_p50_us", p50s read);
      ("write_p50_us", p50s write);
    ]

let served_rep env prepared k =
  let dir = Filename.concat env.work (Printf.sprintf "rep-%d" k) in
  Gen.copy_dir (pristine env) dir;
  let plan = sessions env prepared in
  let srv = Served.start ~cli:env.cli ~log:(log env) dir in
  let results = Served.run_sessions ~port:srv.port plan in
  let attempted, failed, errs, (code, peak_kb) = finish prepared srv plan results dir in
  Gen.rm_rf dir;
  {
    values =
      ("setup_s", float_of_int srv.setup_ns /. 1e9)
      :: ("peak_rss_mb", float_of_int peak_kb /. 1024.)
      :: diagnostics results;
    windows = windows ~window_ns:(window_ns prepared) results;
    attempted =
      attempted + List.fold_left (fun n (s : Served.session) -> n + s.attempted) 0 results;
    failed = failed + List.fold_left (fun n (s : Served.session) -> n + s.failed) 0 results;
    errors =
      (* 0 after a shutdown request; SIGKILL where the rep kills it. *)
      (if code = 0 || code = Sys.sigkill then []
       else [ Printf.sprintf "server exited with %d" code ])
      @ errs
      @ List.concat_map (fun (s : Served.session) -> s.errors) results;
  }

(* --- captivity: capture, verify, apply, reopen through the CLI ------- *)

let digest_of out =
  List.find_map
    (fun line ->
      let prefix = "content digest " in
      if String.starts_with ~prefix line then
        Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' out)

let captivity_rep env (r : Gen.rounds) first_digest k =
  let src = Filename.concat env.work "source" in
  if not (Sys.file_exists src) then Gen.copy_dir (pristine env) src;
  let bundle = Filename.concat env.work (Printf.sprintf "pad-%d.sib" k) in
  let dst = Filename.concat env.work (Printf.sprintf "applied-%d" k) in
  let errors = ref [] in
  let step name args =
    let r = Proc.run ~log:(log env) env.cli args in
    if r.code <> 0 then errors := Printf.sprintf "%s exited with %d" name r.code :: !errors;
    r
  in
  let cap = step "capture" [ "capture"; src; "-o"; bundle; "--with-bases" ] in
  let lint = step "lint" [ "lint"; "--bundle"; bundle ] in
  let app = step "apply" [ "apply"; dst; bundle; "--strict"; "--excerpts"; "--bases" ] in
  let pads = step "pads" [ "pads"; dst ] in
  let ns (r : Proc.ran) = float_of_int r.wall_ns in
  let bundle_bytes = Gen.file_size bundle in
  let expected_pads =
    Printf.sprintf "%s (%d bundles, %d scraps)\n" Gen.pad_name r.r_bundles r.r_scraps
  in
  let wrong msg = errors := msg :: !errors in
  (match (digest_of cap.out, digest_of app.out) with
  | Some c, Some a when c = a -> (
      match !first_digest with
      | None -> first_digest := Some c
      | Some d -> if d <> c then wrong "digest differs from the first rep's")
  | _ -> wrong "capture and apply digests differ");
  if pads.out <> expected_pads then wrong ("pads printed " ^ String.escaped pads.out);
  Gen.rm_rf dst;
  Gen.rm_rf bundle;
  let total = ns cap +. ns lint +. ns app +. ns pads in
  {
    windows =
      [
        ("ops_per_s", [ 4. /. (total /. 1e9) ]);
        ("latency_p50_us", [ us total ]);
        ("read_p50_us", [ us (ns cap) ]);
        ("write_p50_us", [ us (ns app) ]);
      ];
    values =
      [
        ("setup_s", ns pads /. 1e9);
        ( "peak_rss_mb",
          float_of_int
            (List.fold_left (fun m (r : Proc.ran) -> max m r.peak_kb) 0 [ cap; lint; app; pads ])
          /. 1024. );
        ("capture_s", ns cap /. 1e9);
        ("verify_s", ns lint /. 1e9);
        ("apply_s", ns app /. 1e9);
        ("bundle_bytes", float_of_int bundle_bytes);
      ];
    attempted = 4;
    failed = min 4 (List.length !errors);
    errors = List.rev !errors;
  }

let rep env prepared k =
  match prepared with
  | Captivity (r, first) -> captivity_rep env r first k
  | Rounds _ | Lookup _ | Ingest _ -> served_rep env prepared k

(* --- traced run ------------------------------------------------------- *)

let snap_counter (snap : Si_obs.Registry.snapshot) name =
  Option.value (List.assoc_opt name snap.counters) ~default:0

(* Median of a server histogram over the requests between two Stats
   snapshots. *)
let hist_p50 (before : Si_obs.Registry.snapshot) (after : Si_obs.Registry.snapshot) name =
  match List.assoc_opt name after.histograms with
  | None -> 0.
  | Some a ->
      let prior i =
        match List.assoc_opt name before.histograms with
        | None -> 0
        | Some b -> Option.value (List.assoc_opt i b.Histogram.s_buckets) ~default:0
      in
      let buckets =
        List.filter_map
          (fun (i, c) -> if c - prior i > 0 then Some (i, c - prior i) else None)
          a.Histogram.s_buckets
      in
      let count = List.fold_left (fun n (_, c) -> n + c) 0 buckets in
      Histogram.median
        (Histogram.of_summary
           { a with s_count = count; s_buckets = buckets; s_min = 0 })

(* Numbers only the real server can give: service times from its
   always-on per-op histograms, lock contention counters and CPU. *)
let served_layers env prepared =
  let dir = Filename.concat env.work "traced-served" in
  Gen.copy_dir (pristine env) dir;
  let plan = sessions env prepared in
  let srv = Served.start ~cli:env.cli ~log:(log env) dir in
  let before = Served.stats srv and cpu0 = Proc.cpu_ns srv.pid in
  let results = Served.run_sessions ~port:srv.port plan in
  let cpu1 = Proc.cpu_ns srv.pid and after = Served.stats srv in
  let attempted, failed, errs, _ = finish prepared srv plan results dir in
  Gen.rm_rf dir;
  let requests = List.fold_left (fun n (s : Served.session) -> n + s.attempted) 0 results in
  let writes = count_ops is_write plan in
  let service op = us (hist_p50 before after ("server.req." ^ op)) in
  let client op =
    let b =
      merge_buf
        (fun s -> Option.value (Hashtbl.find_opt s.by_kind op) ~default:(Stats.Buf.create ()))
        results
    in
    if Stats.Buf.length b >= 100 then Some (us (p50 b)) else None
  in
  let transport =
    match (client "count", client "add") with
    | Some c, _ -> c -. service "count"
    | None, Some a -> a -. service "add"
    | None, None -> 0.
  in
  let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let delta name = snap_counter after name - snap_counter before name in
  ( [
      ("serve.resolve_service_p50_us", service "resolve");
      ("serve.count_service_p50_us", service "count");
      ("serve.select_service_p50_us", service "select");
      ("serve.add_service_p50_us", service "add");
      ("serve.transport_us", transport);
      ("serve.writer_contended_per_write", per (delta "check.lock.contended.server.writer") writes);
      ("triple.shard_contended_per_req", per (delta "check.lock.contended.store.shard") requests);
      ( "serve.cpu_ms_per_kreq",
        if requests = 0 then 0.
        else float_of_int (cpu1 - cpu0) /. 1e6 /. (float_of_int requests /. 1000.) );
    ],
    attempted + requests,
    failed + List.fold_left (fun n (s : Served.session) -> n + s.failed) 0 results,
    errs @ List.concat_map (fun (s : Served.session) -> s.errors) results )

let spans_named spans names =
  Array.to_list spans
  |> List.filter_map (fun (s : Trace.span) ->
         if List.mem s.name names then Some (float_of_int (Trace.dur s)) else None)

let span_p50 spans names =
  match spans_named spans names with [] -> 0. | l -> Stats.median l

let span_total spans names = List.fold_left ( +. ) 0. (spans_named spans names)

let name_of = function
  | Rounds _ -> "rounds"
  | Lookup _ -> "lookup"
  | Ingest _ -> "ingest"
  | Captivity _ -> "captivity"

(* Spans to DIR/<workload>.spans.json, layer totals into
   DIR/layers.json. Returns the share of request time no layer's span
   covers. *)
let write_trace env prepared spans ~overhead =
  Gen.mkdir_p env.trace_dir;
  Out_channel.with_open_bin
    (Filename.concat env.trace_dir (name_of prepared ^ ".spans.json"))
    (fun oc -> Out_channel.output_string oc (Trace.spans_json spans));
  let traced_ns =
    Array.fold_left
      (fun n (s : Trace.span) -> if s.parent < 0 && s.req >= 0 then n + Trace.dur s else n)
      0 spans
  in
  let gap = Trace.unattributed spans in
  Trace.write_layers env.trace_dir (name_of prepared)
    (Trace.layers_json spans ~traced_ns ~overhead ~gap);
  gap.overall

let snapshot_bytes env =
  float_of_int (Gen.file_size (Si_wal.Log.snapshot_path (Gen.wal_path (pristine env))))

let sum l = List.fold_left ( +. ) 0. l

(* The in-process replay of a served workload. *)
let replay_layers env prepared =
  let dir = Filename.concat env.work "traced-replay" in
  Gen.copy_dir (pristine env) dir;
  let ops tag =
    match prepared with
    | Rounds _ -> Array.concat (sessions env prepared)
    | Lookup l -> Gen.lookup_ops l ~sizes:env.sizes ~seed:env.seed ~tag
    | Ingest _ -> Gen.ingest_ops ~sizes:env.sizes ~seed:env.seed ~tag
    | Captivity _ -> assert false
  in
  Trace.reset ();
  Trace.tracing := true;
  let app = Trace.open_served dir in
  Trace.tracing := false;
  let ctx = Trace.context app in
  let wal = Gen.wal_path dir in
  let plain = Trace.replay ctx ~wal (ops "p") in
  Trace.tracing := true;
  let traced = Trace.replay ctx ~wal (ops "t") in
  Trace.tracing := false;
  ignore (Slimpad.wal_close app);
  Gen.rm_rf dir;
  let spans = Trace.collected () in
  let plain_ns = sum plain.request_ns and traced_ns = sum traced.request_ns in
  let overhead = if plain_ns = 0. then 0. else (traced_ns /. plain_ns) -. 1. in
  let unattributed = write_trace env prepared spans ~overhead in
  let n = float_of_int plain.attempted in
  let per_req name = float_of_int (List.assoc name plain.counters) /. n in
  let per_write x = if plain.writes = 0 then 0. else x /. float_of_int plain.writes in
  let scraps =
    match prepared with Rounds r -> float_of_int r.r_scraps | _ -> 0.
  in
  let codec = span_total spans [ "serve.codec" ] in
  ( [
      ("serve.codec_us_per_req", us codec /. float_of_int traced.attempted);
      ("serve.frame_bytes_per_req", float_of_int plain.frame_bytes /. n);
      ( "serve.dispatch_us",
        match List.assoc_opt "serve.request" (Trace.group Fun.id spans) with
        | Some g -> us g.self_p50_ns
        | None -> 0. );
      ("wal.appends_per_write", per_write (float_of_int (List.assoc "wal.append" plain.counters)));
      ("wal.flushes_per_write", per_write (float_of_int (List.assoc "wal.fsync" plain.counters)));
      ("wal.sync_us", us (span_p50 spans [ "wal.sync" ]));
      ("wal.log_bytes_per_write", per_write (float_of_int plain.log_bytes));
      ("wal.compact_ms", span_p50 spans [ "wal.compact" ] /. 1e6);
      ("wal.snapshot_bytes", snapshot_bytes env);
      ("wal.recover_s", span_total spans [ "wal.recover" ] /. 1e9);
      ("triple.selects_per_req", per_req "triple.select");
      ("triple.read_us", us (span_p50 spans [ "triple.select"; "triple.count" ]));
      ("triple.atom_interns_per_req", per_req "atom.intern");
      ( "triple.rows_built_per_returned",
        if ctx.rows_returned = 0 then 0.
        else float_of_int ctx.rows_built /. float_of_int ctx.rows_returned );
      ("triple.write_us", us (span_p50 spans [ "triple.write" ]));
      ("query.parse_us", us (span_p50 spans [ "query.parse" ]));
      ("query.optimize_us", us (span_p50 spans [ "query.optimize" ]));
      ("query.run_us", us (span_p50 spans [ "query.run" ]));
      ( "query.rows_per_call",
        if ctx.query_calls = 0 then 0.
        else float_of_int ctx.query_rows /. float_of_int ctx.query_calls );
      ("slimpad.find_scraps_us", us (span_p50 spans [ "slimpad.find_scraps" ]));
      ("slimpad.scraps_scanned_per_resolve", if ctx.resolves = 0 then 0. else scraps);
      ( "slimpad.matches_per_resolve",
        if ctx.resolves = 0 then 0. else float_of_int ctx.matches /. float_of_int ctx.resolves );
      ("mark.resolve_us", us (span_p50 spans [ "mark.resolve" ]));
      ("mark.resolves_failed", float_of_int ctx.resolves_failed);
      ("desktop.load_ms", span_total spans [ "desktop.load" ] /. 1e6);
      ("alloc.words_per_req", plain.words /. n);
      ("trace.overhead_frac", overhead);
      ("trace.unattributed_frac", unattributed);
    ],
    plain.attempted + traced.attempted,
    plain.failed + traced.failed,
    [] )

(* One capture -> verify -> apply -> reopen cycle through the layers
   the CLI commands call (bin/slimpad_cli.ml), each step one request. *)
let captivity_cycle env (r : Gen.rounds) ~tag =
  let src = Filename.concat env.work "traced-source" in
  let bundle = Filename.concat env.work ("traced-" ^ tag ^ ".sib") in
  let dst = Filename.concat env.work ("traced-applied-" ^ tag) in
  Gen.rm_rf dst;
  let times = ref [] and errors = ref [] in
  let step i f =
    Trace.current_req := i;
    let t0 = Proc.now_ns () in
    (match Trace.span "cli.request" f with
    | Ok () -> ()
    | Error e -> errors := e :: !errors);
    times := float_of_int (Proc.now_ns () - t0) :: !times;
    Trace.current_req := -1
  in
  let bytes = ref "" in
  step 0 (fun () ->
      let desk = Trace.load_desktop src in
      let app =
        Trace.span "wal.recover" (fun () ->
            Gen.must "open" (Result.map fst (Slimpad.open_wal desk (Gen.wal_path src))))
      in
      let b, _ =
        Trace.span "bundle.capture" (fun () ->
            Si_bundle.capture ~workspace_id:src ~bases:(Si_bundle.Layout.reader ~dir:src) app)
      in
      bytes := b;
      let written = Trace.span "bundle.write" (fun () -> Si_bundle.write_file ~path:bundle b) in
      ignore (Slimpad.wal_close app);
      written);
  step 1 (fun () ->
      match Trace.span "bundle.verify" (fun () -> Si_bundle.verify !bytes) with
      | [] -> Ok ()
      | p :: _ -> Error (Si_bundle.problem_to_string p));
  let digest = ref "" in
  step 2 (fun () ->
      let b = Gen.must "read" (Si_bundle.read_file bundle) in
      let dirty =
        Trace.span "lint.preflight" (fun () ->
            let scratch = Gen.must "preflight" (Slimpad.of_snapshot_bytes (Desktop.create ()) b) in
            Si_lint.count Si_lint.Error
              (Si_lint.run
                 (Si_lint.context ~dmi:(Slimpad.dmi scratch) ~marks:(Slimpad.marks scratch) ())))
      in
      Gen.mkdir_p dst;
      let app = Slimpad.create (Desktop.create ()) in
      let applied =
        Trace.span "bundle.apply" (fun () ->
            Si_bundle.apply ~excerpts:true ~bases:(Si_bundle.Layout.writer ~dir:dst) app b)
      in
      digest := Si_bundle.app_digest app;
      match (dirty, applied) with
      | 0, Ok _ ->
          Trace.span "slimpad.save" (fun () -> Slimpad.save app (Filename.concat dst "pad.xml"))
      | _, Error e -> Error e
      | n, _ -> Error (Printf.sprintf "%d lint error(s)" n));
  step 3 (fun () ->
      let desk = Trace.load_desktop dst in
      let app =
        Trace.span "slimpad.load" (fun () ->
            Slimpad.load desk (Filename.concat dst "pad.xml"))
      in
      Result.bind app (fun app ->
          let dmi = Slimpad.dmi app in
          match Dmi.pads dmi with
          | [ p ] when Dmi.bundle_descendant_count dmi (Dmi.root_bundle dmi p) = (r.r_bundles, r.r_scraps) ->
              Ok ()
          | _ -> Error "restored pad differs"));
  if Si_bundle.content_digest !bytes <> Ok !digest then
    errors := "capture and apply digests differ" :: !errors;
  let b = !bytes in
  Gen.rm_rf dst;
  Gen.rm_rf bundle;
  (List.rev !times, !errors, b)

let captivity_layers env prepared (r : Gen.rounds) =
  let src = Filename.concat env.work "traced-source" in
  Gen.copy_dir (pristine env) src;
  Trace.reset ();
  let w0 = Trace.words () in
  let plain, plain_errs, _ = captivity_cycle env r ~tag:"p" in
  let words = Trace.words () -. w0 in
  Trace.tracing := true;
  let traced, traced_errs, bytes = captivity_cycle env r ~tag:"t" in
  Trace.tracing := false;
  Gen.rm_rf src;
  let spans = Trace.collected () in
  let overhead = (sum traced /. sum plain) -. 1. in
  let unattributed = write_trace env prepared spans ~overhead in
  (* Bytes of the sections whose name starts with [prefix]. *)
  let section prefix =
    match Si_wal.Binary.decode bytes with
    | Ok sections ->
        float_of_int
          (List.fold_left
             (fun n (s, payload) ->
               if String.starts_with ~prefix s then n + String.length payload else n)
             0 sections)
    | Error _ -> 0.
  in
  let ms names = span_total spans names /. 1e6 in
  let errors = plain_errs @ traced_errs in
  ( [
      ("bundle.capture_ms", ms [ "bundle.capture" ]);
      ("bundle.verify_ms", ms [ "bundle.verify" ]);
      ("bundle.apply_ms", ms [ "bundle.apply" ]);
      ("bundle.triples_bytes", section "triples");
      ("bundle.marks_bytes", section "marks");
      ("bundle.bases_bytes", section "base:");
      ("lint.preflight_ms", ms [ "lint.preflight" ]);
      ("slimpad.save_ms", ms [ "slimpad.save" ]);
      ("slimpad.load_ms", ms [ "slimpad.load" ]);
      ("desktop.load_ms", ms [ "desktop.load" ]);
      ("wal.recover_s", span_total spans [ "wal.recover" ] /. 1e9);
      ("wal.snapshot_bytes", snapshot_bytes env);
      ("alloc.words_per_req", words /. 4.);
      ("trace.overhead_frac", overhead);
      ("trace.unattributed_frac", unattributed);
    ],
    8,
    List.length errors,
    errors )

(* Per-layer metrics of one workload; a layer the workload does not
   cross reads 0. *)
let layers env prepared =
  match prepared with
  | Captivity (r, _) -> captivity_layers env prepared r
  | Rounds _ | Lookup _ | Ingest _ ->
      let sv, sa, sf, se = served_layers env prepared in
      let rv, ra, rf, re = replay_layers env prepared in
      (sv @ rv, sa + ra, sf + rf, se @ re)
