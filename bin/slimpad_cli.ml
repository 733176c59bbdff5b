(* slimpad — command-line SLIMPad.

   Operates on workspace directories (see bin/workspace.ml for the layout);
   `slimpad init --scenario icu DIR` generates a ready-made one. *)

module Desktop = Si_mark.Desktop
module Manager = Si_mark.Manager
module Mark = Si_mark.Mark
module Dmi = Si_slim.Dmi
module Slimpad = Si_slimpad.Slimpad

(* Close the log on the way out: a one-shot CLI must flush any
   group-commit buffer and release the single-writer pid lock, or the
   next invocation has to take the lock over as stale. Commands that
   already closed (serve, replication) see a no-op second close. The
   check happens after [f] — it may itself enable journaling. *)
let closed_wal app code =
  match Slimpad.persistence app with
  | Slimpad.Whole_file -> code
  | Slimpad.Journaled -> (
      match Slimpad.wal_close app with
      | Ok () -> code
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          max code 1)

let with_workspace ?wrap dir f =
  match Workspace.open_workspace ?wrap dir with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok app -> closed_wal app (f app)

(* Persist, then continue — a failed save is a hard error, and the
   atomic-write protocol guarantees the previous store file survives it. *)
let saved dir app k =
  match Workspace.save_workspace dir app with
  | Ok () -> k ()
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

let find_pad_or_first app = function
  | Some name -> (
      match Dmi.find_pad (Slimpad.dmi app) name with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "no pad named %S" name))
  | None -> (
      match Dmi.pads (Slimpad.dmi app) with
      | p :: _ -> Ok p
      | [] -> Error "the workspace has no pads; create one with add-pad")

let find_scrap app pad label =
  match Slimpad.find_scraps app pad label with
  | [ s ] -> Ok s
  | [] -> Error (Printf.sprintf "no scrap matching %S" label)
  | many ->
      Error
        (Printf.sprintf "%d scraps match %S; be more specific"
           (List.length many) label)

let find_bundle app pad name =
  let t = Slimpad.dmi app in
  let rec search b =
    if Dmi.bundle_name t b = name then Some b
    else List.find_map search (Dmi.nested_bundles t b)
  in
  match search (Dmi.root_bundle t pad) with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "no bundle named %S in the pad" name)

(* ------------------------------------------------------------ commands *)

let cmd_init dir scenario seed wal =
  if Sys.file_exists dir && Array.length (Sys.readdir dir) > 0 then begin
    Printf.eprintf "error: %s exists and is not empty\n" dir;
    1
  end
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let desk = Desktop.create () in
    let app, built =
      match scenario with
      | "icu" ->
          let spec = Si_workload.Icu.build_desktop ~seed desk in
          let app = Slimpad.create desk in
          let _ = Si_workload.Icu.build_worksheet app spec in
          (app, "ICU rounds worksheet")
      | "atc" ->
          let spec = Si_workload.Atc.build_desktop ~seed desk in
          let app = Slimpad.create desk in
          let _ = Si_workload.Atc.build_board app spec in
          (app, "air-traffic sector board")
      | "concordance" ->
          Si_workload.Concordance.install_play desk;
          let app = Slimpad.create desk in
          let _ =
            Si_workload.Concordance.build app
              ~terms:[ "sleep"; "death"; "dream"; "conscience" ]
          in
          (app, "Hamlet concordance")
      | "empty" -> (Slimpad.create desk, "empty workspace")
      | other ->
          Printf.eprintf "error: unknown scenario %S\n" other;
          exit 1
    in
    (* Persist the generated base documents as files. *)
    List.iter
      (fun (kind, name) ->
        let path = Filename.concat dir name in
        match kind with
        | "excel" ->
            Si_spreadsheet.Workbook.save
              (Result.get_ok (Desktop.open_workbook desk name))
              (path ^ ".workbook.xml")
        | "xml" ->
            Si_xmlk.Print.to_file (path)
              (Result.get_ok (Desktop.open_xml desk name))
        | "text" ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (Si_textdoc.Textdoc.to_string
                     (Result.get_ok (Desktop.open_text desk name))))
        | _ -> ())
      (Desktop.document_names desk);
    if wal then
      match Slimpad.enable_wal app (Workspace.wal_path dir) with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok () ->
          Printf.printf "initialized %s in %s (journaled persistence)\n"
            built dir;
          closed_wal app 0
    else
      saved dir app (fun () ->
          Printf.printf "initialized %s in %s\n" built dir;
          0)
  end

let cmd_show dir pad_name =
  with_workspace dir (fun app ->
      match find_pad_or_first app pad_name with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok pad ->
          print_string (Slimpad.render_pad app pad);
          0)

let cmd_pads dir =
  with_workspace dir (fun app ->
      let t = Slimpad.dmi app in
      List.iter
        (fun p ->
          let bundles, scraps =
            Dmi.bundle_descendant_count t (Dmi.root_bundle t p)
          in
          Printf.printf "%s (%d bundles, %d scraps)\n" (Dmi.pad_name t p)
            bundles scraps)
        (Dmi.pads t);
      0)

let cmd_docs dir =
  with_workspace dir (fun app ->
      List.iter
        (fun (kind, name) -> Printf.printf "%-7s %s\n" kind name)
        (Desktop.document_names (Slimpad.desktop app));
      0)

let cmd_add_pad dir name =
  with_workspace dir (fun app ->
      let _ = Slimpad.new_pad app name in
      saved dir app (fun () ->
          Printf.printf "created pad %S\n" name;
          0))

let cmd_add_bundle dir pad_name parent name =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* parent =
        match parent with
        | None -> Ok (Dmi.root_bundle (Slimpad.dmi app) pad)
        | Some p -> find_bundle app pad p
      in
      let _ = Slimpad.add_bundle app ~parent ~name () in
      saved dir app (fun () ->
          Printf.printf "created bundle %S\n" name;
          0))

let parse_field s =
  match String.index_opt s '=' with
  | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> Error (Printf.sprintf "field %S is not key=value" s)

let cmd_add_scrap dir pad_name parent name mark_type fields =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* parent =
        match parent with
        | None -> Ok (Dmi.root_bundle (Slimpad.dmi app) pad)
        | Some p -> find_bundle app pad p
      in
      let rec parse_all acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
            match parse_field f with
            | Ok kv -> parse_all (kv :: acc) rest
            | Error _ as e -> e)
      in
      let* fields = parse_all [] fields in
      let* scrap =
        Slimpad.add_scrap app ~parent ~name ~mark_type ~fields ()
      in
      saved dir app (fun () ->
          Printf.printf "created scrap %S -> %s\n"
            (Dmi.scrap_name (Slimpad.dmi app) scrap)
            (Slimpad.render_scrap_line app scrap);
          0))

let behaviour_of_string = function
  | "navigate" -> Ok Mark.Navigate
  | "extract" -> Ok Mark.Extract_content
  | "inplace" -> Ok Mark.Display_in_place
  | other -> Error (Printf.sprintf "unknown behaviour %S" other)

let cmd_resolve dir pad_name label behaviour =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* scrap = find_scrap app pad label in
      let* behaviour = behaviour_of_string behaviour in
      let* res = Slimpad.double_click app scrap in
      print_endline (Mark.apply_behaviour behaviour res);
      0)

let cmd_annotate dir pad_name label text =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* scrap = find_scrap app pad label in
      Dmi.annotate_scrap (Slimpad.dmi app) scrap text;
      saved dir app (fun () -> 0))

let cmd_link dir pad_name from_label to_label label =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* from_ = find_scrap app pad from_label in
      let* to_ = find_scrap app pad to_label in
      let _ = Dmi.link_scraps (Slimpad.dmi app) ?label ~from_ ~to_ () in
      saved dir app (fun () -> 0))

let cmd_drift dir pad_name refresh =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let t = Slimpad.dmi app in
      let report = Slimpad.drift_report app pad in
      if report = [] then print_endline "all scraps current"
      else
        List.iter
          (fun (scrap, drift) ->
            match drift with
            | Manager.Changed { was; now } ->
                Printf.printf "changed  %s: %S -> %S\n"
                  (Dmi.scrap_name t scrap) was now
            | Manager.Unresolvable err ->
                Printf.printf "broken   %s: %s\n" (Dmi.scrap_name t scrap)
                  (Manager.resolve_error_to_string err)
            | Manager.Quarantined err ->
                Printf.printf "quarantined %s: %s\n" (Dmi.scrap_name t scrap)
                  (Manager.resolve_error_to_string err)
            | Manager.Unchanged -> ())
          report;
      if refresh then
        let n = Slimpad.refresh_pad app pad in
        saved dir app (fun () ->
            Printf.printf "refreshed %d scrap(s)\n" n;
            0)
      else 0)

let cmd_query dir text =
  with_workspace dir (fun app ->
      match Slimpad.query app text with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok rows ->
          List.iter print_endline rows;
          Printf.printf "(%d rows)\n" (List.length rows);
          0)

let cmd_validate dir =
  with_workspace dir (fun app ->
      let report = Dmi.validate (Slimpad.dmi app) in
      print_string (Si_metamodel.Validate.report_to_string report);
      if report.Si_metamodel.Validate.violations = [] then 0 else 1)

let cmd_import dir file pad_name rename =
  with_workspace dir (fun app ->
      match Slimpad.import_pad app ~from_file:file ?pad_name ?rename () with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok pad ->
          saved dir app (fun () ->
              Printf.printf "imported pad %S\n"
                (Dmi.pad_name (Slimpad.dmi app) pad);
              0))

let cmd_template dir pad_name bundle_name off =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* bundle = find_bundle app pad bundle_name in
      Dmi.set_template (Slimpad.dmi app) bundle (not off);
      saved dir app (fun () ->
          Printf.printf "%s is %s a template\n" bundle_name
            (if off then "no longer" else "now");
          0))

let cmd_instantiate dir pad_name template_name new_name parent =
  with_workspace dir (fun app ->
      let ( let* ) r f =
        match r with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok v -> f v
      in
      let* pad = find_pad_or_first app pad_name in
      let* template = find_bundle app pad template_name in
      let* parent =
        match parent with
        | None -> Ok (Dmi.root_bundle (Slimpad.dmi app) pad)
        | Some p -> find_bundle app pad p
      in
      let* copy =
        Dmi.instantiate_template (Slimpad.dmi app) ~template ~name:new_name
          ~parent
      in
      saved dir app (fun () ->
          Printf.printf "instantiated %S from %S\n"
            (Dmi.bundle_name (Slimpad.dmi app) copy)
            template_name;
          0))

let cmd_export_html dir pad_name out =
  with_workspace dir (fun app ->
      match find_pad_or_first app pad_name with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok pad ->
          let html = Slimpad.render_pad_html app pad in
          (match out with
          | Some path ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc html);
              Printf.printf "wrote %s (%d bytes)\n" path (String.length html)
          | None -> print_string html);
          0)

let cmd_model dir =
  with_workspace dir (fun app ->
      let bm = Dmi.model (Slimpad.dmi app) in
      print_string
        (Si_metamodel.Model_dsl.print bm.Si_slim.Bundle_model.model);
      0)

let cmd_history dir last =
  with_workspace dir (fun app ->
      let entries = Dmi.journal (Slimpad.dmi app) in
      let entries =
        match last with
        | None -> entries
        | Some n ->
            let skip = max 0 (List.length entries - n) in
            List.filteri (fun i _ -> i >= skip) entries
      in
      List.iter
        (fun (e : Dmi.journal_entry) ->
          Printf.printf "%4d  %-22s %-12s %s\n" e.Dmi.seq e.Dmi.op
            e.Dmi.target e.Dmi.detail)
        entries;
      0)

let cmd_health dir pad_name inject_rate inject_source seed passes =
  let wrap =
    (* Optional scripted outage, for demonstrating and exercising the
       breakers from the command line. *)
    match inject_rate with
    | None -> None
    | Some rate ->
        let only =
          match inject_source with [] -> None | l -> Some l
        in
        Some
          (Si_workload.Faults.wrap
             (Si_workload.Faults.create ~seed ?only
                (Si_workload.Faults.Fail_rate rate)))
  in
  with_workspace ?wrap dir (fun app ->
      match find_pad_or_first app pad_name with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok pad ->
          (* Extra passes drive the breakers through their lifecycle
             (trip, cool down, probe) before the reported sweep. *)
          for _ = 2 to passes do
            ignore (Slimpad.pad_health app pad)
          done;
          let h = Slimpad.pad_health app pad in
          Printf.printf "scraps: %d fresh, %d degraded, %d quarantined, %d dangling\n"
            h.Slimpad.fresh h.Slimpad.degraded h.Slimpad.quarantined
            h.Slimpad.dangling;
          (match Slimpad.health app with
          | [] -> print_endline "breakers: (no base source touched yet)"
          | infos ->
              print_endline "breakers:";
              List.iter
                (fun (i : Si_mark.Resilient.breaker_info) ->
                  Printf.printf
                    "  %-28s %-9s ok=%d fail=%d consecutive=%d rejected=%d probe-failures=%d%s\n"
                    i.Si_mark.Resilient.source
                    (Si_mark.Resilient.state_to_string
                       i.Si_mark.Resilient.state)
                    i.Si_mark.Resilient.total_successes
                    i.Si_mark.Resilient.total_failures
                    i.Si_mark.Resilient.consecutive_failures
                    i.Si_mark.Resilient.rejected
                    i.Si_mark.Resilient.probe_failures
                    (if
                       Si_mark.Resilient.quarantined (Slimpad.resilient app)
                         i.Si_mark.Resilient.source
                     then " QUARANTINED"
                     else ""))
                infos);
          if h.Slimpad.quarantined > 0 || h.Slimpad.dangling > 0 then 1
          else 0)

let marks_by_type app =
  let by_type = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let k = m.Si_mark.Mark.mark_type in
      Hashtbl.replace by_type k
        (1 + Option.value (Hashtbl.find_opt by_type k) ~default:0))
    (Manager.marks (Slimpad.marks app));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_type [] |> List.sort compare

let cmd_stats dir json =
  with_workspace dir (fun app ->
      let t = Slimpad.dmi app in
      let trim = Dmi.trim t in
      if json then begin
        (* Workspace shape plus the Si_obs instrumentation (the
           counters cover the work this very open performed: WAL
           recovery, store loading, resolution). *)
        let workspace =
          Si_obs.Json.Obj
            [
              ("store", Si_obs.Json.String (Si_triple.Trim.store_name trim));
              ("triples", Si_obs.Json.Int (Si_triple.Trim.size trim));
              ("pads", Si_obs.Json.Int (List.length (Dmi.pads t)));
              ( "marks",
                Si_obs.Json.Int (Manager.mark_count (Slimpad.marks app)) );
              ( "marks_by_type",
                Si_obs.Json.Obj
                  (List.map
                     (fun (k, v) -> (k, Si_obs.Json.Int v))
                     (marks_by_type app)) );
              ( "documents",
                Si_obs.Json.Int
                  (List.length
                     (Desktop.document_names (Slimpad.desktop app))) );
            ]
        in
        let doc =
          Si_obs.Json.Obj
            [
              ("workspace", workspace);
              ("instrumentation", Si_obs.Report.to_json (Slimpad.stats ()));
            ]
        in
        print_endline (Si_obs.Json.to_string ~pretty:true doc);
        0
      end
      else begin
        Printf.printf "store implementation : %s\n"
          (Si_triple.Trim.store_name trim);
        Printf.printf "triples              : %d\n" (Si_triple.Trim.size trim);
        Printf.printf "pads                 : %d\n" (List.length (Dmi.pads t));
        Printf.printf "marks                : %d\n"
          (Manager.mark_count (Slimpad.marks app));
        List.iter
          (fun (k, v) -> Printf.printf "  %-19s: %d\n" k v)
          (marks_by_type app);
        Printf.printf "mark modules         : %s\n"
          (String.concat ", " (Manager.module_names (Slimpad.marks app)));
        Printf.printf "base documents       : %d\n"
          (List.length (Desktop.document_names (Slimpad.desktop app)));
        let instr = Slimpad.stats_text () in
        if instr <> "" then begin
          print_newline ();
          print_string instr
        end;
        0
      end)

(* `slimpad trace` runs one gesture with span tracing enabled and
   prints the resulting span tree. Tracing covers only the gesture
   (for `open`, the workspace open itself), so the tree is the
   end-to-end path through the layers: query.run over triple.select,
   wal.recover, resilient resolution, ... *)
let cmd_trace dir gesture arg no_timings =
  let timings = not no_timings in
  let print_tree spans =
    let tree = Si_obs.Report.span_tree ~timings spans in
    if tree = "" then print_endline "(no spans recorded)"
    else print_string tree
  in
  let need_arg what =
    Printf.eprintf "error: trace %s needs %s\n" gesture what;
    1
  in
  match gesture with
  | "open" ->
      let result, spans =
        Slimpad.with_tracing (fun () -> Workspace.open_workspace dir)
      in
      print_tree spans;
      (match result with
      | Ok app -> closed_wal app 0
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1)
  | "query" -> (
      match arg with
      | None -> need_arg "the query text"
      | Some text ->
          with_workspace dir (fun app ->
              let result, spans =
                Slimpad.with_tracing (fun () -> Slimpad.query app text)
              in
              print_tree spans;
              match result with
              | Ok rows ->
                  Printf.printf "(%d rows)\n" (List.length rows);
                  0
              | Error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  1))
  | "resolve" -> (
      match arg with
      | None -> need_arg "a scrap label"
      | Some label ->
          with_workspace dir (fun app ->
              match
                Result.bind (find_pad_or_first app None) (fun pad ->
                    find_scrap app pad label)
              with
              | Error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  1
              | Ok scrap -> (
                  let result, spans =
                    Slimpad.with_tracing (fun () ->
                        Slimpad.resolve_scrap app scrap)
                  in
                  print_tree spans;
                  match result with
                  | Ok _ -> 0
                  | Error e ->
                      Printf.eprintf "error: %s\n"
                        (Manager.resolve_error_to_string e);
                      1)))
  | other ->
      Printf.eprintf
        "error: unknown trace gesture %S (one of open, query, resolve)\n"
        other;
      1

(* ------------------------------------------------- journaled persistence *)

let cmd_wal_enable dir =
  with_workspace dir (fun app ->
      match Slimpad.persistence app with
      | Slimpad.Journaled ->
          Printf.printf "workspace is already journaled\n";
          0
      | Slimpad.Whole_file -> (
          match Slimpad.enable_wal app (Workspace.wal_path dir) with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok () ->
              (* The whole-file store is superseded by the snapshot the
                 conversion just cut; leaving it would shadow nothing
                 (the log wins on open) but would go stale. *)
              let store = Workspace.pad_store dir in
              if Sys.file_exists store then Sys.remove store;
              Printf.printf
                "enabled journaled persistence; state snapshot in pad.wal.snap\n";
              0))

let cmd_wal_inspect dir =
  match Si_wal.Log.inspect (Workspace.wal_path dir) with
  | Error e ->
      Printf.eprintf "error: %s\n" (Si_wal.Log.error_to_string e);
      1
  | Ok info ->
      Printf.printf "generation     %d\n" info.Si_wal.Log.info_generation;
      Printf.printf "records        %d\n" info.Si_wal.Log.info_records;
      Printf.printf "log bytes      %d\n" info.Si_wal.Log.info_log_bytes;
      (match info.Si_wal.Log.info_snapshot_bytes with
      | Some n -> Printf.printf "snapshot bytes %d\n" n
      | None -> Printf.printf "snapshot       none\n");
      (* Offline per-snapshot detail: format (old pads carry XML
         snapshots until their next compaction), atom-table size, and
         per-section byte counts of the binary container. *)
      (match Si_wal.Log.dump (Workspace.wal_path dir) with
      | Error _ -> ()
      | Ok d -> (
          match d.Si_wal.Log.dump_snapshot with
          | None -> ()
          | Some payload when not (Si_wal.Binary.is_binary payload) ->
              Printf.printf "snapshot form  xml\n"
          | Some payload -> (
              Printf.printf "snapshot form  binary\n";
              match Si_wal.Binary.decode payload with
              | Error e -> Printf.printf "snapshot damage %s\n" e
              | Ok sections ->
                  List.iter
                    (fun (name, body) ->
                      let detail =
                        if String.length body < 4 then ""
                        else
                          match name with
                          | "atoms" ->
                              Printf.sprintf " (%d atoms)"
                                (Si_wal.Record.get_u32 body 0)
                          | "triples" ->
                              Printf.sprintf " (%d rows)"
                                (Si_wal.Record.get_u32 body 0)
                          | _ -> ""
                      in
                      Printf.printf "  %-12s %d bytes%s\n" name
                        (String.length body) detail)
                    sections)));
      if info.Si_wal.Log.info_torn_bytes > 0 then
        Printf.printf "torn bytes     %d (a recovery will truncate these)\n"
          info.Si_wal.Log.info_torn_bytes;
      if info.Si_wal.Log.info_stale_log then
        Printf.printf
          "stale log      yes (superseded by snapshot; a recovery will \
           discard it)\n";
      0

let cmd_wal_compact dir =
  with_workspace dir (fun app ->
      match Slimpad.wal app with
      | None ->
          Printf.eprintf
            "error: workspace is not journaled (run wal-enable first)\n";
          1
      | Some log -> (
          let before = Si_wal.Log.record_count log in
          match Slimpad.wal_compact app with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok () ->
              Printf.printf
                "compacted: folded %d record(s) into the generation-%d \
                 snapshot\n"
                before
                (Si_wal.Log.generation log);
              0))

(* ----------------------------------------------------------------- lint *)

(* `slimpad lint` analyses without opening the log or recovering
   anything: a journaled workspace is rebuilt offline from Log.dump, so
   a second lint run sees the same torn tail the first one reported.
   Only --fix opens the store for writing. *)

let raw_triples_of_root root =
  let root = Si_xmlk.Node.strip_whitespace root in
  let triples_el =
    (* A <slimpad-store> wraps its <triples>; a bare Trim.save file IS
       the <triples> element. *)
    match root with
    | Si_xmlk.Node.Element { name = "triples"; _ } -> Some root
    | _ -> Si_xmlk.Node.find_child "triples" root
  in
  match triples_el with
  | None -> None
  | Some triples -> (
      match Si_triple.Trim.triples_of_xml triples with
      | Ok l -> Some l
      | Error _ -> None)

let raw_triples_of_file path =
  match Si_xmlk.Parse.file path with
  | Error _ -> None
  | Ok root -> raw_triples_of_root root

let raw_triples_of_payload payload =
  match Si_xmlk.Parse.node payload with
  | Error _ -> None
  | Ok root -> raw_triples_of_root root

let lint_context_of_app ?raw_triples ?store_file ?wal_path ?archive
    ?workspace ?bundle app =
  Si_lint.context ~dmi:(Slimpad.dmi app) ~marks:(Slimpad.marks app)
    ~resilient:(Slimpad.resilient app) ?raw_triples ?store_file ?wal_path
    ?archive ?workspace ?bundle ()

(* The read-only analysis context for a target; warnings (unloadable
   base documents, an unrestorable store) go to stderr but never stop
   the lint — WAL rules still run over whatever is on disk. *)
let lint_context ?archive ?bundle target =
  if Sys.file_exists target && not (Sys.is_directory target) then
    (* A bare pad store file. *)
    let desk = Desktop.create () in
    match Slimpad.load desk target with
    | Error msg ->
        Printf.eprintf "warning: %s: %s\n" target msg;
        Ok (Si_lint.context ?raw_triples:(raw_triples_of_file target)
              ~store_file:target ?archive ?bundle ())
    | Ok app ->
        Ok (lint_context_of_app
              ?raw_triples:(raw_triples_of_file target)
              ~store_file:target ?archive ?bundle app)
  else if Sys.file_exists target then begin
    let desk, problems = Workspace.load_desktop target in
    List.iter (Printf.eprintf "warning: %s\n") problems;
    (* A workspace that has been a shipping leader carries its archive
       alongside the log; lint it too unless --archive overrode it. *)
    let archive =
      match archive with
      | Some _ -> archive
      | None ->
          let a = Workspace.archive_path target in
          if Sys.file_exists a && Sys.is_directory a then Some a else None
    in
    if Workspace.wal_present target then
      let wal_path = Workspace.wal_path target in
      match Si_wal.Log.dump wal_path with
      | Error e -> Error (Si_wal.Log.error_to_string e)
      | Ok dump -> (
          let raw_triples =
            Option.bind dump.Si_wal.Log.dump_snapshot raw_triples_of_payload
          in
          match Slimpad.restore_offline desk dump with
          | Error msg ->
              (* Unrestorable snapshot: lint what the WAL rules can see. *)
              Printf.eprintf "warning: %s\n" msg;
              Ok
                (Si_lint.context ?raw_triples ~wal_path ?archive
                   ~workspace:target ?bundle ())
          | Ok (app, _) ->
              Ok
                (lint_context_of_app ?raw_triples ~wal_path ?archive
                   ~workspace:target ?bundle app))
    else
      let store = Workspace.pad_store target in
      if not (Sys.file_exists store) then
        Error (Printf.sprintf "%s: no pad.xml or pad.wal" target)
      else
        match Slimpad.load desk store with
        | Error msg ->
            Printf.eprintf "warning: %s: %s\n" store msg;
            Ok (Si_lint.context ?raw_triples:(raw_triples_of_file store)
                  ~store_file:store ?archive ~workspace:target ?bundle ())
        | Ok app ->
            Ok (lint_context_of_app
                  ?raw_triples:(raw_triples_of_file store)
                  ~store_file:store ?archive ~workspace:target ?bundle app)
  end
  else Error (Printf.sprintf "%s: no such file or directory" target)

(* Apply the safe repairs against a live (writable) store, persist
   them, and release it. Returns the fix report. *)
let lint_apply_fixes target diags =
  let finish app report =
    let dedup_via_compaction =
      Slimpad.persistence app = Slimpad.Journaled
      && report.Si_lint.duplicate_triples > 0
    in
    match
      if dedup_via_compaction then Slimpad.wal_compact app
      else Stdlib.Ok ()
    with
    | Error _ as e -> e
    | Ok () -> (
        match
          match Slimpad.persistence app with
          | Slimpad.Journaled ->
              (* Flush the repair records, then close so the re-lint
                 reads a quiescent log. *)
              Result.bind (Slimpad.wal_sync app) (fun () ->
                  Slimpad.wal_close app)
          | Slimpad.Whole_file ->
              if Sys.is_directory target then
                Slimpad.save app (Workspace.pad_store target)
              else Slimpad.save app target
        with
        | Error _ as e -> e
        | Ok () -> Stdlib.Ok report)
  in
  let open_live () =
    if Sys.file_exists target && not (Sys.is_directory target) then
      Slimpad.load (Desktop.create ()) target
    else Workspace.open_workspace target
  in
  match open_live () with
  | Error _ as e -> e
  | Ok app -> (
      match Si_lint.fix (lint_context_of_app app) diags with
      | Error _ as e -> e
      | Ok report -> finish app report)

let cmd_lint target json fix archive bundle =
  let print_report diags =
    if json then print_string (Si_lint.to_json diags)
    else print_string (Si_lint.to_text diags)
  in
  let exit_code diags =
    if Si_lint.count Si_lint.Error diags > 0 then 1 else 0
  in
  (* --bundle alone verifies the artifact offline (SL308); with a
     target, the bundle rides along in the same run. *)
  let context () =
    match (target, bundle) with
    | Some target, _ -> lint_context ?archive ?bundle target
    | None, Some _ -> Ok (Si_lint.context ?bundle ())
    | None, None ->
        Error "pass a TARGET (workspace or store file) or --bundle FILE"
  in
  match context () with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok ctx -> (
      let diags = Si_lint.run ctx in
      if not fix then begin
        print_report diags;
        exit_code diags
      end
      else
        match
          if List.exists (fun d -> d.Si_lint.fixable) diags then target
          else None
        with
        | None ->
            Printf.eprintf "nothing to fix\n";
            print_report diags;
            exit_code diags
        | Some target -> (
            match lint_apply_fixes target diags with
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                1
            | Ok report -> (
                Printf.eprintf
                  "fixed: removed %d orphaned layout triple(s), dropped %d \
                   duplicate triple(s), deleted %d orphaned temp file(s)\n"
                  report.Si_lint.removed_layout_triples
                  report.Si_lint.duplicate_triples
                  report.Si_lint.removed_temp_files;
                (* Re-lint from disk so the report reflects what the next
                   open will actually see. *)
                match lint_context ?archive ?bundle target with
                | Error msg ->
                    Printf.eprintf "error: %s\n" msg;
                    1
                | Ok ctx ->
                    let diags = Si_lint.run ctx in
                    print_report diags;
                    exit_code diags)))

(* --------------------------------------------------------------- bundles *)

let print_problems problems =
  List.iter
    (fun p -> Printf.printf "  problem: %s\n" (Si_bundle.problem_to_string p))
    problems

(* Greedy by design: per-document read failures land in the report, the
   artifact is still written, and the exit code stays 0 — a partially
   captured bundle beats no bundle (paper §5: the superimposed layer
   outlives its bases). *)
let cmd_capture dir out with_bases =
  with_workspace dir (fun app ->
      let bases =
        if with_bases then Some (Si_bundle.Layout.reader ~dir) else None
      in
      match Si_bundle.capture_to_file ~workspace_id:dir ?bases app ~path:out
      with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok report ->
          Printf.printf
            "captured %d triple(s), %d mark(s), %d base document(s) to %s\n"
            report.Si_bundle.captured_triples report.Si_bundle.captured_marks
            report.Si_bundle.captured_bases out;
          print_problems report.Si_bundle.capture_problems;
          Printf.printf "content digest %s\n"
            report.Si_bundle.captured_digest;
          0)

(* The import gate [--strict] rides on: load the bundle's content into a
   scratch pad and run the full lint catalog over it before the real
   workspace is touched at all. *)
let bundle_preflight bytes =
  match Slimpad.of_snapshot_bytes (Desktop.create ()) bytes with
  | Error e -> Error ("bundle does not load: " ^ e)
  | Ok scratch ->
      let ctx =
        Si_lint.context ~dmi:(Slimpad.dmi scratch)
          ~marks:(Slimpad.marks scratch) ()
      in
      let errors = Si_lint.count Si_lint.Error (Si_lint.run ctx) in
      if errors = 0 then Ok ()
      else
        Error
          (Printf.sprintf "bundle is dirty: %d lint error(s); not applied"
             errors)

let cmd_apply dir file excerpts bases strict =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    1
  in
  match Si_bundle.read_file file with
  | Error msg -> fail msg
  | Ok bytes -> (
      match if strict then bundle_preflight bytes else Ok () with
      | Error msg -> fail msg
      | Ok () ->
          (if not (Sys.file_exists dir) then
             try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
          with_workspace dir (fun app ->
              let bases =
                if bases then Some (Si_bundle.Layout.writer ~dir) else None
              in
              match Si_bundle.apply ~excerpts ?bases app bytes with
              | Error msg -> fail msg
              | Ok report ->
                  Printf.printf
                    "applied %d triple(s) (%d already present), %d mark(s) \
                     (%d already present)\n"
                    report.Si_bundle.added_triples
                    report.Si_bundle.skipped_triples
                    report.Si_bundle.installed_marks
                    report.Si_bundle.skipped_marks;
                  if report.Si_bundle.restored_excerpts > 0 then
                    Printf.printf "restored %d cached excerpt(s)\n"
                      report.Si_bundle.restored_excerpts;
                  if
                    report.Si_bundle.restored_bases > 0
                    || report.Si_bundle.skipped_bases > 0
                  then
                    Printf.printf
                      "restored %d base document(s) (%d already present)\n"
                      report.Si_bundle.restored_bases
                      report.Si_bundle.skipped_bases;
                  print_problems report.Si_bundle.apply_problems;
                  saved dir app (fun () ->
                      Printf.printf "content digest %s\n"
                        (Si_bundle.app_digest app);
                      0)))

(* ------------------------------------------------------------ replication *)

let split_endpoint s =
  let bad () =
    Error (Printf.sprintf "bad endpoint %S (expected HOST:PORT or PORT)" s)
  in
  match String.rindex_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some p -> Ok ("127.0.0.1", p)
      | None -> bad ())
  | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some p -> Ok ((if host = "" then "127.0.0.1" else host), p)
      | None -> bad ())

let open_workspace_replica ?bootstrap dir =
  (* A bootstrapped follower usually starts from nothing at all. *)
  (if bootstrap <> None && not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let desk, problems = Workspace.load_desktop dir in
  List.iter (Printf.eprintf "warning: %s\n") problems;
  Slimpad.open_replica ?bootstrap desk (Workspace.wal_path dir)

(* Follower mode: serve the replica protocol over a socket until SIGINT
   (or, with --until-seq, until the applied prefix reaches the target —
   how a script waits for catch-up). *)
let serve_replica ?bootstrap dir port until_seq =
  match open_workspace_replica ?bootstrap dir with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (app, _) -> (
      let r = Option.get (Slimpad.replica app) in
      match Si_wal.Tcp.serve ~port (Si_wal.Replica.handle r) with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          ignore (Slimpad.wal_close app);
          1
      | Ok server ->
          Printf.printf "replica serving on port %d (term %d, applied %d)\n%!"
            (Si_wal.Tcp.port server)
            (Si_wal.Replica.term r)
            (Si_wal.Replica.applied r);
          let stop = ref false in
          let previous =
            Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
          in
          let target = Option.value until_seq ~default:max_int in
          while (not !stop) && Si_wal.Replica.applied r < target do
            try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          Sys.set_signal Sys.sigint previous;
          Si_wal.Tcp.shutdown server;
          Printf.printf "replica stopped: term %d, applied %d, lag %d\n"
            (Si_wal.Replica.term r)
            (Si_wal.Replica.applied r)
            (Si_wal.Replica.lag r);
          (match Slimpad.wal_close app with
          | Ok () -> 0
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1))

(* Leader mode: one shipping round — resume (or start) the stream,
   attach each follower over TCP, push until everyone is caught up or
   out of retry budget, and report per-follower acks. *)
let ship_round dir endpoints checkpoint =
  with_workspace dir (fun app ->
      match Slimpad.wal app with
      | None ->
          Printf.eprintf
            "error: workspace is not journaled (run wal-enable first)\n";
          1
      | Some _ -> (
          match
            Slimpad.start_shipping app ~archive:(Workspace.archive_path dir)
          with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok () ->
              let clients = ref [] in
              let finish code =
                List.iter Si_wal.Tcp.close !clients;
                match Slimpad.wal_close app with
                | Ok () -> code
                | Error msg ->
                    Printf.eprintf "error: %s\n" msg;
                    max code 1
              in
              let attach ep =
                match split_endpoint ep with
                | Error _ as e -> e
                | Ok (addr, port) -> (
                    match Si_wal.Tcp.connect ~addr ~port () with
                    | Error e -> Error (Printf.sprintf "%s: %s" ep e)
                    | Ok c ->
                        clients := c :: !clients;
                        Result.map_error
                          (Printf.sprintf "%s: %s" ep)
                          (Slimpad.attach_follower app ~name:ep
                             (Si_wal.Tcp.transport c)))
              in
              let round =
                List.fold_left
                  (fun acc ep -> Result.bind acc (fun () -> attach ep))
                  (Ok ()) endpoints
                |> Fun.flip Result.bind (fun () -> Slimpad.ship app)
                |> Fun.flip Result.bind (fun () ->
                       if checkpoint then Slimpad.ship_checkpoint app
                       else Ok ())
              in
              (match round with
              | Error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  finish 1
              | Ok () ->
                  let sh = Option.get (Slimpad.shipper app) in
                  Printf.printf "term %d, stream at seq %d\n"
                    (Si_wal.Ship.term sh) (Si_wal.Ship.seq sh);
                  List.iter
                    (fun (name, acked) ->
                      Printf.printf "  %-24s acked %d\n" name acked)
                    (Si_wal.Ship.followers sh);
                  let lag = Si_wal.Ship.lag sh in
                  if lag > 0 then
                    Printf.printf "  most-behind follower needs %d record(s)\n"
                      lag;
                  finish (if lag > 0 then 1 else 0))))

let cmd_replicate dir serve until_seq followers checkpoint bootstrap =
  let boot =
    match bootstrap with
    | None -> Ok None
    | Some file -> Result.map Option.some (Si_bundle.read_file file)
  in
  match boot with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok bootstrap -> (
      match (serve, followers) with
      | Some port, [] -> serve_replica ?bootstrap dir port until_seq
      | Some _, _ :: _ ->
          Printf.eprintf "error: --serve and --to are mutually exclusive\n";
          1
      | None, [] ->
          Printf.eprintf
            "error: pass --serve PORT (follower) or --to HOST:PORT \
             (leader)\n";
          1
      | None, _ when bootstrap <> None ->
          Printf.eprintf
            "error: --bootstrap is follower-side (needs --serve)\n";
          1
      | None, endpoints -> ship_round dir endpoints checkpoint)

let cmd_promote dir =
  match open_workspace_replica dir with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (app, _) -> (
      match
        Slimpad.promote_replica app ~archive:(Workspace.archive_path dir)
      with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          ignore (Slimpad.wal_close app);
          1
      | Ok term -> (
          let sh = Option.get (Slimpad.shipper app) in
          Printf.printf
            "promoted: leading at term %d from seq %d; the deposed leader \
             is fenced\n"
            term (Si_wal.Ship.seq sh);
          match Slimpad.wal_close app with
          | Ok () -> 0
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1))

let cmd_restore dir at archive out from_bundle =
  let archive =
    Option.value archive ~default:(Workspace.archive_path dir)
  in
  match
    match from_bundle with
    | None -> Ok ()
    | Some file ->
        Result.bind (Si_bundle.read_file file) (fun bytes ->
            Result.map
              (fun (b : Si_wal.Segment.base) ->
                Printf.printf
                  "installed %s as restore base (term %d, seq %d)\n" file
                  b.Si_wal.Segment.base_term b.Si_wal.Segment.base_seq)
              (Si_bundle.to_archive ~archive bytes))
  with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok () ->
  let desk, problems = Workspace.load_desktop dir in
  List.iter (Printf.eprintf "warning: %s\n") problems;
  match Slimpad.restore_at desk ~archive ~at with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (app, reached) -> (
      Printf.printf "restored to seq %d (%d pad(s), state digest %s)\n"
        reached
        (List.length (Dmi.pads (Slimpad.dmi app)))
        (Digest.to_hex (Digest.string (Slimpad.snapshot_bytes app)));
      if reached < at then
        Printf.printf "  (archive ends before the requested seq %d)\n" at;
      match out with
      | None -> 0
      | Some out_dir -> (
          if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
          match Slimpad.save app (Workspace.pad_store out_dir) with
          | Ok () ->
              Printf.printf "wrote %s\n" (Workspace.pad_store out_dir);
              0
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1))

let cmd_crash_matrix dir seed json =
  let outcomes = Si_workload.Crash_matrix.run ~seed ~dir () in
  print_string (Si_workload.Crash_matrix.to_text outcomes);
  (match json with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Si_workload.Crash_matrix.to_json outcomes)));
  if Si_workload.Crash_matrix.all_passed outcomes then 0 else 1

(* -------------------------------------------------------------- serving *)

module Serve = Si_serve.Server
module Sclient = Si_serve.Client
module Proto = Si_serve.Proto
module Loadgen = Si_workload.Loadgen

let cmd_archive_prune dir keep archive =
  let archive = Option.value archive ~default:(Workspace.archive_path dir) in
  match Si_wal.Segment.prune ~dir:archive ~keep with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok r ->
      Printf.printf "cutoff seq %d: pruned %d segment(s) and %d base(s)\n"
        r.Si_wal.Segment.prune_cutoff
        (List.length r.Si_wal.Segment.pruned_segments)
        (List.length r.Si_wal.Segment.pruned_bases);
      List.iter
        (fun f -> Printf.printf "  removed %s\n" f)
        (r.Si_wal.Segment.pruned_segments @ r.Si_wal.Segment.pruned_bases);
      0

(* The replica workspace the server routes fresh reads to; created on
   first use, resumed afterwards. Server reads run on worker domains
   while shipping applies records; the store's reads take no lock. *)
let open_replica_dir rdir =
  (if not (Sys.file_exists rdir) then
     try Unix.mkdir rdir 0o755 with Unix.Unix_error _ -> ());
  let desk, problems = Workspace.load_desktop rdir in
  List.iter (Printf.eprintf "warning: %s\n") problems;
  Slimpad.open_replica desk (Workspace.wal_path rdir)

let cmd_serve dir endpoint workers max_lag replica_of =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    1
  in
  match split_endpoint endpoint with
  | Error msg -> fail msg
  | Ok (addr, port) -> (
      if not (Workspace.wal_present dir) then
        fail "workspace is not journaled (run wal-enable first)"
      else
        match Workspace.open_workspace dir with
        | Error msg -> fail msg
        | Ok app -> (
            let closing code =
              match Slimpad.wal_close app with
              | Ok () -> code
              | Error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  max code 1
            in
            (* With --replica-of: ship into the archive from a
               background domain and serve bounded-staleness reads from
               the replica. *)
            let follower =
              match replica_of with
              | None -> Ok None
              | Some rdir -> (
                  match open_replica_dir rdir with
                  | Error _ as e -> e
                  | Ok (rapp, _) -> (
                      let r = Option.get (Slimpad.replica rapp) in
                      let attached =
                        Result.bind
                          (Slimpad.start_shipping ~async:true app
                             ~archive:(Workspace.archive_path dir))
                          (fun () ->
                            Result.bind
                              (Slimpad.attach_follower app ~name:rdir
                                 (Si_wal.Replica.transport r))
                              (fun () -> Slimpad.ship app))
                      in
                      match attached with
                      | Error e ->
                          ignore (Slimpad.wal_close rapp);
                          Error e
                      | Ok () -> Ok (Some (rapp, r))))
            in
            match follower with
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                closing 1
            | Ok follower -> (
                let config =
                  {
                    Serve.default_config with
                    addr;
                    port;
                    workers;
                    max_lag;
                    workspace = Some dir;
                  }
                in
                match Serve.start ~config ?follower app with
                | Error msg ->
                    (match follower with
                    | Some (rapp, _) -> ignore (Slimpad.wal_close rapp)
                    | None -> ());
                    Printf.eprintf "error: %s\n" msg;
                    closing 1
                | Ok server ->
                    Printf.printf
                      "pad server on %s:%d (%d worker(s)%s); stop with \
                       Ctrl-C or `slimpad client shutdown`\n%!"
                      addr (Serve.port server) (max 1 workers)
                      (match follower with
                      | Some _ -> ", replica-aware reads"
                      | None -> "");
                    let stop = ref false in
                    let previous =
                      Sys.signal Sys.sigint
                        (Sys.Signal_handle (fun _ -> stop := true))
                    in
                    while (not !stop) && not (Serve.stopped server) do
                      try Unix.sleepf 0.05
                      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
                    done;
                    Sys.set_signal Sys.sigint previous;
                    Serve.stop server;
                    let code =
                      match follower with
                      | None -> 0
                      | Some (rapp, r) -> (
                          (* Final round: the replica holds everything
                             acknowledged before the stop. *)
                          let drained = Slimpad.ship app in
                          Printf.printf "replica applied %d (lag %d)\n"
                            (Si_wal.Replica.applied r)
                            (Si_wal.Replica.lag r);
                          match (Slimpad.wal_close rapp, drained) with
                          | Ok (), Ok () -> 0
                          | Ok (), Error msg | Error msg, _ ->
                              Printf.eprintf "error: %s\n" msg;
                              1)
                    in
                    Printf.printf "server stopped\n";
                    closing code)))

(* ----- typed client ----- *)

let with_server_client endpoint f =
  match split_endpoint endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (addr, port) -> (
      match Sclient.connect ~addr ~port () with
      | Error msg ->
          Printf.eprintf "error: cannot reach %s:%d: %s\n" addr port msg;
          1
      | Ok c ->
          Fun.protect ~finally:(fun () -> Sclient.close c) (fun () -> f c))

let unexpected () =
  Printf.eprintf "error: unexpected response\n";
  1

let one_request endpoint req k =
  with_server_client endpoint (fun c ->
      match Sclient.request c req with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok (Proto.Err e) ->
          Printf.eprintf "server error: %s\n" e;
          1
      | Ok (Proto.Overloaded e) ->
          (* Typed backpressure, not a failure: exit 2 so scripts can
             tell "retry later" from "broken". *)
          Printf.printf "overloaded: %s\n" e;
          2
      | Ok resp -> k resp)

let build_obj resource literal =
  match (resource, literal) with
  | Some _, Some _ -> Error "--resource and --literal are mutually exclusive"
  | Some r, None -> Ok (Some (Si_triple.Triple.Resource r))
  | None, Some l -> Ok (Some (Si_triple.Triple.Literal l))
  | None, None -> Ok None

let build_pattern subject predicate resource literal =
  Result.map
    (fun p_object ->
      { Proto.p_subject = subject; p_predicate = predicate; p_object })
    (build_obj resource literal)

let client_ping endpoint =
  one_request endpoint Proto.Ping (function
    | Proto.Pong ->
        print_endline "pong";
        0
    | _ -> unexpected ())

let client_pads endpoint =
  one_request endpoint Proto.Pads (function
    | Proto.Pad_list names ->
        List.iter print_endline names;
        0
    | _ -> unexpected ())

let client_open endpoint name =
  one_request endpoint (Proto.Open_pad name) (function
    | Proto.Ok_done ->
        Printf.printf "opened %s\n" name;
        0
    | _ -> unexpected ())

let client_select endpoint subject predicate resource literal limit =
  match build_pattern subject predicate resource literal with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok pattern ->
      one_request endpoint (Proto.Select { pattern; limit }) (function
        | Proto.Triples rows ->
            List.iter print_endline rows;
            0
        | _ -> unexpected ())

let client_count endpoint subject predicate resource literal =
  match build_pattern subject predicate resource literal with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok pattern ->
      one_request endpoint (Proto.Count pattern) (function
        | Proto.Count_is n ->
            Printf.printf "%d\n" n;
            0
        | _ -> unexpected ())

let client_query endpoint text =
  one_request endpoint (Proto.Query text) (function
    | Proto.Rows rows ->
        List.iter print_endline rows;
        Printf.printf "%d row(s)\n" (List.length rows);
        0
    | _ -> unexpected ())

let client_edit ~remove endpoint subject predicate resource literal =
  match build_obj resource literal with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok None ->
      Printf.eprintf "error: pass --resource or --literal\n";
      1
  | Ok (Some o) ->
      let triple = Si_triple.Triple.make subject predicate o in
      let req = if remove then Proto.Remove triple else Proto.Add triple in
      one_request endpoint req (function
        | Proto.Ok_done ->
            print_endline (if remove then "removed" else "added");
            0
        | _ -> unexpected ())

let client_resolve endpoint pad scrap =
  one_request endpoint (Proto.Resolve { pad; scrap }) (function
    | Proto.Resolved text ->
        print_endline text;
        0
    | _ -> unexpected ())

let client_stats endpoint =
  one_request endpoint Proto.Stats (function
    | Proto.Stats_json json ->
        print_endline json;
        0
    | _ -> unexpected ())

let client_job endpoint kind count predicate bundle with_bases strict
    interactive =
  let bundle_path k =
    match bundle with
    | Some path -> Ok path
    | None -> Error (Printf.sprintf "%s: --bundle FILE is required" k)
  in
  let kind =
    match kind with
    | "compact" -> Ok Proto.Compact
    | "checkpoint" -> Ok Proto.Checkpoint
    | "lint" -> Ok Proto.Lint
    | "bulk-add" -> Ok (Proto.Bulk_add { count; predicate })
    | "capture" ->
        Result.map
          (fun path -> Proto.Capture { path; with_bases })
          (bundle_path "capture")
    | "apply" ->
        Result.map
          (fun path -> Proto.Apply { path; strict })
          (bundle_path "apply")
    | k ->
        Error
          (Printf.sprintf
             "unknown job kind %S (one of compact, checkpoint, lint, \
              bulk-add, capture, apply)"
             k)
  in
  match kind with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok kind ->
      let priority =
        if interactive then Proto.Interactive else Proto.Bulk
      in
      one_request endpoint (Proto.Submit { kind; priority }) (function
        | Proto.Accepted id ->
            Printf.printf "job %d accepted\n" id;
            0
        | _ -> unexpected ())

let client_job_status endpoint id wait_done =
  with_server_client endpoint (fun c ->
      let rec poll () =
        match Sclient.request c (Proto.Job_status id) with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok (Proto.Err e) ->
            Printf.eprintf "server error: %s\n" e;
            1
        | Ok (Proto.Job { job; state }) -> (
            match state with
            | (Proto.Queued | Proto.Running) when wait_done ->
                (try Unix.sleepf 0.05
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                poll ()
            | Proto.Queued ->
                Printf.printf "job %d: queued\n" job;
                0
            | Proto.Running ->
                Printf.printf "job %d: running\n" job;
                0
            | Proto.Done summary ->
                Printf.printf "job %d: done (%s)\n" job summary;
                0
            | Proto.Failed reason ->
                Printf.printf "job %d: failed (%s)\n" job reason;
                1)
        | Ok _ -> unexpected ()
      in
      poll ())

let client_workload endpoint rate requests clients bulk json =
  match split_endpoint endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (addr, port) ->
      let mix = { Loadgen.default_mix with bulk } in
      let r = Loadgen.run ~clients ~mix ~addr ~port ~rate ~requests () in
      Printf.printf "sent %d: %d ok, %d overloaded, %d error(s)\n"
        r.Loadgen.sent r.Loadgen.ok r.Loadgen.overloaded r.Loadgen.errors;
      Printf.printf "rtt p50 %.0f us, p90 %.0f us, p99 %.0f us\n"
        (Loadgen.quantile_ns r 0.5 /. 1e3)
        (Loadgen.quantile_ns r 0.9 /. 1e3)
        (Loadgen.quantile_ns r 0.99 /. 1e3);
      (match json with
      | None -> ()
      | Some file ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Loadgen.to_json r)));
      if r.Loadgen.errors > 0 then 1 else 0

let client_shutdown endpoint =
  one_request endpoint Proto.Shutdown (function
    | Proto.Closing ->
        print_endline "server closing";
        0
    | _ -> unexpected ())

(* -------------------------------------------------------------- cmdliner *)

open Cmdliner

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
       ~doc:"Workspace directory.")

let new_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
       ~doc:"Workspace directory to create.")

let pad_opt =
  Arg.(value & opt (some string) None & info [ "pad" ] ~docv:"NAME"
       ~doc:"Pad to operate on (default: the first pad).")

let init_cmd =
  let scenario =
    Arg.(value & opt string "icu"
         & info [ "scenario" ] ~docv:"NAME"
           ~doc:"One of icu, atc, concordance, empty.")
  in
  let seed =
    Arg.(value & opt int 2001 & info [ "seed" ] ~docv:"N"
         ~doc:"Workload generator seed.")
  in
  let wal =
    Arg.(value & flag
         & info [ "wal" ]
             ~doc:"Use journaled persistence (a write-ahead log in pad.wal) \
                   instead of the whole-file pad.xml.")
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a workspace with a generated scenario")
    Term.(const cmd_init $ new_dir_arg $ scenario $ seed $ wal)

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Render a pad")
    Term.(const cmd_show $ dir_arg $ pad_opt)

let pads_cmd =
  Cmd.v (Cmd.info "pads" ~doc:"List pads") Term.(const cmd_pads $ dir_arg)

let docs_cmd =
  Cmd.v
    (Cmd.info "docs" ~doc:"List base documents on the desktop")
    Term.(const cmd_docs $ dir_arg)

let add_pad_cmd =
  let name_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "add-pad" ~doc:"Create a new pad")
    Term.(const cmd_add_pad $ dir_arg $ name_arg)

let parent_opt =
  Arg.(value & opt (some string) None & info [ "parent" ] ~docv:"BUNDLE"
       ~doc:"Parent bundle name (default: the pad's root).")

let add_bundle_cmd =
  let name_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "add-bundle" ~doc:"Create a bundle")
    Term.(const cmd_add_bundle $ dir_arg $ pad_opt $ parent_opt $ name_arg)

let add_scrap_cmd =
  let name_arg =
    Arg.(value & opt string "" & info [ "name" ] ~docv:"LABEL"
         ~doc:"Scrap label (default: the marked content).")
  in
  let mark_type =
    Arg.(required & opt (some string) None & info [ "type" ] ~docv:"TYPE"
         ~doc:"Mark type: excel, xml, text, word, slides, pdf, html.")
  in
  let fields =
    Arg.(value & opt_all string [] & info [ "field"; "f" ] ~docv:"K=V"
         ~doc:"Mark address field, repeatable (e.g. -f fileName=labs.xml).")
  in
  Cmd.v
    (Cmd.info "add-scrap" ~doc:"Create a scrap marking into a base document")
    Term.(const cmd_add_scrap $ dir_arg $ pad_opt $ parent_opt $ name_arg
          $ mark_type $ fields)

let resolve_cmd =
  let label =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCRAP"
         ~doc:"Scrap label (substring match).")
  in
  let behaviour =
    Arg.(value & opt string "navigate" & info [ "behaviour"; "b" ]
         ~docv:"B" ~doc:"navigate, extract, or inplace.")
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:"Double-click a scrap: follow its mark into the base document")
    Term.(const cmd_resolve $ dir_arg $ pad_opt $ label $ behaviour)

let annotate_cmd =
  let label =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCRAP")
  in
  let text =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"TEXT")
  in
  Cmd.v
    (Cmd.info "annotate" ~doc:"Attach an annotation to a scrap")
    Term.(const cmd_annotate $ dir_arg $ pad_opt $ label $ text)

let link_cmd =
  let from_ =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FROM")
  in
  let to_ = Arg.(required & pos 2 (some string) None & info [] ~docv:"TO") in
  let label =
    Arg.(value & opt (some string) None & info [ "label" ] ~docv:"TEXT")
  in
  Cmd.v
    (Cmd.info "link" ~doc:"Link two scraps")
    Term.(const cmd_link $ dir_arg $ pad_opt $ from_ $ to_ $ label)

let drift_cmd =
  let refresh =
    Arg.(value & flag & info [ "refresh" ]
         ~doc:"Re-cache excerpts for stale scraps.")
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:"Report scraps whose base elements changed or vanished")
    Term.(const cmd_drift $ dir_arg $ pad_opt $ refresh)

let query_cmd =
  let text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
         ~doc:"e.g. 'select ?n where { ?s scrapName ?n }'")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query the superimposed layer")
    Term.(const cmd_query $ dir_arg $ text)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check the store against the Bundle-Scrap model")
    Term.(const cmd_validate $ dir_arg)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit workspace and instrumentation statistics as JSON.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Workspace statistics and per-layer instrumentation counters")
    Term.(const cmd_stats $ dir_arg $ json)

let trace_cmd =
  let gesture =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GESTURE"
         ~doc:"What to trace: open, query, or resolve.")
  in
  let arg =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"ARG"
         ~doc:"The query text (for query) or scrap label (for resolve).")
  in
  let no_timings =
    Arg.(value & flag & info [ "no-timings" ]
         ~doc:"Print the span tree without durations (stable output).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one gesture with span tracing on and print the span tree \
             with per-layer timings")
    Term.(const cmd_trace $ dir_arg $ gesture $ arg $ no_timings)

let health_cmd =
  let inject_rate =
    Arg.(value & opt (some float) None & info [ "inject-rate" ] ~docv:"P"
         ~doc:"Inject base-source faults with probability P (0..1), for \
               exercising the breakers.")
  in
  let inject_source =
    Arg.(value & opt_all string [] & info [ "inject-source" ] ~docv:"NAME"
         ~doc:"Restrict injection to this document (repeatable; default: \
               every document).")
  in
  let seed =
    Arg.(value & opt int 2001 & info [ "seed" ] ~docv:"N"
         ~doc:"Fault-injection seed (same seed: same outage replay).")
  in
  let passes =
    Arg.(value & opt int 1 & info [ "passes" ] ~docv:"N"
         ~doc:"Resolution sweeps over the pad before reporting (extra \
               passes drive breakers through trip/cool-down/probe).")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Resolve every scrap through the resilient path and report \
             per-source circuit-breaker state")
    Term.(const cmd_health $ dir_arg $ pad_opt $ inject_rate
          $ inject_source $ seed $ passes)

let import_cmd =
  let file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE"
         ~doc:"A pad store saved by another workspace (its pad.xml).")
  in
  let pad_name =
    Arg.(value & opt (some string) None & info [ "from-pad" ] ~docv:"NAME"
         ~doc:"Which pad of the file to import (default: its first).")
  in
  let rename =
    Arg.(value & opt (some string) None & info [ "as" ] ~docv:"NAME"
         ~doc:"Name for the imported copy.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Import (copy) a pad shared from another workspace")
    Term.(const cmd_import $ dir_arg $ file $ pad_name $ rename)

let template_cmd =
  let bundle =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BUNDLE")
  in
  let off =
    Arg.(value & flag & info [ "off" ] ~doc:"Clear the template flag.")
  in
  Cmd.v
    (Cmd.info "template" ~doc:"Mark (or unmark) a bundle as a template")
    Term.(const cmd_template $ dir_arg $ pad_opt $ bundle $ off)

let instantiate_cmd =
  let template =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TEMPLATE")
  in
  let new_name =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "instantiate"
       ~doc:"Stamp out a copy of a template bundle (§6 extension)")
    Term.(const cmd_instantiate $ dir_arg $ pad_opt $ template $ new_name
          $ parent_opt)

let export_html_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "export-html"
       ~doc:"Render a pad as a standalone HTML page (2-D layout)")
    Term.(const cmd_export_html $ dir_arg $ pad_opt $ out)

let model_cmd =
  Cmd.v
    (Cmd.info "model"
       ~doc:"Print the Bundle-Scrap data model in SLIM-ML syntax")
    Term.(const cmd_model $ dir_arg)

let history_cmd =
  let last =
    Arg.(value & opt (some int) None & info [ "last"; "n" ] ~docv:"N"
         ~doc:"Show only the last N operations.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"The pad's construction history (the DMI operation journal)")
    Term.(const cmd_history $ dir_arg $ last)

let lint_cmd =
  let target =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET"
         ~doc:"Workspace directory, or a bare pad store file (a pad.xml); \
               optional when --bundle is given.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit diagnostics as a JSON array instead of text.")
  in
  let fix =
    Arg.(value & flag & info [ "fix" ]
         ~doc:"Apply the mechanically safe repairs (drop exact-duplicate \
               triples, GC orphaned layout triples), persist them, and \
               re-lint.")
  in
  let archive =
    Arg.(value & opt (some dir) None & info [ "archive" ] ~docv:"DIR"
         ~doc:"Shipping archive directory to verify offline (SL306); \
               default: the workspace's pad.archive when present.")
  in
  let bundle =
    Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"FILE"
         ~doc:"Capture bundle to verify offline (SL308: container \
               framing, section CRCs, schema version, dangling \
               excerpts); works with or without a TARGET.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis of the store, marks, write-ahead log, \
             shipping archive, and capture bundles (read-only unless \
             --fix)")
    Term.(const cmd_lint $ target $ json $ fix $ archive $ bundle)

let capture_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ]
         ~docv:"FILE" ~doc:"Where to write the bundle artifact.")
  in
  let with_bases =
    Arg.(value & flag & info [ "with-bases" ]
         ~doc:"Also pack every base document some mark addresses; a \
               document that fails to read becomes a report problem, \
               never an abort.")
  in
  Cmd.v
    (Cmd.info "capture"
       ~doc:"Package the workspace — triples, metamodel, marks, cached \
             excerpts, optionally base documents — into one portable, \
             CRC-framed bundle file")
    Term.(const cmd_capture $ dir_arg $ out $ with_bases)

let apply_cmd =
  (* Not [dir_arg]: applying into a directory that does not exist yet is
     the migration path (the bundle recreates the workspace), so the
     converter must not insist on an existing directory. *)
  let target_dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"Workspace directory (created when missing).")
  in
  let file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BUNDLE"
         ~doc:"The bundle file to install.")
  in
  let excerpts =
    Arg.(value & flag & info [ "excerpts" ]
         ~doc:"Restore the bundle's cached excerpts onto installed marks \
               (default: marks install blank and re-resolve from base \
               documents on demand).")
  in
  let bases =
    Arg.(value & flag & info [ "bases" ]
         ~doc:"Restore captured base documents into the workspace \
               (existing files are never overwritten).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
         ~doc:"Lint the bundle's content in a scratch pad first and \
               refuse to apply when any error-severity diagnostic \
               fires.")
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:"Install a capture bundle into the workspace: install-only \
             (nothing overwritten), journaled when the workspace has a \
             WAL, per-mark failures never block the rest")
    Term.(const cmd_apply $ target_dir $ file $ excerpts $ bases $ strict)

let wal_enable_cmd =
  Cmd.v
    (Cmd.info "wal-enable"
       ~doc:"Convert a workspace to journaled persistence (write-ahead log)")
    Term.(const cmd_wal_enable $ dir_arg)

let wal_inspect_cmd =
  Cmd.v
    (Cmd.info "wal-inspect"
       ~doc:"Examine a workspace's write-ahead log and snapshot (read-only)")
    Term.(const cmd_wal_inspect $ dir_arg)

let wal_compact_cmd =
  Cmd.v
    (Cmd.info "wal-compact"
       ~doc:"Fold the log into a fresh snapshot and truncate it")
    Term.(const cmd_wal_compact $ dir_arg)

let replicate_cmd =
  let serve =
    Arg.(value & opt (some int) None & info [ "serve" ] ~docv:"PORT"
         ~doc:"Follower mode: open the workspace as a replica and serve \
               the shipping protocol on PORT (0 picks one) until \
               interrupted.")
  in
  let until_seq =
    Arg.(value & opt (some int) None & info [ "until-seq" ] ~docv:"N"
         ~doc:"With --serve: exit once the applied prefix reaches N (how \
               a script waits for catch-up).")
  in
  let followers =
    Arg.(value & opt_all string [] & info [ "to" ] ~docv:"HOST:PORT"
         ~doc:"Leader mode, repeatable: attach the follower serving at \
               HOST:PORT and ship the journaled workspace's log to it.")
  in
  let checkpoint =
    Arg.(value & flag & info [ "checkpoint" ]
         ~doc:"After shipping, seal the open segment and cut a fresh base \
               snapshot — a complete restore point in the archive.")
  in
  let bootstrap =
    Arg.(value & opt (some string) None & info [ "bootstrap" ] ~docv:"FILE"
         ~doc:"With --serve: seed a fresh replica from a capture bundle \
               before serving — it starts at the bundle's replication \
               watermark instead of replaying from seq 1. Refused when \
               the replica already has history.")
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"WAL shipping over sockets: lead (--to, one push round per \
             invocation, archive in pad.archive) or follow (--serve)")
    Term.(const cmd_replicate $ dir_arg $ serve $ until_seq $ followers
          $ checkpoint $ bootstrap)

let promote_cmd =
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Failover: promote a replica workspace to leader — bump the \
             term, re-enable local writes, start shipping; the old leader \
             is fenced on its next frame")
    Term.(const cmd_promote $ dir_arg)

let restore_cmd =
  let at =
    Arg.(required & opt (some int) None & info [ "at" ] ~docv:"SEQ"
         ~doc:"Target sequence number (the stream position to rewind to).")
  in
  let archive =
    Arg.(value & opt (some dir) None & info [ "archive" ] ~docv:"DIR"
         ~doc:"Shipping archive to restore from (default: the workspace's \
               pad.archive).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
         ~doc:"Write the restored store as DIR/pad.xml (DIR is created \
               when missing); default: report only.")
  in
  let from_bundle =
    Arg.(value & opt (some string) None
         & info [ "from-bundle" ] ~docv:"FILE"
             ~doc:"First install the capture bundle into the archive as a \
                   base snapshot at its replication watermark; the restore \
                   then treats it like any leader-cut base.")
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Point-in-time recovery: rebuild the store exactly as it was \
             at --at SEQ from the shipping archive's base snapshots and \
             sealed segments")
    Term.(const cmd_restore $ dir_arg $ at $ archive $ out $ from_bundle)

let crash_matrix_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"Scratch directory for the scenario workspaces (created \
               when missing, left behind for inspection).")
  in
  let seed =
    Arg.(value & opt int 2001 & info [ "seed" ] ~docv:"N"
         ~doc:"Fault-schedule seed (same seed: same replay).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write the outcomes as a JSON array to FILE (the CI \
               artifact).")
  in
  Cmd.v
    (Cmd.info "crash-matrix"
       ~doc:"Run the replication fault schedules (torn segments, crashes \
             mid-apply and mid-ship, duplicated/reordered/mangled frames, \
             failover) and check the no-lost-acks, prefix-consistency, \
             and convergence invariants")
    Term.(const cmd_crash_matrix $ dir $ seed $ json)

let archive_prune_cmd =
  let keep =
    Arg.(value & opt int 0 & info [ "keep" ] ~docv:"N"
         ~doc:"Keep a window of N records below the newest base snapshot \
               (default 0: prune everything the base makes redundant).")
  in
  let archive =
    Arg.(value & opt (some dir) None & info [ "archive" ] ~docv:"DIR"
         ~doc:"Shipping archive to prune (default: the workspace's \
               pad.archive).")
  in
  Cmd.v
    (Cmd.info "archive-prune"
       ~doc:"Retention: delete shipping-archive segments and bases made \
             redundant by the newest base snapshot (restores above the \
             cutoff are unaffected)")
    Term.(const cmd_archive_prune $ dir_arg $ keep $ archive)

let serve_cmd =
  let endpoint =
    Arg.(value & opt string "127.0.0.1:7070"
         & info [ "addr" ] ~docv:"HOST:PORT"
             ~doc:"Listen endpoint (port 0 picks an ephemeral one).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains — the number of concurrently served \
               clients.")
  in
  let max_lag =
    Arg.(value & opt int 64 & info [ "max-lag" ] ~docv:"N"
         ~doc:"With --replica-of: serve reads from the replica only \
               while it is at most N records behind.")
  in
  let replica_of =
    Arg.(value & opt (some string) None
         & info [ "replica-of" ] ~docv:"DIR"
             ~doc:"Replica workspace (created when missing): ship the \
                   log to it from a background domain and route fresh \
                   reads there.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the journaled workspace to concurrent network clients \
             (interactive requests are prioritized over background jobs; \
             a full queue answers Overloaded, never blocks)")
    Term.(const cmd_serve $ dir_arg $ endpoint $ workers $ max_lag
          $ replica_of)

let client_cmd =
  let endpoint =
    Arg.(value & opt string "127.0.0.1:7070"
         & info [ "to" ] ~docv:"HOST:PORT" ~doc:"Server endpoint.")
  in
  let subject =
    Arg.(value & opt (some string) None & info [ "subject" ] ~docv:"ID")
  in
  let predicate =
    Arg.(value & opt (some string) None & info [ "predicate" ] ~docv:"NAME")
  in
  let resource =
    Arg.(value & opt (some string) None & info [ "resource" ] ~docv:"ID"
         ~doc:"Object as a resource id.")
  in
  let literal =
    Arg.(value & opt (some string) None & info [ "literal" ] ~docv:"TEXT"
         ~doc:"Object as a literal.")
  in
  let subject_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SUBJECT")
  in
  let predicate_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PREDICATE")
  in
  let ping =
    Cmd.v (Cmd.info "ping" ~doc:"Round-trip check")
      Term.(const client_ping $ endpoint)
  in
  let pads =
    Cmd.v (Cmd.info "pads" ~doc:"List the served pads")
      Term.(const client_pads $ endpoint)
  in
  let open_ =
    let pad_name =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
    in
    Cmd.v (Cmd.info "open" ~doc:"Attach a pad by name, creating it if absent")
      Term.(const client_open $ endpoint $ pad_name)
  in
  let select =
    let limit =
      Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N"
           ~doc:"At most N rows (0: all).")
    in
    Cmd.v (Cmd.info "select" ~doc:"Select triples by fixing any fields")
      Term.(const client_select $ endpoint $ subject $ predicate $ resource
            $ literal $ limit)
  in
  let count =
    Cmd.v (Cmd.info "count" ~doc:"Count triples matching a pattern")
      Term.(const client_count $ endpoint $ subject $ predicate $ resource
            $ literal)
  in
  let query =
    let text =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")
    in
    Cmd.v (Cmd.info "query" ~doc:"Run a declarative query on the server")
      Term.(const client_query $ endpoint $ text)
  in
  let add =
    Cmd.v (Cmd.info "add" ~doc:"Add one triple (durable before the reply)")
      Term.(const (client_edit ~remove:false) $ endpoint $ subject_pos
            $ predicate_pos $ resource $ literal)
  in
  let remove =
    Cmd.v (Cmd.info "remove" ~doc:"Remove one triple")
      Term.(const (client_edit ~remove:true) $ endpoint $ subject_pos
            $ predicate_pos $ resource $ literal)
  in
  let resolve =
    let pad =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"PAD")
    in
    let scrap =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"SCRAP")
    in
    Cmd.v (Cmd.info "resolve" ~doc:"Resolve a scrap's mark on the server")
      Term.(const client_resolve $ endpoint $ pad $ scrap)
  in
  let stats =
    Cmd.v (Cmd.info "stats" ~doc:"The server's metrics registry as JSON")
      Term.(const client_stats $ endpoint)
  in
  let job =
    let kind =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND"
           ~doc:"One of compact, checkpoint, lint, bulk-add, capture, \
                 apply.")
    in
    let count =
      Arg.(value & opt int 1024 & info [ "count" ] ~docv:"N"
           ~doc:"bulk-add: how many triples to import.")
    in
    let predicate =
      Arg.(value & opt string "bulkgen" & info [ "predicate" ] ~docv:"NAME"
           ~doc:"bulk-add: predicate for the generated triples.")
    in
    let bundle =
      Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"FILE"
           ~doc:"capture/apply: the bundle file on the server's \
                 filesystem.")
    in
    let with_bases =
      Arg.(value & flag & info [ "with-bases" ]
           ~doc:"capture: pack base documents from the served workspace.")
    in
    let strict =
      Arg.(value & flag & info [ "strict" ]
           ~doc:"apply: refuse a bundle whose content lints with errors.")
    in
    let interactive =
      Arg.(value & flag & info [ "interactive" ]
           ~doc:"Submit at interactive priority instead of bulk.")
    in
    Cmd.v
      (Cmd.info "job"
         ~doc:"Submit a background job (bounded queue: a full one \
               answers Overloaded)")
      Term.(const client_job $ endpoint $ kind $ count $ predicate
            $ bundle $ with_bases $ strict $ interactive)
  in
  let job_status =
    let id = Arg.(required & pos 0 (some int) None & info [] ~docv:"ID") in
    let wait =
      Arg.(value & flag & info [ "wait" ]
           ~doc:"Poll until the job finishes or fails.")
    in
    Cmd.v (Cmd.info "job-status" ~doc:"Query (or await) a submitted job")
      Term.(const client_job_status $ endpoint $ id $ wait)
  in
  let workload =
    let rate =
      Arg.(value & opt float 200. & info [ "rate" ] ~docv:"R"
           ~doc:"Target arrivals per second (open loop).")
    in
    let requests =
      Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N"
           ~doc:"Total arrivals across all clients.")
    in
    let clients =
      Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent connections.")
    in
    let bulk =
      Arg.(value & opt int 0 & info [ "bulk" ] ~docv:"W"
           ~doc:"Bulk-submit weight in the request mix (reads 8, \
                 writes 2).")
    in
    let json =
      Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the tallies and RTT quantiles as JSON (the \
                 CI artifact).")
    in
    Cmd.v
      (Cmd.info "workload"
         ~doc:"Drive a seeded open-loop request mix and report \
               client-observed RTT quantiles")
      Term.(const client_workload $ endpoint $ rate $ requests $ clients
            $ bulk $ json)
  in
  let shutdown =
    Cmd.v (Cmd.info "shutdown" ~doc:"Ask the server to stop")
      Term.(const client_shutdown $ endpoint)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running pad server")
    [
      ping; pads; open_; select; count; query; add; remove; resolve; stats;
      job; job_status; workload; shutdown;
    ]

(* ---------------------------------------------------------------- check *)

(* `slimpad check` — the concurrency sanitizer's built-in exercise.
   One process stands up the whole concurrent stack — a journaled
   leader, async WAL shipping into an in-process
   follower, the network server with replica-aware reads and a
   background job runner — and drives it with the open-loop load
   generator (reads, writes, bulk jobs), an explicit ship round, and a
   compaction. That touches every lock class in the declared
   hierarchy; Si_check watches every acquisition and the command fails
   if the observed order graph holds any violation. CI runs this as
   the sanitizer gate; --json emits the graph as the artifact. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let cmd_check json =
  Si_check.set_enabled true;
  Si_check.reset ();
  let dir = Filename.temp_file "slimpad-check" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let step what = function
    | Ok v -> v
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" what msg;
        exit 2
  in
  let leader, _ =
    step "open leader"
      (Slimpad.open_wal (Desktop.create ()) (Filename.concat dir "pad.wal"))
  in
  ignore (Slimpad.new_pad leader "exercised");
  step "start shipping"
    (Slimpad.start_shipping ~segment_records:32 ~async:true leader
       ~archive:(Filename.concat dir "pad.archive"));
  let rapp, _ =
    step "open replica"
      (Slimpad.open_replica (Desktop.create ())
         (Filename.concat dir "replica.wal"))
  in
  let rep = Option.get (Slimpad.replica rapp) in
  step "attach follower"
    (Slimpad.attach_follower leader ~name:"r1" (Si_wal.Replica.transport rep));
  let config =
    { Serve.default_config with workers = 3; job_capacity = 4 }
  in
  let server =
    step "start server" (Serve.start ~config ~follower:(rapp, rep) leader)
  in
  let load =
    Loadgen.run ~seed:11 ~clients:3
      ~mix:{ Loadgen.reads = 6; writes = 3; bulk = 1 }
      ~port:(Serve.port server) ~rate:600. ~requests:600 ()
  in
  step "ship round" (Slimpad.ship leader);
  Serve.stop server;
  step "stop shipping" (Slimpad.stop_shipping leader);
  step "compact" (Slimpad.wal_compact leader);
  step "close replica" (Slimpad.wal_close rapp);
  step "close leader" (Slimpad.wal_close leader);
  (try rm_rf dir with Sys_error _ -> ());
  let report = Si_check.report () in
  if json then print_string (Si_check.report_json ())
  else begin
    Format.printf "%a@." Si_check.pp_report report;
    Printf.printf "exercise: %d request(s): %d ok, %d overloaded, %d error(s)\n"
      load.Loadgen.sent load.Loadgen.ok load.Loadgen.overloaded
      load.Loadgen.errors
  end;
  if report.Si_check.r_violations = [] then 0 else 1

let check_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the lock-order graph and violations as one JSON \
               document (the CI artifact) instead of the text report.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the concurrency sanitizer's built-in exercise (server + \
             background jobs + WAL shipping under load) and report the \
             observed lock-order graph; nonzero exit on any violation")
    Term.(const cmd_check $ json)

let main =
  Cmd.group
    (Cmd.info "slimpad" ~version:"1.0"
       ~doc:"Superimposed scratchpad over heterogeneous base documents")
    [
      init_cmd; show_cmd; pads_cmd; docs_cmd; add_pad_cmd; add_bundle_cmd;
      add_scrap_cmd; resolve_cmd; annotate_cmd; link_cmd; drift_cmd;
      query_cmd; validate_cmd; lint_cmd; stats_cmd; trace_cmd; health_cmd;
      history_cmd; model_cmd;
      import_cmd; export_html_cmd; template_cmd; instantiate_cmd;
      capture_cmd; apply_cmd;
      wal_enable_cmd; wal_inspect_cmd; wal_compact_cmd;
      replicate_cmd; promote_cmd; restore_cmd; crash_matrix_cmd;
      serve_cmd; client_cmd; archive_prune_cmd; check_cmd;
    ]

let () =
  (* The stdlib default clock is CPU time; spans want wall time. *)
  Si_obs.Clock.set (fun () -> int_of_float (Unix.gettimeofday () *. 1e9));
  exit (Cmd.eval' main)
