module Dmi = Si_slim.Dmi
module Mark = Si_mark.Mark
module Manager = Si_mark.Manager
module Desktop = Si_mark.Desktop
module Resilient = Si_mark.Resilient
module Xml = Si_xmlk
module Log = Si_wal.Log

let recovery_warning_count = Si_obs.Registry.counter "slimpad.recovery_warning"
let wal_replayed_count = Si_obs.Registry.counter "slimpad.wal_replayed"
let snapshot_binary_count = Si_obs.Registry.counter "wal.snapshot.binary"
let snapshot_binary_latency = Si_obs.Registry.histogram "wal.snapshot.binary"

type wal_state = {
  log : Log.t;
  mutable trouble : string option;
  mutable suppress : bool;
      (* Replica mode: hook-driven appends are disabled — the replica
         itself appends each shipped payload verbatim, keeping the local
         log a 1:1 mirror of the leader's record stream. *)
}

(* Background shipping: the writer's tee only bumps a coalescing
   wake-up counter; a dedicated domain runs the sync-then-push rounds.
   The counter is the bounded channel — ticks, not payloads, queue in
   it, so a slow domain never blocks an append and never loses work
   (every round drains the whole log tail). *)
type async_ship = {
  a_mutex : Si_check.Lock.t;
      (* guards [a_pending]/[a_stop] with [a_cond] *)
  a_cond : Condition.t;
  mutable a_pending : int;
  mutable a_stop : bool;
  a_round : Si_check.Lock.t;
      (* one ship round at a time: domain vs. [ship]; rounds push over
         the network inside it by design (io_ok in the hierarchy) *)
  mutable a_domain : unit Domain.t option;
}

type t = {
  mutable dmi : Dmi.t;  (* mutable so a replica can install a base *)
  mutable marks : Manager.t;
  desktop : Desktop.t;
  resilient : Resilient.t;
  mutable wal : wal_state option;
  mutable shipper : Si_wal.Ship.t option;
  mutable ship_async : async_ship option;
  mutable replica : Si_wal.Replica.t option;
  mutable rep_recovered : (int * int) option;
      (* (term, stream seq) recovered from the snapshot's replication
         section — the numbering basis when shipping resumes. *)
}

type persistence = Whole_file | Journaled

let make_resilient = function
  | Some r -> r
  | None -> Resilient.create ()

let create ?store ?resilient ?wrap desktop =
  let marks = Manager.create () in
  Desktop.install_modules ?wrap desktop marks;
  { dmi = Dmi.create ?store (); marks; desktop;
    resilient = make_resilient resilient; wal = None; shipper = None;
    ship_async = None; replica = None; rep_recovered = None }

let dmi t = t.dmi
let marks t = t.marks
let desktop t = t.desktop
let resilient t = t.resilient
let health t = Resilient.health t.resilient
let new_pad t name = Dmi.create_slimpad t.dmi ~pad_name:name

let add_bundle t ~parent ~name ?pos () =
  Dmi.create_bundle t.dmi ~name ?pos ~parent ()

let add_scrap t ~parent ~name ~mark_type ~fields ?pos () =
  match Manager.create_mark t.marks ~mark_type ~fields () with
  | Error _ as e -> e
  | Ok mark ->
      let label = if name = "" then mark.Mark.excerpt else name in
      Ok
        (Dmi.create_scrap t.dmi ~name:label ?pos
           ~mark_id:mark.Mark.mark_id ~parent ())

let scrap_mark t scrap =
  Manager.mark t.marks (Dmi.scrap_mark_id t.dmi scrap)

let string_error r = Result.map_error Manager.resolve_error_to_string r

let double_click t scrap =
  string_error (Manager.resolve t.marks (Dmi.scrap_mark_id t.dmi scrap))

let scrap_content t scrap =
  string_error
    (Manager.resolve_with t.marks
       (Dmi.scrap_mark_id t.dmi scrap)
       Mark.Extract_content)

let scrap_in_place t scrap =
  string_error
    (Manager.resolve_with t.marks
       (Dmi.scrap_mark_id t.dmi scrap)
       Mark.Display_in_place)

(* The managed path: breaker-guarded, retried, degrading to the cached
   excerpt instead of erroring when the base source is away. *)
let resolve_scrap t scrap =
  Resilient.resolve t.resilient t.marks (Dmi.scrap_mark_id t.dmi scrap)

let pad_scraps t pad = Dmi.pad_scraps t.dmi pad

let drift_report t pad =
  List.filter_map
    (fun scrap ->
      match
        Resilient.check_drift t.resilient t.marks
          (Dmi.scrap_mark_id t.dmi scrap)
      with
      | Ok Manager.Unchanged -> None
      | Ok drift -> Some (scrap, drift)
      | Error e -> Some (scrap, Manager.Unresolvable e))
    (pad_scraps t pad)

let refresh_pad t pad =
  List.fold_left
    (fun stale (scrap, drift) ->
      match drift with
      | Manager.Changed _ -> (
          match
            Manager.refresh_excerpt t.marks (Dmi.scrap_mark_id t.dmi scrap)
          with
          | Ok _ -> stale + 1
          | Error _ -> stale)
      (* Degraded and quarantined scraps keep their cached excerpt — never
         overwrite good data with a failure. *)
      | Manager.Unchanged | Manager.Unresolvable _ | Manager.Quarantined _ ->
          stale)
    0 (drift_report t pad)

type pad_health = {
  fresh : int;  (** resolved against the live base source *)
  degraded : int;  (** served from the cached excerpt *)
  quarantined : int;  (** unresolvable across a whole probe window *)
  dangling : int;  (** scrap points at no stored mark *)
}

let pad_health t pad =
  List.fold_left
    (fun h scrap ->
      match
        Resilient.check_drift t.resilient t.marks
          (Dmi.scrap_mark_id t.dmi scrap)
      with
      | Ok (Manager.Unchanged | Manager.Changed _) ->
          { h with fresh = h.fresh + 1 }
      | Ok (Manager.Quarantined _) ->
          { h with quarantined = h.quarantined + 1 }
      | Ok (Manager.Unresolvable _) -> { h with degraded = h.degraded + 1 }
      | Error _ -> { h with dangling = h.dangling + 1 })
    { fresh = 0; degraded = 0; quarantined = 0; dangling = 0 }
    (pad_scraps t pad)

(* The empty needle matches every scrap, nameless ones too, which only
   the full walk finds. *)
let find_scraps t pad needle =
  if needle = "" then pad_scraps t pad
  else
    Dmi.scraps_named t.dmi pad (fun name ->
        Si_query.Query.contains_substring name needle)

let query t text =
  match Si_query.Query.parse text with
  | Error _ as e -> e
  | Ok q ->
      Ok
        (List.map Si_query.Query.binding_to_string
           (Si_query.Query.run (Dmi.trim t.dmi) q))

(* ------------------------------------------------------------ rendering *)

let mark_source t scrap =
  let mark_id = Dmi.scrap_mark_id t.dmi scrap in
  match Resilient.resolve t.resilient t.marks mark_id with
  | Ok (Resilient.Fresh res) -> res.Mark.res_source
  | Ok (Resilient.Degraded { excerpt; fault }) ->
      (* Degraded scraps render distinctly: the cached excerpt is served,
         flagged with the fault that kept the base source away. *)
      Printf.sprintf "DEGRADED cached %S (%s)" excerpt
        (Resilient.fault_to_string fault)
  | Error (Manager.Unknown_mark _) -> "dangling mark " ^ mark_id
  | Error _ -> (
      match Manager.mark t.marks mark_id with
      | Some m ->
          Printf.sprintf "%s (unresolvable: %s)" m.Mark.mark_type
            (Option.value (Mark.field m "fileName") ~default:"?")
      | None -> "dangling mark " ^ mark_id)

let pos_string = function
  | Some { Dmi.x; y } -> Printf.sprintf " @(%d,%d)" x y
  | None -> ""

let render_scrap_line t scrap =
  Printf.sprintf "Scrap %S%s -> %s"
    (Dmi.scrap_name t.dmi scrap)
    (pos_string (Dmi.scrap_pos t.dmi scrap))
    (mark_source t scrap)

let render_pad t pad =
  let buf = Buffer.create 512 in
  let line indent s =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let rec bundle indent b =
    let size =
      match Dmi.bundle_size t.dmi b with
      | Some (w, h) -> Printf.sprintf " %dx%d" w h
      | None -> ""
    in
    let template = if Dmi.is_template t.dmi b then " [template]" else "" in
    line indent
      (Printf.sprintf "Bundle %S%s%s%s"
         (Dmi.bundle_name t.dmi b)
         (pos_string (Dmi.bundle_pos t.dmi b))
         size template);
    List.iter
      (fun s ->
        line (indent + 1) (render_scrap_line t s);
        List.iter
          (fun a -> line (indent + 2) (Printf.sprintf "note: %s" a))
          (Dmi.annotations t.dmi s))
      (Dmi.scraps t.dmi b);
    List.iter
      (fun d ->
        line (indent + 1)
          (Printf.sprintf "[%s]%s"
             (Dmi.decoration_kind t.dmi d)
             (pos_string (Dmi.decoration_pos t.dmi d))))
      (Dmi.decorations t.dmi b);
    List.iter (bundle (indent + 1)) (Dmi.nested_bundles t.dmi b)
  in
  line 0 (Printf.sprintf "SLIMPad %S" (Dmi.pad_name t.dmi pad));
  bundle 1 (Dmi.root_bundle t.dmi pad);
  (* Links whose both ends live in this pad. *)
  let scraps = pad_scraps t pad in
  let local s = List.mem s scraps in
  let links =
    List.filter
      (fun l ->
        match Dmi.link_ends t.dmi l with
        | Some (a, b) -> local a && local b
        | None -> false)
      (Dmi.links t.dmi)
  in
  if links <> [] then begin
    line 0 "Links:";
    List.iter
      (fun l ->
        match Dmi.link_ends t.dmi l with
        | Some (a, b) ->
            let label =
              match Dmi.link_label t.dmi l with
              | Some lb -> Printf.sprintf " --%s--> " lb
              | None -> " --> "
            in
            line 1
              (Printf.sprintf "%S%s%S"
                 (Dmi.scrap_name t.dmi a)
                 label
                 (Dmi.scrap_name t.dmi b))
        | None -> ())
      links
  end;
  Buffer.contents buf

let render_pad_html t pad =
  let esc = Xml.Print.escape in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
     <title>SLIMPad: %s</title>\n<style>\n\
     body { font: 13px sans-serif; background: #f4f1e8; }\n\
     .bundle { position: absolute; border: 1px solid #8a7; background: \
     #fffef5; border-radius: 6px; padding: 4px; box-shadow: 2px 2px 4px \
     #0002; }\n\
     .bundle > h3 { margin: 0 0 4px 0; font-size: 12px; color: #575; }\n\
     .scrap { position: absolute; background: #ffd; border: 1px solid \
     #cc9; padding: 2px 6px; border-radius: 3px; white-space: pre; }\n\
     .scrap.degraded { background: #fde8e8; border: 1px dashed #c66; \
     color: #733; }\n\
     .scrap .note { display: block; font-size: 10px; color: #a66; }\n\
     .decoration { position: absolute; color: #aaa; font-size: 10px; }\n\
     .flow { position: relative; margin: 4px; }\n\
     .links { margin-top: 20px; color: #666; }\n\
     </style></head>\n<body>\n<h1>SLIMPad &quot;%s&quot;</h1>\n"
    (esc (Dmi.pad_name t.dmi pad))
    (esc (Dmi.pad_name t.dmi pad));
  (* Positioned children render absolutely; unpositioned ones flow. *)
  let style_of pos (w, h) =
    match pos with
    | Some { Dmi.x; y } ->
        Printf.sprintf "style=\"left:%dpx; top:%dpx;%s\"" x y
          (match (w, h) with
          | Some w, Some h ->
              Printf.sprintf " width:%dpx; min-height:%dpx;" w h
          | _ -> "")
    | None ->
        "style=\"position: static; display: inline-block; margin: 4px;\""
  in
  let rec bundle b =
    let w, h =
      match Dmi.bundle_size t.dmi b with
      | Some (w, h) -> (Some w, Some h)
      | None -> (None, None)
    in
    add "<div class=\"bundle\" %s>\n<h3>%s</h3>\n"
      (style_of (Dmi.bundle_pos t.dmi b) (w, h))
      (esc (Dmi.bundle_name t.dmi b));
    add "<div class=\"flow\">\n";
    List.iter
      (fun s ->
        let css, source =
          match Resilient.resolve t.resilient t.marks
                  (Dmi.scrap_mark_id t.dmi s)
          with
          | Ok (Resilient.Fresh res) ->
              ( "scrap",
                Printf.sprintf "%s — %s" res.Mark.res_source
                  res.Mark.res_excerpt )
          | Ok (Resilient.Degraded { excerpt; fault }) ->
              ( "scrap degraded",
                Printf.sprintf "degraded — cached: %s — %s" excerpt
                  (Resilient.fault_to_string fault) )
          | Error e ->
              ( "scrap degraded",
                "unresolvable: " ^ Manager.resolve_error_to_string e )
        in
        add "<span class=\"%s\" %s title=\"%s\">%s" css
          (style_of (Dmi.scrap_pos t.dmi s) (None, None))
          (esc source)
          (esc (Dmi.scrap_name t.dmi s));
        List.iter
          (fun a -> add "<span class=\"note\">%s</span>" (esc a))
          (Dmi.annotations t.dmi s);
        add "</span>\n")
      (Dmi.scraps t.dmi b);
    List.iter
      (fun d ->
        add "<span class=\"decoration\" %s>[%s]</span>\n"
          (style_of (Dmi.decoration_pos t.dmi d) (None, None))
          (esc (Dmi.decoration_kind t.dmi d)))
      (Dmi.decorations t.dmi b);
    List.iter bundle (Dmi.nested_bundles t.dmi b);
    add "</div></div>\n"
  in
  add "<div class=\"flow\">\n";
  bundle (Dmi.root_bundle t.dmi pad);
  add "</div>\n";
  let scraps = pad_scraps t pad in
  let links =
    List.filter
      (fun l ->
        match Dmi.link_ends t.dmi l with
        | Some (a, b) -> List.mem a scraps && List.mem b scraps
        | None -> false)
      (Dmi.links t.dmi)
  in
  if links <> [] then begin
    add "<div class=\"links\"><h2>Links</h2><ul>\n";
    List.iter
      (fun l ->
        match Dmi.link_ends t.dmi l with
        | Some (a, b) ->
            add "<li>%s &rarr; %s%s</li>\n"
              (esc (Dmi.scrap_name t.dmi a))
              (esc (Dmi.scrap_name t.dmi b))
              (match Dmi.link_label t.dmi l with
              | Some lb -> Printf.sprintf " <em>(%s)</em>" (esc lb)
              | None -> "")
        | None -> ())
      links;
    add "</ul></div>\n"
  end;
  add "</body></html>\n";
  Buffer.contents buf

(* ---------------------------------------------------------- persistence *)

let store_xml t =
  Xml.Node.element "slimpad-store"
    [
      Si_triple.Trim.to_xml (Dmi.trim t.dmi);
      Manager.to_xml t.marks;
      Dmi.journal_to_xml t.dmi;
    ]

let save t path =
  let xml = Xml.Print.to_string_pretty ~decl:true (store_xml t) in
  Si_io.Io.write_atomic path xml
  |> Result.map_error (Printf.sprintf "cannot write %s: %s" path)

let of_store_root ?store ?resilient ?wrap desktop root =
  match root with
  | Xml.Node.Element { name = "slimpad-store"; _ } -> (
      match
        ( Xml.Node.find_child Pad_format.triples_section root,
          Xml.Node.find_child Pad_format.marks_section root )
      with
      | Some triples, Some marks_xml -> (
          match Dmi.of_xml ?store triples with
          | Error _ as e -> e
          | Ok dmi -> (
              let marks = Manager.create () in
              Desktop.install_modules ?wrap desktop marks;
              match Manager.of_xml marks marks_xml with
              | Error _ as e -> e
              | Ok () ->
                  (* Older store files have no journal section. *)
                  (match
                     Xml.Node.find_child Pad_format.journal_section root
                   with
                  | Some j -> (
                      match Dmi.load_journal dmi j with
                      | Ok () -> ()
                      | Error _ -> ())
                  | None -> ());
                  Ok
                    { dmi; marks; desktop;
                      resilient = make_resilient resilient; wal = None;
                      shipper = None; ship_async = None; replica = None;
                      rep_recovered = None }))
      | _ -> Error "missing <triples> or <marks> section")
  | _ -> Error "expected a <slimpad-store> root element"

let load ?resilient ?wrap desktop path =
  match Xml.Parse.file path with
  | Error e -> Error (Xml.Parse.error_to_string e)
  | Ok root ->
      of_store_root ?resilient ?wrap desktop
        (Xml.Node.strip_whitespace root)

(* ------------------------------------------------------ journaled mode *)

(* One WAL carries the pad's three interleaved record streams (triple
   ops, marks, journal events), and its snapshots are cut in the binary
   container form; both formats are {!Pad_format}'s. Recovery sniffs
   the snapshot payload, so a log whose last snapshot is an old
   <slimpad-store> document replays unchanged. *)

module Wbin = Si_wal.Binary

(* Replication metadata rides inside the WAL snapshot as its watermark
   section — (term, stream sequence number) at the moment the snapshot
   was cut — so it is exactly as durable and as atomic as compaction
   itself. The current stream position is always [meta seq + records
   appended since the snapshot]. *)
let snapshot_with_meta t meta =
  Wbin.encode
    (Pad_format.sections t.dmi t.marks @ Pad_format.watermark_sections meta)

let binary_snapshot t = snapshot_with_meta t None

let rep_meta_of_payload payload =
  if not (Wbin.is_binary payload) then None
  else
    match Wbin.decode payload with
    | Error _ -> None
    | Ok sections -> Pad_format.watermark sections

(* The application and the watermark of a binary snapshot, from one
   decode of its container. *)
let of_binary_snapshot ?store ?resilient ?wrap desktop payload =
  match Wbin.decode payload with
  | Error e -> Error ("binary snapshot: " ^ e)
  | Ok sections ->
      let marks = Manager.create () in
      Desktop.install_modules ?wrap desktop marks;
      Result.map
        (fun dmi ->
          ( {
              dmi; marks; desktop;
              resilient = make_resilient resilient;
              wal = None; shipper = None; ship_async = None;
              replica = None; rep_recovered = None;
            },
            Pad_format.watermark sections ))
        (Pad_format.restore ?store marks sections)

(* Format sniffer: every snapshot payload, wherever it came from, goes
   through here, so pads snapshotted before the binary codec load
   byte-for-byte unchanged through the XML path, which carries no
   watermark. *)
let app_and_meta_of_snapshot ?store ?resilient ?wrap desktop payload =
  if Wbin.is_binary payload then
    of_binary_snapshot ?store ?resilient ?wrap desktop payload
  else
    match Xml.Parse.node payload with
    | Error e ->
        Error
          (Printf.sprintf "wal: bad snapshot payload: %s"
             (Xml.Parse.error_to_string e))
    | Ok root ->
        Result.map
          (fun app -> (app, None))
          (of_store_root ?store ?resilient ?wrap desktop
             (Xml.Node.strip_whitespace root))

let app_of_snapshot ?store ?resilient ?wrap desktop payload =
  Result.map fst
    (app_and_meta_of_snapshot ?store ?resilient ?wrap desktop payload)

let persistence t = match t.wal with None -> Whole_file | Some _ -> Journaled
let wal t = Option.map (fun st -> st.log) t.wal

let wal_append st payload =
  if not st.suppress then
    match Log.append st.log payload with
    | Ok () -> ()
    | Error e ->
        if st.trouble = None then st.trouble <- Some (Log.error_to_string e)

let install_hooks t st =
  Pad_format.observe t.dmi t.marks (fun r ->
      wal_append st (Pad_format.encode r));
  t.wal <- Some st

let apply_record t payload =
  Result.map (Pad_format.apply t.dmi t.marks) (Pad_format.decode payload)

type wal_recovery = {
  replayed : int;
  truncated_bytes : int;
  reset_log : bool;
  from_snapshot : bool;
}

type offline_restore = { restored : int; skipped : int }

(* Rebuild an application from a WAL dump without opening the log:
   no truncation, no generation reset, no hooks — the returned app is
   Whole_file and the files on disk are untouched. Records that fail
   to apply are skipped rather than fatal (Si_lint reports them as
   stream inconsistencies); a stale log's records are all skipped,
   mirroring what recovery would discard. *)
let restore_offline ?resilient ?wrap desktop (d : Log.dump) =
  let app_result =
    match d.Log.dump_snapshot with
    | None -> Ok (create ?resilient ?wrap desktop)
    | Some payload -> app_of_snapshot ?resilient ?wrap desktop payload
  in
  match app_result with
  | Error _ as e -> e
  | Ok app ->
      let stats =
        if d.Log.dump_stale_log then
          { restored = 0; skipped = List.length d.Log.dump_records }
        else
          List.fold_left
            (fun stats (r : Log.dump_record) ->
              match apply_record app r.Log.dump_payload with
              | Ok () -> { stats with restored = stats.restored + 1 }
              | Error _ -> { stats with skipped = stats.skipped + 1 })
            { restored = 0; skipped = 0 }
            d.Log.dump_records
      in
      Ok (app, stats)

let open_wal ?store ?resilient ?wrap ?policy ?on_warning desktop path =
  match Log.open_ ?policy path with
  | Error e -> Error (Log.error_to_string e)
  | Ok (log, recovery) -> (
      let closing e =
        ignore (Log.close log);
        Error e
      in
      let app_result =
        match recovery.Log.snapshot with
        | None -> Ok (create ?store ?resilient ?wrap desktop, None)
        | Some payload ->
            app_and_meta_of_snapshot ?store ?resilient ?wrap desktop payload
      in
      match app_result with
      | Error e -> closing e
      | Ok (app, meta) -> (
          (* Replay the tail before installing hooks: recovered records
             must not be re-appended. *)
          let rec replay i = function
            | [] -> Ok i
            | payload :: rest -> (
                match apply_record app payload with
                | Ok () -> replay (i + 1) rest
                | Error e -> Error (Printf.sprintf "wal: record %d: %s" i e))
          in
          match replay 0 recovery.Log.records with
          | Error e -> closing e
          | Ok replayed ->
              app.rep_recovered <- meta;
              install_hooks app { log; trouble = None; suppress = false };
              Si_obs.Counter.add wal_replayed_count replayed;
              (* Recovery anomalies are counted always and reported only
                 through the caller's channel — the library itself never
                 writes to stderr. *)
              let warn msg =
                Si_obs.Counter.incr recovery_warning_count;
                match on_warning with Some f -> f msg | None -> ()
              in
              if recovery.Log.truncated_bytes > 0 then
                warn
                  (Printf.sprintf
                     "wal: dropped a torn tail of %d byte(s); store \
                      recovered to the last complete record"
                     recovery.Log.truncated_bytes);
              if recovery.Log.reset_log then
                warn
                  "wal: discarded a log superseded by its snapshot \
                   (interrupted compaction)";
              Ok
                ( app,
                  {
                    replayed;
                    truncated_bytes = recovery.Log.truncated_bytes;
                    reset_log = recovery.Log.reset_log;
                    from_snapshot = recovery.Log.snapshot <> None;
                  } )))

(* The replication stream position to persist right now: a live shipper
   or replica knows it exactly; otherwise it is the recovered basis plus
   every record appended since that snapshot (each consumed one stream
   slot while shipping was active — and reserving slots for records
   appended while it was not keeps resumed numbering strictly ahead of
   anything ever acknowledged). *)
let rep_meta t =
  match t.shipper with
  | Some sh -> Some (Si_wal.Ship.term sh, Si_wal.Ship.seq sh)
  | None -> (
      match t.replica with
      | Some r -> Some (Si_wal.Replica.term r, Si_wal.Replica.applied r)
      | None -> (
          match (t.rep_recovered, t.wal) with
          | Some (term, seq), Some st ->
              Some (term, seq + Log.record_count st.log)
          | (Some _ | None), _ -> t.rep_recovered))

let snapshot_payload ?meta t =
  let meta = match meta with Some _ as m -> m | None -> rep_meta t in
  Si_obs.Counter.incr snapshot_binary_count;
  if Si_obs.Span.on () then
    Si_obs.Span.timed snapshot_binary_latency ~layer:"wal"
      ~op:"snapshot.binary" (fun () -> snapshot_with_meta t meta)
  else snapshot_with_meta t meta

let enable_wal ?policy t path =
  match t.wal with
  | Some _ -> Error "pad is already in journaled mode"
  | None ->
      if Sys.file_exists path || Sys.file_exists (Log.snapshot_path path) then
        Error (Printf.sprintf "a write-ahead log already exists at %s" path)
      else (
        match Log.open_ ?policy path with
        | Error e -> Error (Log.error_to_string e)
        | Ok (log, _) -> (
            match Log.cut_snapshot log (snapshot_payload t) with
            | Error e ->
                ignore (Log.close log);
                Error (Log.error_to_string e)
            | Ok () ->
                install_hooks t { log; trouble = None; suppress = false };
                Ok ()))

let wal_state_result t =
  match t.wal with
  | None -> Error "pad is not in journaled mode"
  | Some st -> (
      match st.trouble with
      | Some e ->
          st.trouble <- None;
          Error e
      | None -> Ok st)

let lift = Result.map_error Log.error_to_string

let wal_sync t =
  Result.bind (wal_state_result t) (fun st -> lift (Log.sync st.log))

let wal_compact t =
  Result.bind (wal_state_result t) (fun st ->
      (* Compute the stream position before the cut: compaction resets
         [record_count], which [rep_meta] folds into its answer. *)
      let meta = rep_meta t in
      Result.map
        (fun () -> if meta <> None then t.rep_recovered <- meta)
        (lift (Log.cut_snapshot st.log (snapshot_payload ?meta t))))

let async_wakeup_capacity = 1024

let async_notify a () =
  Si_check.Lock.lock a.a_mutex;
  if a.a_pending < async_wakeup_capacity then begin
    a.a_pending <- a.a_pending + 1;
    Condition.signal a.a_cond
  end;
  Si_check.Lock.unlock a.a_mutex

let ship_round t sh =
  (* Sync first: a record is pushed only once it would survive our own
     crash, so an acknowledged write can never exist solely on a
     follower that learned it from a leader who forgot it. *)
  Result.bind (wal_sync t) (fun () -> Si_wal.Ship.ship sh)

let locked_round a f = Si_check.Lock.with_lock a.a_round f

let async_loop t a sh =
  let rec go () =
    Si_check.Lock.lock a.a_mutex;
    while a.a_pending = 0 && not a.a_stop do
      Si_check.Lock.wait a.a_cond a.a_mutex
    done;
    let stop = a.a_stop in
    a.a_pending <- 0;
    Si_check.Lock.unlock a.a_mutex;
    (* On stop this is the final drain: records teed before the flag
       was raised still ship before the domain exits. Errors surface
       through [wal_state] trouble, like hook-driven append failures. *)
    (match (locked_round a (fun () -> ship_round t sh), t.wal) with
    | Error e, Some st -> if st.trouble = None then st.trouble <- Some e
    | _ -> ());
    if not stop then go ()
  in
  go ()

let stop_async_shipping t sh =
  match t.ship_async with
  | None -> ()
  | Some a ->
      Si_wal.Ship.set_notify sh None;
      Si_check.Lock.lock a.a_mutex;
      a.a_stop <- true;
      Condition.signal a.a_cond;
      Si_check.Lock.unlock a.a_mutex;
      (match a.a_domain with Some d -> Domain.join d | None -> ());
      t.ship_async <- None

let stop_shipping t =
  match t.shipper with
  | None -> Error "pad is not shipping"
  | Some sh ->
      stop_async_shipping t sh;
      let sealed = Si_wal.Ship.checkpoint sh in
      t.rep_recovered <- Some (Si_wal.Ship.term sh, Si_wal.Ship.seq sh);
      Si_wal.Ship.close sh;
      t.shipper <- None;
      sealed

let wal_close t =
  if t.shipper <> None then ignore (stop_shipping t);
  t.replica <- None;
  match wal_state_result t with
  | Error _ as e ->
      (match t.wal with
      | Some st ->
          ignore (Log.close st.log);
          t.wal <- None
      | None -> ());
      e
  | Ok st ->
      t.wal <- None;
      lift (Log.close st.log)

(* ---------------------------------------------------------- replication *)

let shipper t = t.shipper
let replica t = t.replica
let snapshot_bytes t = binary_snapshot t
let of_snapshot_bytes ?resilient ?wrap desktop payload =
  app_of_snapshot ?resilient ?wrap desktop payload
let snapshot_meta = rep_meta_of_payload

let start_shipping ?segment_records ?term ?(async = false) t ~archive =
  match wal_state_result t with
  | Error _ as e -> e
  | Ok st -> (
      if t.shipper <> None then Error "pad is already shipping"
      else
        let rollback sh e =
          Si_wal.Ship.close sh;
          t.shipper <- None;
          Error e
        in
        (* Followers only ever see what is locally durable. *)
        match lift (Log.sync st.log) with
        | Error _ as e -> e
        | Ok () -> (
            let meta = rep_meta t in
            let term =
              match (term, meta) with
              | Some _, _ -> term
              | None, Some (tm, _) -> Some tm
              | None, None -> None
            in
            (* Resume numbering past everything this pad ever assigned;
               a first-time leader starts its base at 1 so followers
               (whose empty state is sequence 0) always install it. *)
            let seq = match meta with Some (_, s) -> max 1 s | None -> 1 in
            match
              Si_wal.Ship.create ?segment_records ?term ~seq ~archive st.log
            with
            | Error _ as e -> e
            | Ok sh -> (
                t.shipper <- Some sh;
                (* Persist the adopted (term, seq) atomically with the
                   state, then cut the archive base that catch-up and
                   point-in-time restores start from. *)
                match wal_compact t with
                | Error e -> rollback sh e
                | Ok () -> (
                    match Si_wal.Ship.write_base sh (binary_snapshot t) with
                    | Error e -> rollback sh e
                    | Ok () ->
                        if async then begin
                          let a =
                            {
                              a_mutex =
                                Si_check.Lock.create
                                  ~class_:"slimpad.ship.wake";
                              a_cond = Condition.create ();
                              a_pending = 0;
                              a_stop = false;
                              a_round =
                                Si_check.Lock.create
                                  ~class_:"slimpad.ship.round";
                              a_domain = None;
                            }
                          in
                          t.ship_async <- Some a;
                          Si_wal.Ship.set_notify sh (Some (async_notify a));
                          a.a_domain <-
                            Some (Domain.spawn (fun () -> async_loop t a sh))
                        end;
                        Ok ()))))

let with_shipper t f =
  match t.shipper with
  | None -> Error "pad is not shipping"
  | Some sh -> f sh

let ship t =
  with_shipper t (fun sh ->
      match t.ship_async with
      | None -> ship_round t sh
      | Some a ->
          (* Explicit rounds still work in async mode — e.g. "ship now,
             then read the lag" — serialized against the domain's. *)
          locked_round a (fun () -> ship_round t sh))

let shipping_async t = t.ship_async <> None

let ship_heartbeat t = with_shipper t Si_wal.Ship.heartbeat

let ship_checkpoint t =
  (* Seal, then cut a fresh base: a checkpoint is a complete restore
     point, and the new base also lets follower catch-up jump over any
     older archive file that has since been damaged. *)
  with_shipper t (fun sh ->
      Result.bind (Si_wal.Ship.checkpoint sh) (fun () ->
          Si_wal.Ship.write_base sh (binary_snapshot t)))

let attach_follower t ~name send =
  with_shipper t (fun sh -> Si_wal.Ship.attach sh ~name send)

let detach_follower t name =
  match t.shipper with None -> () | Some sh -> Si_wal.Ship.detach sh name

let open_replica ?store ?resilient ?wrap ?max_pending ?on_warning ?bootstrap
    desktop path =
  (* Immediate sync: the replica acknowledges a record only after its
     local log flushed it, so an Ack means "durable here". *)
  match
    open_wal ?store ?resilient ?wrap ~policy:Log.Immediate ?on_warning
      desktop path
  with
  | Error _ as e -> e
  | Ok (app, recovery) -> (
      let st =
        match app.wal with Some st -> st | None -> assert false
      in
      let has_history =
        recovery.from_snapshot || recovery.replayed > 0
      in
      match app.rep_recovered with
      | None when has_history ->
          ignore (wal_close app);
          Error
            (Printf.sprintf
               "wal at %s carries no replication metadata: it belongs to \
                a standalone journaled pad, not a replica"
               path)
      | _ -> (
          st.suppress <- true;
          (* Bundle bootstrap: seed a {e fresh} replica from a snapshot
             payload (a capture bundle is one — the container format is
             shared), installing its state and stream watermark exactly
             as a leader-pushed base would. The leader then ships only
             records past the bundle's [(term, seq)], so a follower can
             come up from a shipped file instead of a full catch-up. A
             replica that already has history keeps it: bootstrapping
             over an existing prefix would silently fork the stream. *)
          let boot =
            match bootstrap with
            | None -> Ok ()
            | Some _ when has_history ->
                Error
                  (Printf.sprintf
                     "replica at %s already has history; refusing to \
                      bootstrap over it"
                     path)
            | Some payload -> (
                match
                  app_and_meta_of_snapshot ?store ?resilient ?wrap desktop
                    payload
                with
                | Error e -> Error ("bootstrap: " ^ e)
                | Ok (fresh, meta) ->
                    app.dmi <- fresh.dmi;
                    app.marks <- fresh.marks;
                    install_hooks app st;
                    let term, seq = Option.value meta ~default:(0, 0) in
                    Result.map
                      (fun () -> app.rep_recovered <- Some (term, seq))
                      (lift
                         (Log.cut_snapshot st.log
                            (snapshot_with_meta app (Some (term, seq))))))
          in
          match boot with
          | Error e ->
              ignore (wal_close app);
              Error e
          | Ok () ->
          let term, applied =
            match app.rep_recovered with
            | Some (tm, s) -> (tm, s + Log.record_count st.log)
            | None -> (0, 0)
          in
          let apply payload =
            (* Hook appends are suppressed: the shipped payload itself
               is appended verbatim, keeping the local log a 1:1 mirror
               of the leader's stream (which is what makes
               [meta seq + record_count] the exact resume point). *)
            match apply_record app payload with
            | Error _ as e -> e
            | Ok () -> lift (Log.append st.log payload)
          in
          let install ~term ~seq payload =
            match app_of_snapshot ?store ?resilient ?wrap desktop payload with
            | Error _ as e -> e
            | Ok fresh ->
                app.dmi <- fresh.dmi;
                app.marks <- fresh.marks;
                (* Rewire the hooks onto the installed state (still
                   suppressed) and persist it with the base's exact
                   stream position. *)
                install_hooks app st;
                lift
                  (Log.cut_snapshot st.log
                     (snapshot_with_meta app (Some (term, seq))))
          in
          let on_term _ = ignore (wal_compact app) in
          let r =
            Si_wal.Replica.create ?max_pending ~term ~applied ~on_term
              ~apply ~install ()
          in
          app.replica <- Some r;
          Ok (app, recovery)))

let promote_replica ?segment_records t ~archive =
  match (t.replica, wal_state_result t) with
  | None, _ -> Error "pad is not a replica"
  | Some _, Error e -> Error e
  | Some r, Ok st ->
      (* Bump past every leader this replica has seen ([on_term]
         persists the new term), then lead: local mutations journal
         again and the shipper starts at our applied prefix. *)
      let term = Si_wal.Replica.promote r in
      st.suppress <- false;
      Result.map
        (fun () -> term)
        (start_shipping ?segment_records ~term t ~archive)

let restore_at ?resilient ?wrap desktop ~archive ~at =
  match Si_wal.Segment.index archive with
  | Error _ as e -> e
  | Ok idx -> (
      match Si_wal.Segment.restore_plan idx ~at with
      | Error _ as e -> e
      | Ok (base, entries) -> (
          match Si_wal.Segment.read_base ~dir:archive base with
          | Error _ as e -> e
          | Ok payload -> (
              match app_of_snapshot ?resilient ?wrap desktop payload with
              | Error _ as e -> e
              | Ok app ->
                  let restored = ref base.Si_wal.Segment.base_seq in
                  let err = ref None in
                  List.iter
                    (fun entry ->
                      if !err = None && !restored < at then
                        match Si_wal.Segment.read ~dir:archive entry with
                        | Error e -> err := Some e
                        | Ok payloads ->
                            List.iteri
                              (fun i p ->
                                let s = entry.Si_wal.Segment.seg_first + i in
                                if !err = None && s > !restored && s <= at
                                then
                                  match apply_record app p with
                                  | Ok () -> restored := s
                                  | Error e ->
                                      err :=
                                        Some
                                          (Printf.sprintf
                                             "archive record %d: %s" s e))
                              payloads)
                    entries;
                  match !err with
                  | Some e -> Error e
                  | None -> Ok (app, !restored))))

let import_pad t ~from_file ?pad_name ?rename () =
  (* Load the foreign store with a desktop-less manager: imported marks
     are copied by value, never resolved here. *)
  match load (Desktop.create ()) from_file with
  | Error msg -> Error msg
  | Ok other -> (
      let src = other.dmi in
      let pad =
        match pad_name with
        | Some name -> Dmi.find_pad src name
        | None -> (
            match Dmi.pads src with p :: _ -> Some p | [] -> None)
      in
      match pad with
      | None ->
          Error
            (match pad_name with
            | Some n -> Printf.sprintf "no pad named %S in %s" n from_file
            | None -> Printf.sprintf "no pads in %s" from_file)
      | Some src_pad ->
          (* Copy a mark into this manager under a fresh id; remember the
             mapping so scraps repoint correctly. *)
          let mark_map = Hashtbl.create 16 in
          let import_mark old_id =
            match Hashtbl.find_opt mark_map old_id with
            | Some fresh -> fresh
            | None -> (
                match Manager.mark other.marks old_id with
                | None ->
                    (* Dangling in the source; keep the dangling id. *)
                    old_id
                | Some m ->
                    let fresh =
                      match
                        Manager.create_mark t.marks
                          ~mark_type:m.Mark.mark_type ~fields:m.Mark.fields
                          ~excerpt:m.Mark.excerpt ()
                      with
                      | Ok created -> created.Mark.mark_id
                      | Error _ ->
                          (* Type unsupported here or fields now invalid:
                             keep the mark verbatim under a fresh id. *)
                          let rec fresh_id n =
                            let candidate =
                              Printf.sprintf "imported-%s-%d" old_id n
                            in
                            if Manager.mark t.marks candidate = None then
                              candidate
                            else fresh_id (n + 1)
                          in
                          let id = fresh_id 0 in
                          (match
                             Manager.add_mark t.marks { m with Mark.mark_id = id }
                           with
                          | Ok () -> ()
                          | Error _ -> ());
                          id
                    in
                    Hashtbl.add mark_map old_id fresh;
                    fresh)
          in
          (* Recursive structural copy; scrap_map feeds link rewiring. *)
          let scrap_map = Hashtbl.create 32 in
          let rec copy_bundle src_bundle ~parent =
            let copy =
              Dmi.create_bundle t.dmi
                ~name:(Dmi.bundle_name src src_bundle)
                ?pos:(Dmi.bundle_pos src src_bundle)
                ?width:(Option.map fst (Dmi.bundle_size src src_bundle))
                ?height:(Option.map snd (Dmi.bundle_size src src_bundle))
                ~parent ()
            in
            if Dmi.is_template src src_bundle then
              Dmi.set_template t.dmi copy true;
            List.iter
              (fun s ->
                let copied =
                  Dmi.create_scrap t.dmi ~name:(Dmi.scrap_name src s)
                    ?pos:(Dmi.scrap_pos src s)
                    ~mark_id:(import_mark (Dmi.scrap_mark_id src s))
                    ~parent:copy ()
                in
                Hashtbl.add scrap_map (Dmi.scrap_id s) copied;
                List.iter
                  (Dmi.annotate_scrap t.dmi copied)
                  (Dmi.annotations src s))
              (Dmi.scraps src src_bundle);
            List.iter
              (fun d ->
                ignore
                  (Dmi.add_decoration t.dmi copy
                     ~kind:(Dmi.decoration_kind src d)
                     ?pos:(Dmi.decoration_pos src d) ()))
              (Dmi.decorations src src_bundle);
            List.iter
              (fun nested -> ignore (copy_bundle nested ~parent:copy))
              (Dmi.nested_bundles src src_bundle);
            copy
          in
          let new_name =
            match rename with
            | Some n -> n
            | None -> Dmi.pad_name src src_pad ^ " (imported)"
          in
          let new_pad = Dmi.create_slimpad t.dmi ~pad_name:new_name in
          let new_root = Dmi.root_bundle t.dmi new_pad in
          let src_root = Dmi.root_bundle src src_pad in
          List.iter
            (fun s ->
              let copied =
                Dmi.create_scrap t.dmi ~name:(Dmi.scrap_name src s)
                  ?pos:(Dmi.scrap_pos src s)
                  ~mark_id:(import_mark (Dmi.scrap_mark_id src s))
                  ~parent:new_root ()
              in
              Hashtbl.add scrap_map (Dmi.scrap_id s) copied;
              List.iter (Dmi.annotate_scrap t.dmi copied)
                (Dmi.annotations src s))
            (Dmi.scraps src src_root);
          List.iter
            (fun d ->
              ignore
                (Dmi.add_decoration t.dmi new_root
                   ~kind:(Dmi.decoration_kind src d)
                   ?pos:(Dmi.decoration_pos src d) ()))
            (Dmi.decorations src src_root);
          List.iter
            (fun nested -> ignore (copy_bundle nested ~parent:new_root))
            (Dmi.nested_bundles src src_root);
          (* Links whose both ends were imported come along. *)
          List.iter
            (fun l ->
              match Dmi.link_ends src l with
              | Some (a, b) -> (
                  match
                    ( Hashtbl.find_opt scrap_map (Dmi.scrap_id a),
                      Hashtbl.find_opt scrap_map (Dmi.scrap_id b) )
                  with
                  | Some a', Some b' ->
                      ignore
                        (Dmi.link_scraps t.dmi
                           ?label:(Dmi.link_label src l)
                           ~from_:a' ~to_:b' ())
                  | _ -> ())
              | None -> ())
            (Dmi.links src);
          Ok new_pad)

(* -------------------------------------------------------- observability *)

let stats () = Si_obs.Registry.snapshot ()
let stats_text () = Si_obs.Report.to_text (stats ())

let stats_json () =
  Si_obs.Json.to_string ~pretty:true (Si_obs.Report.to_json (stats ()))

let reset_stats () = Si_obs.Registry.reset ()

let with_tracing f =
  Si_obs.Span.enable ();
  match f () with
  | v ->
      Si_obs.Span.disable ();
      (v, Si_obs.Span.drain ())
  | exception e ->
      Si_obs.Span.disable ();
      ignore (Si_obs.Span.drain ());
      raise e
