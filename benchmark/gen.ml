(* Seeded inputs: the workspaces every rep starts from, and the request
   streams driven against them, each request with the answer it must
   get. Only sizes and the seed shape the inputs, so equal seeds give
   equal inputs and other seeds give inputs of the same size. *)

module Proto = Si_serve.Proto
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Desktop = Si_mark.Desktop

type sizes = {
  patients : int;  (** ICU worksheet behind rounds, ingest, captivity. *)
  lookup_subjects : int;  (** Scraps of the synthetic lookup pad. *)
  rounds_gestures : int;  (** Per session per rep. *)
  lookup_requests : int;
  ingest_requests : int;
  bulk_every : int;
  compact_every : int;
}

let full =
  {
    patients = 200;
    lookup_subjects = 143_000;
    rounds_gestures = 2_000;
    lookup_requests = 100_000;
    ingest_requests = 60_000;
    bulk_every = 500;
    compact_every = 10_000;
  }

let smoke =
  {
    patients = 8;
    lookup_subjects = 1_400;
    rounds_gestures = 400;
    lookup_requests = 400;
    ingest_requests = 400;
    bulk_every = 100;
    compact_every = 200;
  }

let rounds_sessions = 2
let pad_name = "Rounds"
let bulk_count = 256
let bulk_predicate = "benchBulk"
let select_limit = 32
let lookup_limit = 16

(* Which end-to-end latency a request feeds: every workload names one
   read and one write operation (see README.md). *)
type cls = Read | Write | Other

type expect =
  | Resolved_one_of of string list  (** Any matching scrap's display. *)
  | Rows of int
  | Subject_rows of string * int  (** Exactly n rows, all for the subject. *)
  | Count of int
  | Done
  | Accepted

type op = { req : Proto.request; kind : string; cls : cls; expect : expect }

let rng seed salt = Random.State.make [| seed; salt |]
let pick st a = a.(Random.State.int st (Array.length a))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Workspaces are flat directories of regular files. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun e ->
      let data = In_channel.with_open_bin (Filename.concat src e) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst e) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
let wal_path dir = Filename.concat dir "pad.wal"

let must what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let journal app dir =
  must "enable_wal" (Slimpad.enable_wal app (wal_path dir));
  must "wal_close" (Slimpad.wal_close app)

(* --- rounds: the ICU worksheet of Fig 2/4 ------------------------------ *)

type rounds = {
  r_triples : int;
  r_bundles : int;
  r_scraps : int;
  r_resolves : (string * string list) array;  (** Label, displays. *)
  r_queries : (string * int) array;  (** Query text, rows. *)
  r_selects : (string * int) array;  (** Bundle id, rows at the limit. *)
  r_page_rows : int;
  r_scrap_ids : string array;
}

(* Base documents persisted as files, the way [slimpad init] writes
   them (bin/slimpad_cli.ml), so the server loads them as a user's
   workspace would. *)
let persist_documents dir desk =
  List.iter
    (fun (kind, name) ->
      let path = Filename.concat dir name in
      match kind with
      | "excel" ->
          Si_spreadsheet.Workbook.save
            (Result.get_ok (Desktop.open_workbook desk name))
            (path ^ ".workbook.xml")
      | "xml" ->
          Si_xmlk.Print.to_file path (Result.get_ok (Desktop.open_xml desk name))
      | "text" ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Si_textdoc.Textdoc.to_string
                   (Result.get_ok (Desktop.open_text desk name))))
      | _ -> ())
    (Desktop.document_names desk)

let display app scrap =
  match Slimpad.double_click app scrap with
  | Ok res -> res.Si_mark.Mark.res_display
  | Error e -> failwith ("resolve while generating: " ^ e)

let build_rounds ~sizes ~seed dir =
  rm_rf dir;
  mkdir_p dir;
  let desk = Desktop.create () in
  let spec = Si_workload.Icu.build_desktop ~patients:sizes.patients ~seed desk in
  let app = Slimpad.create desk in
  let pad = Si_workload.Icu.build_worksheet app spec in
  persist_documents dir desk;
  let dmi = Slimpad.dmi app in
  let trim = Dmi.trim dmi in
  let patients = Array.of_list (Dmi.nested_bundles dmi (Dmi.root_bundle dmi pad)) in
  let scraps = Array.of_list (Slimpad.find_scraps app pad "") in
  (* Resolve targets in fixed shares per mark type, so every seed
     resolves the same mix of lab results, notes and spreadsheet
     ranges. *)
  let st = rng seed 1 in
  let of_type t =
    Array.of_list
      (List.filter
         (fun s ->
           match Slimpad.scrap_mark app s with
           | Some m -> m.Si_mark.Mark.mark_type = t
           | None -> false)
         (Array.to_list scraps))
  in
  let resolves =
    Array.concat
      (List.map
         (fun (t, n) ->
           let pool = of_type t in
           Array.init n (fun _ ->
               let label = Dmi.scrap_name dmi (pick st pool) in
               ( label,
                 List.sort_uniq compare
                   (List.map (display app) (Slimpad.find_scraps app pad label)) )))
         [ ("xml", 40); ("text", 20); ("excel", 4) ])
  in
  let queries =
    Array.map
      (fun b ->
        let text =
          Printf.sprintf
            "select ?name where { <%s> bundleContent ?s . ?s scrapName ?name }"
            (Dmi.bundle_id b)
        in
        (text, List.length (must "query" (Slimpad.query app text))))
      patients
  in
  let selects =
    Array.map
      (fun b ->
        let id = Dmi.bundle_id b in
        (id, min select_limit (Trim.count_select ~subject:id trim)))
      patients
  in
  let bundles, scrap_count = Dmi.bundle_descendant_count dmi (Dmi.root_bundle dmi pad) in
  let r =
    {
      r_triples = Trim.size trim;
      r_bundles = bundles;
      r_scraps = scrap_count;
      r_resolves = resolves;
      r_queries = queries;
      r_selects = selects;
      r_page_rows = min select_limit (Trim.count_select ~predicate:"scrapName" trim);
      r_scrap_ids = Array.map Dmi.scrap_id scraps;
    }
  in
  journal app dir;
  r

let subject_pattern s = { Proto.any with p_subject = Some s }

(* One session's gestures: 30% resolve, 20% query, 20% select by
   bundle, 10% page, 20% annotate (a durable add, then its removal). *)
let rounds_ops r ~sizes ~seed ~session =
  let st = rng seed (100 + session) in
  let ops = ref [] in
  let push req kind cls expect = ops := { req; kind; cls; expect } :: !ops in
  for k = 0 to sizes.rounds_gestures - 1 do
    let x = Random.State.int st 100 in
    if x < 30 then begin
      let label, displays = pick st r.r_resolves in
      push (Proto.Resolve { pad = pad_name; scrap = label }) "resolve" Read
        (Resolved_one_of displays)
    end
    else if x < 50 then begin
      let text, rows = pick st r.r_queries in
      push (Proto.Query text) "query" Other (Rows rows)
    end
    else if x < 70 then begin
      let id, rows = pick st r.r_selects in
      push
        (Proto.Select { pattern = subject_pattern id; limit = select_limit })
        "select" Other (Subject_rows (id, rows))
    end
    else if x < 80 then
      push
        (Proto.Select
           {
             pattern = { Proto.any with p_predicate = Some "scrapName" };
             limit = select_limit;
           })
        "page" Other (Rows r.r_page_rows)
    else begin
      let t =
        Triple.make (pick st r.r_scrap_ids) "benchNote"
          (Triple.Literal (Printf.sprintf "s%d-%d" session k))
      in
      push (Proto.Add t) "add" Write Done;
      push (Proto.Remove t) "remove" Write Done
    end
  done;
  Array.of_list (List.rev !ops)

(* --- lookup: a synthetic pad far beyond any CPU cache --------------- *)

type lookup = {
  l_subjects : string array;  (** By popularity rank. *)
  l_fanout : int array;  (** Triples per subject, by rank. *)
  l_triples : int;
}

let build_lookup ~sizes ~seed dir =
  rm_rf dir;
  mkdir_p dir;
  let n = sizes.lookup_subjects in
  let st = rng seed 2 in
  (* Popularity rank -> scrap id, shuffled so hot subjects are spread
     over the store instead of sitting in insertion order. *)
  let id_of_rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = id_of_rank.(i) in
    id_of_rank.(i) <- id_of_rank.(j);
    id_of_rank.(j) <- t
  done;
  let name id = Printf.sprintf "scrap-%06d" id in
  (* Fan-out follows rank, so the hot head has the same shape for
     every seed. *)
  let fanout_of_id = Array.make n 0 in
  Array.iteri (fun rank id -> fanout_of_id.(id) <- 2 + (rank mod 4)) id_of_rank;
  let app = Slimpad.create (Desktop.create ()) in
  let trim = Dmi.trim (Slimpad.dmi app) in
  for id = 0 to n - 1 do
    let s = name id in
    ignore
      (Trim.add trim
         (Triple.make s "rdf:type" (Triple.Resource "model:bundle-scrap/Scrap")));
    ignore (Trim.add trim (Triple.make s "scrapName" (Triple.Literal ("note " ^ s))));
    for k = 3 to fanout_of_id.(id) do
      ignore
        (Trim.add trim
           (Triple.make s "linksTo"
              (Triple.Resource (Printf.sprintf "%s#%d" (name (Random.State.int st n)) k))))
    done
  done;
  let l =
    {
      l_subjects = Array.map name id_of_rank;
      l_fanout = Array.map (fun id -> fanout_of_id.(id)) id_of_rank;
      l_triples = Trim.size trim;
    }
  in
  journal app dir;
  l

(* 45% count and 45% select-16 by subject, skewed (u^3) towards a hot
   head; 10% durable adds of new subjects. [tag] keeps the new
   subjects of different replays apart. *)
let lookup_ops l ~sizes ~seed ~tag =
  let st = rng seed 3 in
  let n = Array.length l.l_subjects in
  Array.init sizes.lookup_requests (fun k ->
      let x = Random.State.int st 100 in
      let u = Random.State.float st 1. in
      let r = min (n - 1) (int_of_float (u *. u *. u *. float_of_int n)) in
      let s = l.l_subjects.(r) in
      if x < 45 then
        { req = Proto.Count (subject_pattern s); kind = "count"; cls = Other;
          expect = Count l.l_fanout.(r) }
      else if x < 90 then
        {
          req = Proto.Select { pattern = subject_pattern s; limit = lookup_limit };
          kind = "select"; cls = Read;
          expect = Subject_rows (s, min lookup_limit l.l_fanout.(r));
        }
      else
        {
          req =
            Proto.Add
              (Triple.make (Printf.sprintf "new-%s-%d" tag k) "scrapName"
                 (Triple.Literal s));
          kind = "add"; cls = Write; expect = Done;
        })

(* --- ingest: durable writes and background jobs on the rounds pad --- *)

(* Adds of new subjects; every [bulk_every]th request submits a bulk
   import and every [compact_every]th a WAL compaction; 5% count a
   subject acknowledged earlier in the stream (read-your-writes). *)
let ingest_ops ~sizes ~seed ~tag =
  let st = rng seed 4 in
  let added = Array.make sizes.ingest_requests "" and n_added = ref 0 in
  Array.init sizes.ingest_requests (fun k ->
      let nth = k + 1 in
      if nth mod sizes.compact_every = 0 then
        { req = Proto.Submit { kind = Proto.Compact; priority = Proto.Bulk };
          kind = "compact"; cls = Other; expect = Accepted }
      else if nth mod sizes.bulk_every = 0 then
        {
          req =
            Proto.Submit
              { kind = Proto.Bulk_add { count = bulk_count; predicate = bulk_predicate };
                priority = Proto.Bulk };
          kind = "bulk"; cls = Other; expect = Accepted;
        }
      else if !n_added > 0 && Random.State.int st 100 < 5 then
        {
          req = Proto.Count (subject_pattern added.(Random.State.int st !n_added));
          kind = "count"; cls = Read; expect = Count 1;
        }
      else begin
        let s = Printf.sprintf "ing-%s-%d" tag k in
        added.(!n_added) <- s;
        incr n_added;
        {
          req =
            Proto.Add
              (Triple.make s "benchValue"
                 (Triple.Literal (string_of_int (Random.State.bits st))));
          kind = "add"; cls = Write; expect = Done;
        }
      end)

(* Every triple an ingest stream adds interactively. *)
let ingest_added ops =
  Array.to_list ops
  |> List.filter_map (fun o -> match o.req with Proto.Add t -> Some t | _ -> None)

(* --- answer checks -------------------------------------------------- *)

let row_for subject row = String.starts_with ~prefix:("(<" ^ subject ^ "> ") row

let check expect (resp : Proto.response) =
  match (expect, resp) with
  | Resolved_one_of displays, Proto.Resolved d -> List.mem d displays
  | Rows n, (Proto.Triples rows | Proto.Rows rows) -> List.length rows = n
  | Subject_rows (s, n), Proto.Triples rows ->
      List.length rows = n && List.for_all (row_for s) rows
  | Count n, Proto.Count_is m -> n = m
  | Done, Proto.Ok_done -> true
  | Accepted, Proto.Accepted _ -> true
  | _ -> false
