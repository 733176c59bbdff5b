(* The traced run: the same seeded requests replayed in this process
   through each layer's public functions, with a span around every
   call the benchmark makes into a layer. No span is recorded inside
   the library; a span's self time is its duration minus its
   children's. *)

module Proto = Si_serve.Proto
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Query = Si_query.Query
module Desktop = Si_mark.Desktop
module Json = Si_obs.Json

(* --- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** -1 for a root. *)
  req : int;  (** Request the span belongs to; -1 outside requests. *)
}

let tracing = ref false
let finished : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let reset () =
  finished := [];
  next_id := 0;
  stack := [];
  current_req := -1

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = Proc.now_ns () in
    let finish () =
      stack := List.tl !stack;
      finished :=
        { id; name; start_ns; end_ns = Proc.now_ns (); parent; req = !current_req }
        :: !finished
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let collected () =
  let a = Array.of_list !finished in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

let dur s = s.end_ns - s.start_ns

let self_times spans =
  let child = Array.make (Array.length spans) 0 in
  Array.iter (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + dur s) spans;
  Array.map (fun s -> dur s - child.(s.id)) spans

let layer_of name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      match String.sub name 0 i with
      | ("desktop" | "cli") as l -> l
      | lib -> "si_" ^ lib)

(* --- the request stream, replayed ------------------------------------ *)

type ctx = {
  app : Slimpad.t;
  trim : Trim.t;
  mutable rows_built : int;
  mutable rows_returned : int;
  mutable query_calls : int;
  mutable query_rows : int;
  mutable resolves : int;
  mutable matches : int;
  mutable resolves_failed : int;
  mutable next_job : int;
  mutable jobs : Proto.job_kind list;
}

let context app =
  {
    app;
    trim = Dmi.trim (Slimpad.dmi app);
    rows_built = 0;
    rows_returned = 0;
    query_calls = 0;
    query_rows = 0;
    resolves = 0;
    matches = 0;
    resolves_failed = 0;
    next_job = 1;
    jobs = [];
  }

let persist ctx = span "wal.sync" (fun () -> Slimpad.wal_sync ctx.app)

let take limit rows =
  if limit <= 0 then rows else List.filteri (fun i _ -> i < limit) rows

let write ctx f =
  ignore (span "triple.write" f);
  match persist ctx with Ok () -> Proto.Ok_done | Error e -> Proto.Err e

(* The calls [Server.handle] (lib/server/server.ml) makes, in the same
   order, minus the writer lock: the replay is single-threaded. Jobs
   are queued and run after the request, as the server's job runner
   would. *)
let dispatch ctx (req : Proto.request) : Proto.response =
  match req with
  | Ping -> Pong
  | Select { pattern = p; limit } ->
      let rows =
        span "triple.select" (fun () ->
            Trim.select ?subject:p.p_subject ?predicate:p.p_predicate
              ?object_:p.p_object ctx.trim)
      in
      let kept = take limit rows in
      ctx.rows_built <- ctx.rows_built + List.length rows;
      ctx.rows_returned <- ctx.rows_returned + List.length kept;
      Triples (span "serve.render" (fun () -> List.map Triple.to_string kept))
  | Count p ->
      Count_is
        (span "triple.count" (fun () ->
             Trim.count_select ?subject:p.p_subject ?predicate:p.p_predicate
               ?object_:p.p_object ctx.trim))
  | Query text -> (
      match span "query.parse" (fun () -> Query.parse text) with
      | Error e -> Err e
      | Ok q ->
          let q = span "query.optimize" (fun () -> Query.optimize ctx.trim q) in
          let rows = span "query.run" (fun () -> Query.run ctx.trim q) in
          ctx.query_calls <- ctx.query_calls + 1;
          ctx.query_rows <- ctx.query_rows + List.length rows;
          Rows (span "serve.render" (fun () -> List.map Query.binding_to_string rows)))
  | Add t -> write ctx (fun () -> Trim.add ctx.trim t)
  | Remove t -> write ctx (fun () -> Trim.remove ctx.trim t)
  | Resolve { pad; scrap } -> (
      match Dmi.find_pad (Slimpad.dmi ctx.app) pad with
      | None -> Err "no pad"
      | Some p -> (
          let found =
            span "slimpad.find_scraps" (fun () -> Slimpad.find_scraps ctx.app p scrap)
          in
          ctx.resolves <- ctx.resolves + 1;
          ctx.matches <- ctx.matches + List.length found;
          match found with
          | [] -> Err "no scrap"
          | s :: _ -> (
              match span "mark.resolve" (fun () -> Slimpad.double_click ctx.app s) with
              | Ok res -> Resolved res.Si_mark.Mark.res_display
              | Error e ->
                  ctx.resolves_failed <- ctx.resolves_failed + 1;
                  Err e)))
  | Submit { kind; _ } ->
      let id = ctx.next_job in
      ctx.next_job <- id + 1;
      ctx.jobs <- ctx.jobs @ [ kind ];
      Accepted id
  | Open_pad _ | Pads | Stats | Job_status _ | Shutdown -> Err "not replayed"

(* The job runner's work for the jobs the benchmark submits: bulk
   imports in the server's 16-triple writer batches, and compaction. *)
let run_jobs ctx =
  List.iter
    (fun kind ->
      span "serve.job" (fun () ->
          match kind with
          | Proto.Bulk_add { count; predicate } ->
              let rec go done_ =
                if done_ < count then begin
                  let n = min 16 (count - done_) in
                  span "triple.write" (fun () ->
                      for i = done_ to done_ + n - 1 do
                        let s = Trim.new_id ~prefix:"bulk" ctx.trim in
                        ignore
                          (Trim.add ctx.trim
                             (Triple.make s predicate (Triple.Literal (string_of_int i))))
                      done);
                  ignore (persist ctx);
                  go (done_ + n)
                end
              in
              go 0
          | Proto.Compact ->
              ignore (span "wal.compact" (fun () -> Slimpad.wal_compact ctx.app))
          | _ -> ()))
    ctx.jobs;
  ctx.jobs <- []

type outcome = {
  resp : (Proto.response, string) result;  (** As the client decodes it. *)
  frame_bytes : int;
}

let exec ctx (op : Gen.op) =
  let raw_req, req =
    span "serve.codec" (fun () ->
        let raw = Proto.encode_request op.req in
        (raw, Proto.decode_request raw))
  in
  let resp =
    match req with Ok req -> dispatch ctx req | Error e -> Proto.Err e
  in
  let raw_resp, resp =
    span "serve.codec" (fun () ->
        let raw = Proto.encode_response resp in
        (raw, Proto.decode_response raw))
  in
  (* Each frame also carries the transport's 8-byte header. *)
  { resp; frame_bytes = String.length raw_req + String.length raw_resp + 16 }

(* --- opening a workspace in-process ----------------------------------- *)

(* The base documents of a workspace, loaded as bin/workspace.ml does
   for the suffixes the generated workspaces hold. *)
let load_desktop dir =
  let desk = Desktop.create () in
  let suffix s e =
    String.length e >= String.length s
    && String.sub e (String.length e - String.length s) (String.length s) = s
  in
  let strip s e = String.sub e 0 (String.length e - String.length s) in
  Array.iter
    (fun e ->
      let path = Filename.concat dir e in
      span "desktop.load" (fun () ->
          if suffix ".workbook.xml" e then
            Desktop.add_workbook desk (strip ".workbook.xml" e)
              (Gen.must e (Si_spreadsheet.Workbook.load path))
          else if suffix ".txt" e then
            Desktop.add_text desk e (Gen.must e (Si_textdoc.Textdoc.from_file path))
          else if suffix ".xml" e && e <> "pad.xml" then
            match Si_xmlk.Parse.file path with
            | Ok root -> Desktop.add_xml desk e root
            | Error err -> failwith (e ^ ": " ^ Si_xmlk.Parse.error_to_string err)))
    (Sys.readdir dir);
  desk

let open_served dir =
  let desk = load_desktop dir in
  span "wal.recover" (fun () ->
      match
        Slimpad.open_wal ~store:(module Si_triple.Store.Sharded_columnar) desk
          (Gen.wal_path dir)
      with
      | Ok (app, _) -> app
      | Error e -> failwith ("open_wal: " ^ e))

(* --- measuring one replay -------------------------------------------- *)

type pass = {
  request_ns : float list;  (** Measured (post-warm-up) request times. *)
  attempted : int;
  failed : int;
  words : float;
  counters : (string * int) list;  (** Si_obs counter deltas. *)
  log_bytes : int;
  writes : int;
  frame_bytes : int;
}

let counter_values () = (Si_obs.Registry.snapshot ()).Si_obs.Registry.counters

let counter_delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get after - get before

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let replay ctx ~wal ops =
  let warm = Array.length ops / 10 in
  let times = ref [] and failed = ref 0 and log_bytes = ref 0 and writes = ref 0 in
  let frames = ref 0 in
  let c0 = counter_values () and w0 = words () in
  Array.iteri
    (fun i (op : Gen.op) ->
      let size0 = if op.cls = Gen.Write then Gen.file_size wal else 0 in
      current_req := i;
      let t0 = Proc.now_ns () in
      let o = span "serve.request" (fun () -> exec ctx op) in
      let dt = Proc.now_ns () - t0 in
      current_req := -1;
      if i >= warm then times := float_of_int dt :: !times;
      (* Checked outside the request span: the check is the
         benchmark's work, not the server's. *)
      (match o.resp with Ok r when Gen.check op.expect r -> () | _ -> incr failed);
      frames := !frames + o.frame_bytes;
      if op.cls = Gen.Write then begin
        incr writes;
        log_bytes := !log_bytes + max 0 (Gen.file_size wal - size0)
      end;
      current_req := i;
      run_jobs ctx;
      current_req := -1)
    ops;
  let w1 = words () and c1 = counter_values () in
  {
    request_ns = !times;
    attempted = Array.length ops;
    failed = !failed;
    words = w1 -. w0;
    counters =
      List.map
        (fun n -> (n, counter_delta c0 c1 n))
        [ "triple.select"; "atom.intern"; "wal.append"; "wal.fsync" ];
    log_bytes = !log_bytes;
    writes = !writes;
    frame_bytes = !frames;
  }

(* --- span statistics --------------------------------------------------- *)

type group = { calls : int; self_ns : int; self_p50_ns : float }

(* Spans grouped by [key], with their self times. *)
let group key spans =
  let selfs = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let k = key s.name in
      Hashtbl.replace tbl k (selfs.(i) :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    spans;
  Hashtbl.fold
    (fun k l acc ->
      ( k,
        {
          calls = List.length l;
          self_ns = List.fold_left ( + ) 0 l;
          self_p50_ns = Stats.median (List.map float_of_int l);
        } )
      :: acc)
    tbl []
  |> List.sort compare

(* A request is a root span holding a request id; the job runner's
   roots ("serve.job") are not requests. *)
let is_request s = s.parent < 0 && s.req >= 0 && s.name <> "serve.job"

type gap = { overall : float; request_p50 : float; request_p99 : float; worst : float }

(* The time inside request spans that no layer's span covers, which is
   each request span's own self time, as a share of request time: over
   all requests together, and the quantiles of the per-request shares.
   A request that a major GC slice interrupts outside every layer's
   span is almost all gap, so checks use the overall share. *)
let unattributed spans =
  let selfs = self_times spans in
  let own = ref 0 and total = ref 0 and shares = ref [] in
  Array.iter
    (fun s ->
      if is_request s && dur s > 0 then begin
        own := !own + selfs.(s.id);
        total := !total + dur s;
        shares := (float_of_int selfs.(s.id) /. float_of_int (dur s)) :: !shares
      end)
    spans;
  if !shares = [] then { overall = 0.; request_p50 = 0.; request_p99 = 0.; worst = 0. }
  else
    let a = Stats.sorted !shares in
    {
      overall = float_of_int !own /. float_of_int !total;
      request_p50 = Stats.quantile_sorted a 0.5;
      request_p99 = Stats.quantile_sorted a 0.99;
      worst = Stats.quantile_sorted a 1.;
    }

let spans_json spans =
  let b = Buffer.create (Array.length spans * 96) in
  Buffer.add_string b "{\"spans\": [\n";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %s, \"req_id\": %s}"
        s.name s.start_ns s.end_ns
        (if s.parent < 0 then "null" else string_of_int s.parent)
        (if s.req < 0 then "null" else string_of_int s.req))
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Per layer and per span name: calls, total self time, per-call self
   time p50, and share of the traced time. *)
let layers_json spans ~traced_ns ~overhead ~gap =
  let share ns = if traced_ns = 0 then 0. else float_of_int ns /. float_of_int traced_ns in
  let table groups =
    Json.Obj
      (List.map
         (fun (k, g) ->
           ( k,
             Json.Obj
               [
                 ("calls", Json.Int g.calls);
                 ("self_ms", Json.Float (float_of_int g.self_ns /. 1e6));
                 ("self_p50_us", Json.Float (g.self_p50_ns /. 1e3));
                 ("share", Json.Float (share g.self_ns));
               ] ))
         groups)
  in
  Json.Obj
    [
      ("overhead_frac", Json.Float overhead);
      ( "unattributed",
        Json.Obj
          [
            ("overall", Json.Float gap.overall);
            ("request_p50", Json.Float gap.request_p50);
            ("request_p99", Json.Float gap.request_p99);
            ("request_worst", Json.Float gap.worst);
          ] );
      ("layers", table (group layer_of spans));
      ("spans", table (group Fun.id spans));
    ]

(* Merge this workload's entry into DIR/layers.json. *)
let write_layers dir workload entry =
  let path = Filename.concat dir "layers.json" in
  let others =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (Json.Obj l) -> List.remove_assoc workload l
    | _ | (exception Sys_error _) -> []
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~pretty:true
           (Json.Obj (List.sort compare ((workload, entry) :: others)))))
