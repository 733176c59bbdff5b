(* The pad server: one accept domain feeding a bounded connection
   queue, a fixed pool of worker domains each serving one connection at
   a time (frames are request/response, so concurrency = workers), and
   one job-runner domain draining the background queue.

   Reads run concurrently without a lock, each on one snapshot of the
   store, and go to the attached follower whenever its bounded-staleness
   guard holds, while every mutation serializes through [writer] and
   syncs the leader's WAL before the response, so an acknowledged write
   survives a process crash. The sync flushes to the OS and does not
   fsync, so a power loss can still drop it (see [Si_wal.Log]).

   Backpressure is typed, never blocking: a full connection queue is
   answered [Overloaded] at accept, a full job queue at submit. A frame
   the transport or parser refuses gets one [Err] response and the
   connection is dropped — a misbehaving peer cannot wedge a worker. *)

module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Mark = Si_mark.Mark
module Query = Si_query.Query
module Tcp = Si_wal.Tcp
module Replica = Si_wal.Replica

let request_count = Si_obs.Registry.counter "server.request"
let proto_error_count = Si_obs.Registry.counter "server.proto_error"
let overloaded_count = Si_obs.Registry.counter "server.overloaded"
let replica_read_count = Si_obs.Registry.counter "server.read.replica"
let leader_read_count = Si_obs.Registry.counter "server.read.leader"
let sessions_gauge = Si_obs.Registry.gauge "server.sessions"
let queue_gauge = Si_obs.Registry.gauge "server.queue.depth"
let request_latency = Si_obs.Registry.histogram "server.request"

(* ["server.req.<op>"] per request kind, resolved once: a lookup per
   request would build the name and take the process-wide registry
   lock on every worker domain. *)
let op_latency =
  Array.map
    (fun op -> Si_obs.Registry.histogram ("server.req." ^ op))
    Proto.request_ops

type config = {
  addr : string;
  port : int;
  workers : int;
  pending_connections : int;
  job_capacity : int;
  max_lag : int;
  workspace : string option;
}

let default_config =
  {
    addr = "127.0.0.1";
    port = 0;
    workers = 4;
    pending_connections = 64;
    job_capacity = 8;
    max_lag = 64;
    workspace = None;
  }

type job = { job_id : int; job_kind : Proto.job_kind }

type t = {
  cfg : config;
  leader : Slimpad.t;
  follower : (Slimpad.t * Replica.t) option;
  listen_fd : Unix.file_descr;
  srv_port : int;
  stopping : bool Atomic.t;
  conns : Unix.file_descr Jobq.t;
  jobs : job Jobq.t;
  job_states : (int, Proto.job_state) Hashtbl.t;  (* under job_lock *)
  job_lock : Si_check.Lock.t;
  mutable next_job : int;  (* under job_lock *)
  writer : Si_check.Lock.t;
      (* serializes every mutation through the WAL; persisting (the
         WAL flush) happens inside it by design, so the class is
         io_ok in Si_check.Hierarchy *)
  sessions : (Unix.file_descr, unit) Hashtbl.t;  (* under session_lock *)
  session_lock : Si_check.Lock.t;
  mutable domains : unit Domain.t list;
  mutable joined : bool;
}

let port t = t.srv_port
let locked m f = Si_check.Lock.with_lock m f

let with_writer t f = locked t.writer f

let set_job t id state =
  locked t.job_lock (fun () -> Hashtbl.replace t.job_states id state)

let job_state t id =
  locked t.job_lock (fun () -> Hashtbl.find_opt t.job_states id)

(* A pad without a WAL (tests, scratch servers) still works — writes
   just have nothing to sync. *)
let persist t =
  match Slimpad.wal t.leader with
  | None -> Ok ()
  | Some _ -> Slimpad.wal_sync t.leader

(* --- read routing ---------------------------------------------------- *)

let read_app t =
  match t.follower with
  | Some (fapp, rep) when Replica.fresh_enough rep ~max_lag:t.cfg.max_lag ->
      Si_obs.Counter.incr replica_read_count;
      fapp
  | _ ->
      Si_obs.Counter.incr leader_read_count;
      t.leader

let read_trim t = Dmi.trim (Slimpad.dmi (read_app t))

let take limit rows =
  if limit <= 0 then rows
  else
    let rec go n = function
      | x :: rest when n > 0 -> x :: go (n - 1) rest
      | _ -> []
    in
    go limit rows

(* --- background jobs ------------------------------------------------- *)

let bulk_batch = 16

let run_job t = function
  | Proto.Compact ->
      with_writer t (fun () ->
          Result.map (fun () -> "compacted") (Slimpad.wal_compact t.leader))
  | Proto.Checkpoint ->
      with_writer t (fun () ->
          Result.map
            (fun () -> "checkpointed")
            (Slimpad.ship_checkpoint t.leader))
  | Proto.Lint ->
      (* Read-only over the live stores, whose reads take no lock;
         deliberately outside the writer lock so a long lint pass never
         stalls interactive writes. *)
      let app = t.leader in
      let ctx =
        Si_lint.context ~dmi:(Slimpad.dmi app) ~marks:(Slimpad.marks app)
          ~resilient:(Slimpad.resilient app) ()
      in
      Ok (Printf.sprintf "%d diagnostic(s)" (List.length (Si_lint.run ctx)))
  | Proto.Bulk_add { count; predicate } ->
      (* Small writer-locked batches: interactive writes interleave
         between them instead of waiting out the whole import. *)
      let trim = Dmi.trim (Slimpad.dmi t.leader) in
      let rec go done_ pauses =
        if done_ >= count then
          Ok
            (if pauses = 0 then Printf.sprintf "added %d triple(s)" count
             else
               Printf.sprintf "added %d triple(s), %d yield pause(s)" count
                 pauses)
        else
          let n = min bulk_batch (count - done_) in
          let contended_before = Si_check.Lock.contended t.writer in
          let step =
            with_writer t (fun () ->
                for i = done_ to done_ + n - 1 do
                  let s = Trim.new_id ~prefix:"bulk" trim in
                  ignore
                    (Trim.add trim
                       (Triple.make s predicate
                          (Triple.Literal (string_of_int i))))
                done;
                persist t)
          in
          match step with
          | Ok () ->
              (* Mutexes barge: without a pause the runner re-grabs the
                 writer lock before a blocked interactive write wakes,
                 and the import monopolizes the leader anyway. The lock
                 is free here — the pause happens outside it — and it is
                 taken at all only when someone actually contended during
                 the batch (the instrumented lock counts that for free),
                 so an uncontended import runs at full speed. *)
              if Si_check.Lock.contended t.writer > contended_before then begin
                Si_check.blocking ~kind:"sleep" (fun () ->
                    Unix.sleepf 0.0002);
                go (done_ + n) (pauses + 1)
              end
              else go (done_ + n) pauses
          | Error _ as e -> e
      in
      go 0 0
  | Proto.Capture { path; with_bases } ->
      (* Under the writer lock so the artifact is one consistent cut of
         the pad; the lock's class is io_ok, so writing the file inside
         it is legitimate (same discipline as persist). *)
      let bases =
        match (with_bases, t.cfg.workspace) with
        | true, Some dir -> Some (Si_bundle.Layout.reader ~dir)
        | true, None | false, _ -> None
      in
      with_writer t (fun () ->
          match
            Si_bundle.capture_to_file
              ?workspace_id:t.cfg.workspace ?bases t.leader ~path
          with
          | Error _ as e -> e
          | Ok report ->
              Ok
                (Printf.sprintf
                   "captured %d triple(s), %d mark(s), %d base(s), %d \
                    problem(s)"
                   report.Si_bundle.captured_triples
                   report.Si_bundle.captured_marks
                   report.Si_bundle.captured_bases
                   (List.length report.Si_bundle.capture_problems)))
  | Proto.Apply { path; strict } -> (
      (* Pre-flight outside the writer lock: load the bundle into a
         scratch pad and lint it, so a dirty bundle under [strict] is
         refused before the leader is touched (and a long lint pass
         never stalls interactive writes). *)
      match Si_bundle.read_file path with
      | Error _ as e -> e
      | Ok bytes -> (
          let preflight =
            if not strict then Ok ()
            else
              match
                Slimpad.of_snapshot_bytes (Si_mark.Desktop.create ()) bytes
              with
              | Error e -> Error ("bundle does not load: " ^ e)
              | Ok scratch ->
                  let ctx =
                    Si_lint.context
                      ~dmi:(Slimpad.dmi scratch)
                      ~marks:(Slimpad.marks scratch)
                      ()
                  in
                  let errors =
                    Si_lint.count Si_lint.Error (Si_lint.run ctx)
                  in
                  if errors = 0 then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "bundle is dirty: %d lint error(s); not applied"
                         errors)
          in
          match preflight with
          | Error _ as e -> e
          | Ok () ->
              let bases =
                Option.map
                  (fun dir -> Si_bundle.Layout.writer ~dir)
                  t.cfg.workspace
              in
              with_writer t (fun () ->
                  match Si_bundle.apply ?bases t.leader bytes with
                  | Error _ as e -> e
                  | Ok report -> (
                      match persist t with
                      | Error _ as e -> e
                      | Ok () ->
                          Ok
                            (Printf.sprintf
                               "applied %d triple(s) (%d present), %d \
                                mark(s) (%d present), %d base(s), %d \
                                problem(s)"
                               report.Si_bundle.added_triples
                               report.Si_bundle.skipped_triples
                               report.Si_bundle.installed_marks
                               report.Si_bundle.skipped_marks
                               report.Si_bundle.restored_bases
                               (List.length report.Si_bundle.apply_problems))))))

let job_runner t =
  let rec go () =
    match Jobq.pop t.jobs with
    | None -> ()
    | Some { job_id; job_kind } ->
        set_job t job_id Proto.Running;
        (match run_job t job_kind with
        | Ok summary -> set_job t job_id (Proto.Done summary)
        | Error e -> set_job t job_id (Proto.Failed e));
        go ()
  in
  go ()

(* --- request dispatch ------------------------------------------------ *)

let submit t kind priority =
  let id =
    locked t.job_lock (fun () ->
        let id = t.next_job in
        t.next_job <- id + 1;
        Hashtbl.replace t.job_states id Proto.Queued;
        id)
  in
  match Jobq.push t.jobs priority { job_id = id; job_kind = kind } with
  | `Accepted -> Proto.Accepted id
  | `Overloaded ->
      locked t.job_lock (fun () -> Hashtbl.remove t.job_states id);
      Si_obs.Counter.incr overloaded_count;
      Proto.Overloaded "job queue is full"
  | `Closed ->
      locked t.job_lock (fun () -> Hashtbl.remove t.job_states id);
      Proto.Err "server is stopping"

let handle t (req : Proto.request) : Proto.response * [ `Go | `Shutdown ] =
  match req with
  | Ping -> (Pong, `Go)
  | Pads ->
      let dmi = Slimpad.dmi (read_app t) in
      (Pad_list (List.map (Dmi.pad_name dmi) (Dmi.pads dmi)), `Go)
  | Select { pattern = p; limit } ->
      let rows =
        Trim.select ?subject:p.p_subject ?predicate:p.p_predicate
          ?object_:p.p_object (read_trim t)
      in
      (Triples (List.map Triple.to_string (take limit rows)), `Go)
  | Count p ->
      ( Count_is
          (Trim.count_select ?subject:p.p_subject ?predicate:p.p_predicate
             ?object_:p.p_object (read_trim t)),
        `Go )
  | Query text -> (
      match Query.parse text with
      | Error e -> (Err (Printf.sprintf "query: %s" e), `Go)
      | Ok q ->
          let trim = read_trim t in
          let rows = Query.run trim (Query.optimize trim q) in
          (Rows (List.map Query.binding_to_string rows), `Go))
  | Open_pad name ->
      ( with_writer t (fun () ->
            (match Dmi.find_pad (Slimpad.dmi t.leader) name with
            | Some _ -> ()
            | None -> ignore (Slimpad.new_pad t.leader name));
            match persist t with
            | Ok () -> Proto.Ok_done
            | Error e -> Proto.Err e),
        `Go )
  | Add triple ->
      ( with_writer t (fun () ->
            ignore (Trim.add (Dmi.trim (Slimpad.dmi t.leader)) triple);
            match persist t with
            | Ok () -> Proto.Ok_done
            | Error e -> Proto.Err e),
        `Go )
  | Remove triple ->
      ( with_writer t (fun () ->
            ignore (Trim.remove (Dmi.trim (Slimpad.dmi t.leader)) triple);
            match persist t with
            | Ok () -> Proto.Ok_done
            | Error e -> Proto.Err e),
        `Go )
  | Resolve { pad; scrap } -> (
      (* Always on the leader: resolution walks the desktop's base
         documents, which a follower does not attach. *)
      let app = t.leader in
      match Dmi.find_pad (Slimpad.dmi app) pad with
      | None -> (Err (Printf.sprintf "no pad named %S" pad), `Go)
      | Some p -> (
          match Slimpad.find_scraps app p scrap with
          | [] -> (Err (Printf.sprintf "no scrap matching %S" scrap), `Go)
          | s :: _ ->
              ( with_writer t (fun () ->
                    (* A resolve journals nothing. It holds the lock
                       because it reads the Manager's mark table and the
                       Desktop's document tables, which [Proto.Apply]
                       writes under this same lock (Si_bundle.apply:
                       Manager.put_mark, base restore). *)
                    match Slimpad.double_click app s with
                    | Ok res -> Proto.Resolved res.Mark.res_display
                    | Error e -> Proto.Err e),
                `Go )))
  | Stats -> (Stats_json (Slimpad.stats_json ()), `Go)
  | Submit { kind; priority } -> (submit t kind priority, `Go)
  | Job_status id -> (
      match job_state t id with
      | Some state -> (Job { job = id; state }, `Go)
      | None -> (Err (Printf.sprintf "unknown job %d" id), `Go))
  | Shutdown -> (Closing, `Shutdown)

(* --- connection service ---------------------------------------------- *)

let request_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Jobq.close t.conns;
    Jobq.close t.jobs;
    (* Kick workers blocked reading an idle connection. *)
    locked t.session_lock (fun () ->
        Hashtbl.iter
          (fun fd () ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.sessions)
  end

let send_response fd resp = Tcp.send_frame fd (Proto.encode_response resp)

let serve_conn t fd =
  let rec go () =
    if not (Atomic.get t.stopping) then
      match Tcp.recv_frame fd with
      | Error e ->
          (* Damage the checksum caught, an oversized length, or a bare
             close. One typed parting error, then drop — never a crash,
             never a guess at a half-read frame. *)
          if e <> "connection closed" then begin
            Si_obs.Counter.incr proto_error_count;
            ignore (send_response fd (Proto.Err ("bad frame: " ^ e)))
          end
      | Ok raw -> (
          match Proto.decode_request raw with
          | Error e ->
              Si_obs.Counter.incr proto_error_count;
              ignore (send_response fd (Proto.Err ("bad request: " ^ e)))
          | Ok req -> (
              let op = Proto.request_op req in
              Si_obs.Counter.incr request_count;
              let started = Si_obs.Clock.now () in
              let resp, outcome =
                Si_obs.Span.with_ ~layer:"server" ~op (fun () -> handle t req)
              in
              let elapsed = Si_obs.Clock.now () - started in
              Si_obs.Histogram.add request_latency elapsed;
              Si_obs.Histogram.add op_latency.(Proto.request_kind req) elapsed;
              match send_response fd resp with
              | Error _ -> ()
              | Ok () -> (
                  match outcome with
                  | `Go -> go ()
                  | `Shutdown -> request_stop t)))
  in
  go ()

let register t fd =
  locked t.session_lock (fun () ->
      Hashtbl.replace t.sessions fd ();
      Si_obs.Gauge.set sessions_gauge (Hashtbl.length t.sessions))

let unregister t fd =
  locked t.session_lock (fun () ->
      Hashtbl.remove t.sessions fd;
      Si_obs.Gauge.set sessions_gauge (Hashtbl.length t.sessions));
  try Unix.close fd with Unix.Unix_error _ -> ()

let worker t =
  let rec go () =
    match Jobq.pop t.conns with
    | None -> ()
    | Some fd ->
        register t fd;
        serve_conn t fd;
        unregister t fd;
        go ()
  in
  go ()

let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.accept t.listen_fd with
      | fd, _ -> (
          match Jobq.push t.conns Proto.Interactive fd with
          | `Accepted -> ()
          | `Overloaded | `Closed ->
              (* Typed backpressure at the door; accepting must never
                 wait for a worker. *)
              Si_obs.Counter.incr overloaded_count;
              ignore
                (send_response fd
                   (Proto.Overloaded "connection queue is full"));
              (try Unix.close fd with Unix.Unix_error _ -> ()))
      | exception Unix.Unix_error _ -> Atomic.set t.stopping true);
      go ()
    end
  in
  go ()

(* --- lifecycle ------------------------------------------------------- *)

let start ?(config = default_config) ?follower leader =
  (* A write to a peer that reset its socket must fail that connection
     with EPIPE, not kill the process with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    try
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.addr, config.port));
      Unix.listen fd 16;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> config.port
      in
      Ok (fd, bound)
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  with
  | Error _ as e -> e
  | Ok (listen_fd, bound) ->
      let t =
        {
          cfg = config;
          leader;
          follower;
          listen_fd;
          srv_port = bound;
          stopping = Atomic.make false;
          conns =
            Jobq.create ~capacity:(max 1 config.pending_connections)
              ~bulk_capacity:1 ();
          jobs =
            Jobq.create ~capacity:(max 1 config.job_capacity)
              ~bulk_capacity:(max 1 config.job_capacity) ~gauge:queue_gauge
              ();
          job_states = Hashtbl.create 16;
          job_lock = Si_check.Lock.create ~class_:"server.job";
          next_job = 1;
          writer = Si_check.Lock.create ~class_:"server.writer";
          sessions = Hashtbl.create 16;
          session_lock = Si_check.Lock.create ~class_:"server.session";
          domains = [];
          joined = false;
        }
      in
      let workers =
        List.init (max 1 config.workers) (fun _ ->
            Domain.spawn (fun () -> worker t))
      in
      let runner = Domain.spawn (fun () -> job_runner t) in
      let acceptor = Domain.spawn (fun () -> accept_loop t) in
      t.domains <- (acceptor :: runner :: workers);
      Ok t

let shutdown = request_stop
let stopped t = Atomic.get t.stopping

let wait t =
  if not t.joined then begin
    t.joined <- true;
    List.iter Domain.join t.domains
  end

let stop t =
  request_stop t;
  wait t
