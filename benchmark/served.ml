(* The real [slimpad serve] as a child process, driven in a closed loop:
   each session is one connection that sends its next request only
   after the previous answer arrived, as a pad client does
   ([Si_serve.Client] is blocking request/response). *)

module Proto = Si_serve.Proto
module Client = Si_serve.Client
module Json = Si_obs.Json

type server = { pid : int; port : int; out : in_channel; setup_ns : int }

let banner_port line =
  (* "pad server on 127.0.0.1:PORT (N worker(s)); ..." *)
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let j = ref (i + 1) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + 1) (!j - i - 1))

(* Spawn the server and wait for its first Pong: the set-up time a
   user of the workspace waits for, WAL recovery included. *)
let start ~cli ~log dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Proc.now_ns () in
  let pid =
    Proc.spawn ~stdout:wr ~log cli
      [ "serve"; dir; "--workers"; "2"; "--addr"; "127.0.0.1:0" ]
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Proc.reap pid);
    close_in out;
    failwith (Printf.sprintf "slimpad serve %s (see %s)" msg log)
  in
  match Option.bind (In_channel.input_line out) banner_port with
  | None -> fail "printed no banner"
  | Some port -> (
      match Client.connect ~port () with
      | Error e -> fail ("refused a connection: " ^ e)
      | Ok c ->
          let pong = Client.request c Proto.Ping in
          let setup_ns = Proc.now_ns () - t0 in
          Client.close c;
          if pong <> Ok Proto.Pong then fail "did not answer Ping";
          { pid; port; out; setup_ns })

(* How the server ended: its exit code, and its peak RSS (KiB) read
   just before it was stopped. *)
let stopped srv stop =
  let peak_kb = Proc.peak_rss_kb srv.pid in
  stop ();
  let code = Proc.reap srv.pid in
  close_in srv.out;
  (code, peak_kb)

(* Ask the server to stop through the protocol. *)
let shutdown srv =
  stopped srv (fun () ->
      match Client.connect ~port:srv.port () with
      | Ok c ->
          ignore (Client.request c Proto.Shutdown);
          Client.close c
      | Error _ -> Unix.kill srv.pid Sys.sigterm)

(* A process crash: no shutdown handshake, no final flush. *)
let kill srv = stopped srv (fun () -> Unix.kill srv.pid Sys.sigkill)

let one_request srv req =
  match Client.connect ~port:srv.port () with
  | Error e -> Error e
  | Ok c ->
      let r = Client.request c req in
      Client.close c;
      r

let stats srv =
  match one_request srv Proto.Stats with
  | Ok (Proto.Stats_json s) -> (
      match Result.bind (Json.of_string s) Si_obs.Report.of_json with
      | Ok snap -> snap
      | Error e -> failwith ("server stats: " ^ e))
  | _ -> failwith "server stats: no answer"

(* --- one session ------------------------------------------------------ *)

type session = {
  mutable samples : (int * int * Gen.cls) list;
      (** Per measured request, newest first: completion time (ns),
          round trip (ns), class. *)
  by_kind : (string, Stats.Buf.t) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable jobs : int list;
  mutable errors : string list;
}

let fresh_session () =
  {
    samples = [];
    by_kind = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    jobs = [];
    errors = [];
  }

let note_error s msg = if List.length s.errors < 5 then s.errors <- msg :: s.errors

let describe (resp : Proto.response) =
  match resp with
  | Err e -> "Err " ^ e
  | Overloaded e -> "Overloaded " ^ e
  | Triples l | Rows l -> Printf.sprintf "%d row(s)" (List.length l)
  | Count_is n -> Printf.sprintf "Count_is %d" n
  | Resolved d -> "Resolved " ^ d
  | _ -> "unexpected response"

let kind_buf s kind =
  match Hashtbl.find_opt s.by_kind kind with
  | Some b -> b
  | None ->
      let b = Stats.Buf.create () in
      Hashtbl.replace s.by_kind kind b;
      b

(* The first tenth of a session warms up and is not measured. A wrong
   answer, a refusal (Err, Overloaded) or a dead connection counts as
   failed; after a dead connection the rest of the session does too. *)
let run_session ~port (ops : Gen.op array) =
  let s = fresh_session () in
  let warm = Array.length ops / 10 in
  (match Client.connect ~port () with
  | Error e ->
      s.attempted <- Array.length ops;
      s.failed <- Array.length ops;
      note_error s ("connect: " ^ e)
  | Ok c ->
      let alive = ref true in
      Array.iteri
        (fun i (op : Gen.op) ->
          s.attempted <- s.attempted + 1;
          if not !alive then s.failed <- s.failed + 1
          else
            let t0 = Proc.now_ns () in
            let resp = Client.request c op.req in
            let t1 = Proc.now_ns () in
            match resp with
            | Ok resp when Gen.check op.expect resp ->
                (match resp with Proto.Accepted id -> s.jobs <- id :: s.jobs | _ -> ());
                if i >= warm then begin
                  s.samples <- (t1, t1 - t0, op.cls) :: s.samples;
                  Stats.Buf.add (kind_buf s op.kind) (float_of_int (t1 - t0))
                end
            | Ok resp ->
                s.failed <- s.failed + 1;
                note_error s (Printf.sprintf "%s: %s" op.kind (describe resp))
            | Error e ->
                s.failed <- s.failed + 1;
                alive := false;
                note_error s (Printf.sprintf "%s: transport: %s" op.kind e))
        ops;
      Client.close c);
  s

(* Sessions run concurrently, one domain each. *)
let run_sessions ~port sessions =
  match sessions with
  | [ ops ] -> [ run_session ~port ops ]
  | _ ->
      List.map (fun ops -> Domain.spawn (fun () -> run_session ~port ops)) sessions
      |> List.map Domain.join

(* Poll until every accepted job has finished; a failed job is a
   failed request. *)
let await_jobs srv ids =
  List.filter
    (fun id ->
      let rec poll () =
        match one_request srv (Proto.Job_status id) with
        | Ok (Proto.Job { state = Proto.Done _; _ }) -> true
        | Ok (Proto.Job { state = Proto.Queued | Proto.Running; _ }) ->
            Unix.sleepf 0.002;
            poll ()
        | _ -> false
      in
      not (poll ()))
    ids
