(* Tests for the pad server: protocol codec round-trips (every message
   type, property-based), wire-decoder fuzzing with the fault-injection
   manglings (truncate / bit-flip / duplicate — a damaged frame must
   yield a typed error, never an exception, and a live server must
   answer it with [Err] and drop only that connection), the bounded
   two-class job queue, and end-to-end serving: concurrent TCP clients,
   durable writes, background jobs, overload backpressure, and
   replica-aware read routing. *)

module Proto = Si_serve.Proto
module Jobq = Si_serve.Jobq
module Server = Si_serve.Server
module Client = Si_serve.Client
module Slimpad = Si_slimpad.Slimpad
module Desktop = Si_mark.Desktop
module Triple = Si_triple.Triple
module Tcp = Si_wal.Tcp
module Record = Si_wal.Record

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let sok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let scratch_dir () =
  let path = Filename.temp_file "si_serve" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

(* --- generators ------------------------------------------------------- *)

let gen_field =
  (* Field strings exercise the codec's length-prefixing: empty, binary,
     separator-looking, and long values must all survive. *)
  QCheck.Gen.(
    oneof
      [
        return "";
        string_size ~gen:(char_range '\000' '\255') (int_range 0 12);
        oneofl [ "a;b"; "line\nbreak"; "<s>"; "bulk"; String.make 300 'x' ];
      ])

let gen_obj =
  QCheck.Gen.(
    map2
      (fun r s -> if r then Triple.Resource s else Triple.Literal s)
      bool gen_field)

let gen_pattern =
  QCheck.Gen.(
    map3
      (fun s p o -> { Proto.p_subject = s; p_predicate = p; p_object = o })
      (option gen_field) (option gen_field) (option gen_obj))

let gen_triple =
  QCheck.Gen.(
    map3 (fun s p o -> Triple.make s p o) gen_field gen_field gen_obj)

let gen_job_kind =
  QCheck.Gen.(
    oneof
      [
        return Proto.Compact;
        return Proto.Checkpoint;
        return Proto.Lint;
        map2
          (fun count predicate -> Proto.Bulk_add { count; predicate })
          (int_range 0 10_000) gen_field;
        map2
          (fun path with_bases -> Proto.Capture { path; with_bases })
          gen_field bool;
        map2
          (fun path strict -> Proto.Apply { path; strict })
          gen_field bool;
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return Proto.Ping;
        map (fun s -> Proto.Open_pad s) gen_field;
        return Proto.Pads;
        map2
          (fun pattern limit -> Proto.Select { pattern; limit })
          gen_pattern (int_range (-1) 100);
        map (fun p -> Proto.Count p) gen_pattern;
        map (fun s -> Proto.Query s) gen_field;
        map (fun t -> Proto.Add t) gen_triple;
        map (fun t -> Proto.Remove t) gen_triple;
        map2
          (fun pad scrap -> Proto.Resolve { pad; scrap })
          gen_field gen_field;
        return Proto.Stats;
        map2
          (fun kind b ->
            Proto.Submit
              {
                kind;
                priority = (if b then Proto.Interactive else Proto.Bulk);
              })
          gen_job_kind bool;
        map (fun id -> Proto.Job_status id) (int_range 0 1_000_000);
        return Proto.Shutdown;
      ])

let gen_job_state =
  QCheck.Gen.(
    oneof
      [
        return Proto.Queued;
        return Proto.Running;
        map (fun s -> Proto.Done s) gen_field;
        map (fun s -> Proto.Failed s) gen_field;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Proto.Pong;
        return Proto.Ok_done;
        map (fun l -> Proto.Pad_list l) (list_size (int_range 0 6) gen_field);
        map (fun l -> Proto.Triples l) (list_size (int_range 0 6) gen_field);
        map (fun n -> Proto.Count_is n) (int_range 0 1_000_000);
        map (fun l -> Proto.Rows l) (list_size (int_range 0 6) gen_field);
        map (fun s -> Proto.Resolved s) gen_field;
        map (fun s -> Proto.Stats_json s) gen_field;
        map (fun id -> Proto.Accepted id) (int_range 0 1_000_000);
        map2
          (fun job state -> Proto.Job { job; state })
          (int_range 0 1_000_000) gen_job_state;
        map (fun s -> Proto.Overloaded s) gen_field;
        map (fun s -> Proto.Err s) gen_field;
        return Proto.Closing;
      ])

(* --- codec round-trips ------------------------------------------------ *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round-trip" ~count:500
    (QCheck.make gen_request) (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' -> req' = req
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode round-trip" ~count:500
    (QCheck.make gen_response) (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' -> resp' = resp
      | Error _ -> false)

(* Deterministic round-trip of one witness per constructor, so a codec
   regression names the message type in the failure. *)
let test_roundtrip_witnesses () =
  let pat =
    {
      Proto.p_subject = Some "s";
      p_predicate = None;
      p_object = Some (Triple.Literal "v");
    }
  in
  let requests =
    [
      Proto.Ping;
      Proto.Open_pad "notes";
      Proto.Pads;
      Proto.Select { pattern = pat; limit = 10 };
      Proto.Count Proto.any;
      Proto.Query "select ?s where (?s linksTo ?o)";
      Proto.Add (Triple.make "s" "p" (Triple.Resource "o"));
      Proto.Remove (Triple.make "s" "p" (Triple.Literal "v"));
      Proto.Resolve { pad = "notes"; scrap = "scrap-1" };
      Proto.Stats;
      Proto.Submit
        {
          kind = Proto.Bulk_add { count = 64; predicate = "bulk" };
          priority = Proto.Bulk;
        };
      Proto.Submit { kind = Proto.Compact; priority = Proto.Interactive };
      Proto.Submit { kind = Proto.Checkpoint; priority = Proto.Bulk };
      Proto.Submit { kind = Proto.Lint; priority = Proto.Interactive };
      Proto.Submit
        {
          kind = Proto.Capture { path = "/tmp/x.bundle"; with_bases = true };
          priority = Proto.Bulk;
        };
      Proto.Submit
        {
          kind = Proto.Apply { path = "/tmp/x.bundle"; strict = true };
          priority = Proto.Bulk;
        };
      Proto.Job_status 7;
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' ->
          check_bool (Proto.request_op req ^ " round-trips") true (req' = req)
      | Error e -> Alcotest.failf "%s: %s" (Proto.request_op req) e)
    requests;
  let responses =
    [
      Proto.Pong;
      Proto.Ok_done;
      Proto.Pad_list [ "a"; "b" ];
      Proto.Triples [ "(s p o)" ];
      Proto.Count_is 42;
      Proto.Rows [];
      Proto.Resolved "excerpt";
      Proto.Stats_json "{}";
      Proto.Accepted 3;
      Proto.Job { job = 3; state = Proto.Queued };
      Proto.Job { job = 3; state = Proto.Running };
      Proto.Job { job = 3; state = Proto.Done "ok" };
      Proto.Job { job = 3; state = Proto.Failed "no" };
      Proto.Overloaded "full";
      Proto.Err "bad";
      Proto.Closing;
    ]
  in
  List.iteri
    (fun i resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' ->
          check_bool (Printf.sprintf "response %d round-trips" i) true
            (resp' = resp)
      | Error e -> Alcotest.failf "response %d: %s" i e)
    responses

(* --- decoder fuzzing -------------------------------------------------- *)

(* The Faults.corrupt_file manglings, applied in memory to an encoded
   frame: however damaged, decoding must yield [Error], never raise,
   and never silently accept a different message. *)
let mangle raw = function
  | `Truncate n -> String.sub raw 0 (max 0 (String.length raw - n))
  | `Flip at ->
      let b = Bytes.of_string raw in
      let i = at mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
      Bytes.to_string b
  | `Duplicate n ->
      let n = min n (String.length raw) in
      raw ^ String.sub raw (String.length raw - n) n

let prop_decoder_survives_mangling =
  QCheck.Test.make ~name:"mangled frames decode to typed errors" ~count:1000
    QCheck.(
      make
        Gen.(
          triple gen_request (int_range 0 3)
            (map2 (fun k n -> (k, n)) (int_range 0 2) (int_range 1 24))))
    (fun (req, _, (kind, n)) ->
      let raw = Proto.encode_request req in
      let damaged =
        mangle raw
          (match kind with
          | 0 -> `Truncate n
          | 1 -> `Flip n
          | _ -> `Duplicate n)
      in
      if damaged = raw then true
      else
        match Proto.decode_request damaged with
        | Ok req' ->
            (* A mangling can cancel out only by reproducing the bytes;
               anything else the CRC must catch. *)
            req' = req && damaged = raw
        | Error _ -> true)

let test_decoder_edge_cases () =
  let reject what raw =
    match Proto.decode_request raw with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "empty" "";
  reject "short header" "\x01\x02\x03";
  reject "huge length" (String.make 8 '\xff');
  reject "zero frame" (String.make 8 '\x00');
  (* A checksummed frame whose payload is not a field list. *)
  let buf = Buffer.create 32 in
  Record.encode buf "not a field list";
  reject "bad payload" (Buffer.contents buf);
  (* A well-formed field list with an unknown tag. *)
  let buf = Buffer.create 32 in
  Record.encode buf (Record.encode_fields [ "frobnicate"; "x" ]);
  reject "unknown tag" (Buffer.contents buf);
  (* Trailing bytes after a complete frame. *)
  reject "trailing bytes" (Proto.encode_request Proto.Ping ^ "!")

(* --- job queue -------------------------------------------------------- *)

let test_jobq_priority () =
  let q = Jobq.create () in
  List.iter
    (fun (prio, v) ->
      check_bool "accepted" true (Jobq.push q prio v = `Accepted))
    [
      (Proto.Bulk, "b1");
      (Proto.Interactive, "i1");
      (Proto.Bulk, "b2");
      (Proto.Interactive, "i2");
    ];
  check_int "depth" 4 (Jobq.depth q);
  (* Interactive drains exhaustively before any bulk item. *)
  let order = List.init 4 (fun _ -> Option.get (Jobq.pop q)) in
  check_bool "interactive first" true (order = [ "i1"; "i2"; "b1"; "b2" ]);
  Jobq.close q;
  check_bool "closed pop" true (Jobq.pop q = None)

let test_jobq_overload () =
  let q = Jobq.create ~capacity:2 ~bulk_capacity:1 () in
  check_bool "i1" true (Jobq.push q Proto.Interactive 1 = `Accepted);
  check_bool "i2" true (Jobq.push q Proto.Interactive 2 = `Accepted);
  check_bool "interactive full" true
    (Jobq.push q Proto.Interactive 3 = `Overloaded);
  (* Separate bounds: a full interactive class leaves bulk headroom, and
     vice versa. *)
  check_bool "bulk still open" true (Jobq.push q Proto.Bulk 4 = `Accepted);
  check_bool "bulk full" true (Jobq.push q Proto.Bulk 5 = `Overloaded);
  ignore (Jobq.pop q);
  check_bool "slot freed" true (Jobq.push q Proto.Interactive 6 = `Accepted);
  Jobq.close q;
  check_bool "push after close" true
    (Jobq.push q Proto.Interactive 7 = `Closed);
  (* Items queued before close still drain, in priority order. *)
  check_int "drain 2" 2 (Option.get (Jobq.pop q));
  check_int "drain 6" 6 (Option.get (Jobq.pop q));
  check_int "drain 4" 4 (Option.get (Jobq.pop q));
  check_bool "drained" true (Jobq.pop q = None)

let test_jobq_blocking_pop () =
  let q = Jobq.create () in
  let got = Atomic.make (-1) in
  let d =
    Domain.spawn (fun () ->
        match Jobq.pop q with Some v -> Atomic.set got v | None -> ())
  in
  Unix.sleepf 0.05;
  check_int "still blocked" (-1) (Atomic.get got);
  check_bool "push" true (Jobq.push q Proto.Interactive 9 = `Accepted);
  Domain.join d;
  check_int "woken with item" 9 (Atomic.get got);
  Jobq.close q

(* --- end-to-end serving ----------------------------------------------- *)

let start_server ?config ?follower () =
  let dir = scratch_dir () in
  let app, _ =
    sok "open_wal"
      (Slimpad.open_wal
         ~store:(module Si_triple.Store.Sharded_columnar)
         (Desktop.create ())
         (Filename.concat dir "pad.wal"))
  in
  ignore (Slimpad.new_pad app "served");
  let config =
    Option.value config
      ~default:{ Server.default_config with workers = 2; job_capacity = 2 }
  in
  let server = sok "start" (Server.start ~config ?follower app) in
  (server, app, dir)

let with_client server f =
  let c = sok "connect" (Client.connect ~port:(Server.port server) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let req c what r = sok what (Client.request c r)

let test_server_end_to_end () =
  let server, _app, _dir = start_server () in
  with_client server (fun c ->
      check_bool "ping" true (req c "ping" Proto.Ping = Proto.Pong);
      check_bool "add" true
        (req c "add"
           (Proto.Add (Triple.make "s1" "linksTo" (Triple.Resource "d1")))
        = Proto.Ok_done);
      check_bool "count" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "linksTo" })
        = Proto.Count_is 1);
      (match
         req c "select"
           (Proto.Select
              {
                pattern = { Proto.any with p_subject = Some "s1" };
                limit = 0;
              })
       with
      | Proto.Triples [ row ] -> check_str "row" "(<s1> linksTo <d1>)" row
      | r -> Alcotest.failf "select: unexpected %s" (Proto.encode_response r));
      (match
         req c "query" (Proto.Query "select ?o where { <s1> linksTo ?o }")
       with
      | Proto.Rows [ _ ] -> ()
      | _ -> Alcotest.fail "query: expected one row");
      check_bool "remove" true
        (req c "remove"
           (Proto.Remove (Triple.make "s1" "linksTo" (Triple.Resource "d1")))
        = Proto.Ok_done);
      check_bool "count after remove" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "linksTo" })
        = Proto.Count_is 0);
      (match req c "pads" Proto.Pads with
      | Proto.Pad_list pads ->
          check_bool "served pad listed" true (List.mem "served" pads)
      | _ -> Alcotest.fail "pads");
      (match req c "open" (Proto.Open_pad "second") with
      | Proto.Ok_done -> ()
      | _ -> Alcotest.fail "open");
      match req c "stats" Proto.Stats with
      | Proto.Stats_json s ->
          check_bool "stats is json" true (String.length s > 2 && s.[0] = '{')
      | _ -> Alcotest.fail "stats");
  Server.stop server

let test_server_concurrent_clients () =
  let server, _app, _dir = start_server () in
  let port = Server.port server in
  let per_client = 25 in
  let worker i () =
    let c = sok "connect" (Client.connect ~port ()) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let ok = ref 0 in
    for n = 1 to per_client do
      let s = Printf.sprintf "c%d-%d" i n in
      (match
         Client.request c (Proto.Add (Triple.make s "par" (Triple.Literal "v")))
       with
      | Ok Proto.Ok_done -> incr ok
      | Ok r -> Alcotest.failf "add: %s" (Proto.encode_response r)
      | Error e -> Alcotest.failf "add: %s" e);
      match
        Client.request c (Proto.Count { Proto.any with p_subject = Some s })
      with
      | Ok (Proto.Count_is 1) -> incr ok
      | Ok r -> Alcotest.failf "count: %s" (Proto.encode_response r)
      | Error e -> Alcotest.failf "count: %s" e
    done;
    !ok
  in
  let domains = List.init 2 (fun i -> Domain.spawn (worker i)) in
  let done_ = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check_int "all requests served" (2 * per_client * 2) done_;
  with_client server (fun c ->
      check_bool "total visible" true
        (req c "count" (Proto.Count { Proto.any with p_predicate = Some "par" })
        = Proto.Count_is (2 * per_client)));
  Server.stop server

let test_server_survives_garbage () =
  let server, _app, _dir = start_server () in
  let port = Server.port server in
  let raw_conn () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  (* A frame that fails the CRC check: typed "bad frame" error, then the
     connection is dropped — but the server keeps serving. *)
  let fd = raw_conn () in
  let raw = Proto.encode_request Proto.Ping in
  sok "send" (Tcp.send_frame fd (mangle raw (`Flip (Record.header_size + 1))));
  (match Tcp.recv_frame fd with
  | Ok resp -> (
      match Proto.decode_response resp with
      | Ok (Proto.Err e) ->
          check_bool "typed frame error" true
            (String.length e > 0
            && String.sub e 0 (min 9 (String.length e)) = "bad frame")
      | Ok r -> Alcotest.failf "garbage answered %s" (Proto.encode_response r)
      | Error e -> Alcotest.failf "undecodable error response: %s" e)
  | Error e -> Alcotest.failf "no error response: %s" e);
  check_bool "connection dropped" true (Tcp.recv_frame fd |> Result.is_error);
  Unix.close fd;
  (* A checksummed frame that is not a request: "bad request", dropped. *)
  let fd = raw_conn () in
  let buf = Buffer.create 32 in
  Record.encode buf (Record.encode_fields [ "frobnicate" ]);
  sok "send" (Tcp.send_frame fd (Buffer.contents buf));
  (match Tcp.recv_frame fd with
  | Ok resp -> (
      match Proto.decode_response resp with
      | Ok (Proto.Err _) -> ()
      | _ -> Alcotest.fail "expected Err for unknown tag")
  | Error e -> Alcotest.failf "no error response: %s" e);
  Unix.close fd;
  (* A client that sends a request and resets its socket before the
     answer: the server's write fails on that connection alone. *)
  for _ = 1 to 3 do
    let fd = raw_conn () in
    sok "send" (Tcp.send_frame fd (Proto.encode_request Proto.Stats));
    Unix.sleepf 0.001;
    Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
    Unix.close fd
  done;
  (* The server is still alive for well-behaved clients. *)
  with_client server (fun c ->
      check_bool "still serving" true (req c "ping" Proto.Ping = Proto.Pong));
  Server.stop server

let test_server_jobs_and_overload () =
  let server, _app, _dir = start_server () in
  with_client server (fun c ->
      (* A bulk import runs in the background and lands durably. *)
      let id =
        match
          req c "submit"
            (Proto.Submit
               {
                 kind = Proto.Bulk_add { count = 50; predicate = "bulkp" };
                 priority = Proto.Bulk;
               })
        with
        | Proto.Accepted id -> id
        | r -> Alcotest.failf "submit: %s" (Proto.encode_response r)
      in
      let rec await tries =
        if tries > 200 then Alcotest.fail "job never finished"
        else
          match req c "job?" (Proto.Job_status id) with
          | Proto.Job { state = Proto.Done _; _ } -> ()
          | Proto.Job { state = Proto.Failed e; _ } ->
              Alcotest.failf "job failed: %s" e
          | Proto.Job _ ->
              Unix.sleepf 0.02;
              await (tries + 1)
          | r -> Alcotest.failf "job?: %s" (Proto.encode_response r)
      in
      await 0;
      check_bool "bulk landed" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "bulkp" })
        = Proto.Count_is 50);
      (* Flood the bulk class past its bound (job_capacity 2 here): a
         typed Overloaded must come back, and the server must stay
         responsive to interactive traffic throughout. *)
      let overloaded = ref 0 and accepted = ref 0 in
      for _ = 1 to 12 do
        match
          req c "submit"
            (Proto.Submit
               {
                 kind = Proto.Bulk_add { count = 2000; predicate = "flood" };
                 priority = Proto.Bulk;
               })
        with
        | Proto.Accepted _ -> incr accepted
        | Proto.Overloaded _ -> incr overloaded
        | r -> Alcotest.failf "flood: %s" (Proto.encode_response r)
      done;
      check_bool "some accepted" true (!accepted > 0);
      check_bool "backpressure engaged" true (!overloaded > 0);
      check_bool "interactive still served" true
        (req c "ping" Proto.Ping = Proto.Pong);
      (* Unknown job id is a typed error, not a crash. *)
      match req c "job?" (Proto.Job_status 999_999) with
      | Proto.Err _ -> ()
      | r -> Alcotest.failf "unknown job: %s" (Proto.encode_response r));
  Server.stop server

(* The bulk importer holds the writer lock in small batches and sleeps
   between batches only when an interactive writer actually contended
   during the last one (the instrumented lock counts contention for
   free). Two consequences, both asserted here: an uncontended import
   reports no yield pauses, and interactive writes issued while a large
   import runs see bounded latency — one batch, not the whole job. *)
let test_bulk_import_interactive_latency () =
  let server, _app, _dir = start_server () in
  with_client server (fun c ->
      let submit count predicate =
        match
          req c "submit"
            (Proto.Submit
               {
                 kind = Proto.Bulk_add { count; predicate };
                 priority = Proto.Bulk;
               })
        with
        | Proto.Accepted id -> id
        | r -> Alcotest.failf "submit: %s" (Proto.encode_response r)
      in
      let job_state id =
        match req c "job?" (Proto.Job_status id) with
        | Proto.Job { state; _ } -> state
        | r -> Alcotest.failf "job?: %s" (Proto.encode_response r)
      in
      let rec await id tries =
        if tries > 500 then Alcotest.fail "job never finished"
        else
          match job_state id with
          | Proto.Done summary -> summary
          | Proto.Failed e -> Alcotest.failf "job failed: %s" e
          | _ ->
              Unix.sleepf 0.02;
              await id (tries + 1)
      in
      (* Nobody competes for the writer: the import must run at full
         speed and say so — zero pauses is deterministic, not lucky. *)
      let summary = await (submit 120 "quiet") 0 in
      check_str "uncontended import takes no yield pauses"
        "added 120 triple(s)" summary;
      (* A large import in the background; interactive writes meanwhile
         must each wait out at most one writer-locked batch. *)
      let id = submit 8000 "busy" in
      let latencies = ref [] in
      let running = ref true in
      let n = ref 0 in
      while !running && !n < 300 do
        incr n;
        let t0 = Unix.gettimeofday () in
        check_bool "interactive add served" true
          (req c "add"
             (Proto.Add
                (Triple.make
                   (Printf.sprintf "i%d" !n)
                   "interactive"
                   (Triple.Literal "x")))
          = Proto.Ok_done);
        latencies := (Unix.gettimeofday () -. t0) :: !latencies;
        match job_state id with
        | Proto.Done _ | Proto.Failed _ -> running := false
        | _ -> ()
      done;
      ignore (await id 0);
      let sorted = List.sort compare !latencies in
      let count = List.length sorted in
      let p99 = List.nth sorted (min (count - 1) (count * 99 / 100)) in
      check_bool
        (Printf.sprintf "interactive p99 bounded during import (%.0fms)"
           (p99 *. 1000.))
        true (p99 < 0.25);
      check_bool "interactive writes all landed" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "interactive" })
        = Proto.Count_is !n));
  Server.stop server

(* Capture and apply run on the bulk job class: a client can pull a
   portable bundle out of a live server and push one back in, with the
   strict preflight refusing garbage before the pad is touched. *)
let test_server_capture_apply_jobs () =
  let server, app, dir = start_server () in
  let path = Filename.concat dir "served.bundle" in
  with_client server (fun c ->
      for i = 1 to 20 do
        check_bool "seed add" true
          (req c "add"
             (Proto.Add
                (Triple.make
                   (Printf.sprintf "s%d" i)
                   "seeded" (Triple.Literal "x")))
          = Proto.Ok_done)
      done;
      let submit kind =
        match
          req c "submit" (Proto.Submit { kind; priority = Proto.Bulk })
        with
        | Proto.Accepted id -> id
        | r -> Alcotest.failf "submit: %s" (Proto.encode_response r)
      in
      let rec await id tries =
        if tries > 500 then Alcotest.fail "job never finished"
        else
          match req c "job?" (Proto.Job_status id) with
          | Proto.Job { state = Proto.Done summary; _ } -> Ok summary
          | Proto.Job { state = Proto.Failed e; _ } -> Error e
          | Proto.Job _ ->
              Unix.sleepf 0.02;
              await id (tries + 1)
          | r -> Alcotest.failf "job?: %s" (Proto.encode_response r)
      in
      let summary =
        match await (submit (Proto.Capture { path; with_bases = false })) 0 with
        | Ok s -> s
        | Error e -> Alcotest.failf "capture job failed: %s" e
      in
      check_bool "capture summary" true
        (String.length summary >= 8 && String.sub summary 0 8 = "captured");
      (* The artifact on disk is a verifiable cut of the served pad. *)
      let bytes = sok "read bundle" (Si_bundle.read_file path) in
      check_bool "artifact verifies clean" true (Si_bundle.verify bytes = []);
      check_str "artifact digest matches the live pad"
        (Si_bundle.app_digest app)
        (sok "digest" (Si_bundle.content_digest bytes));
      (* Applying the pad's own bundle back is a no-op install. *)
      (match await (submit (Proto.Apply { path; strict = true })) 0 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "apply job failed: %s" e);
      check_bool "pad content unchanged" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "seeded" })
        = Proto.Count_is 20);
      (* A strict apply of garbage fails the job, typed, pad untouched. *)
      let garbage = Filename.concat dir "garbage.bundle" in
      let oc = open_out_bin garbage in
      output_string oc "this is not a bundle";
      close_out oc;
      (match await (submit (Proto.Apply { path = garbage; strict = true })) 0 with
      | Error _ -> ()
      | Ok s -> Alcotest.failf "garbage apply succeeded: %s" s);
      check_bool "pad survived the refusal" true
        (req c "count"
           (Proto.Count { Proto.any with p_predicate = Some "seeded" })
        = Proto.Count_is 20));
  Server.stop server

let test_server_replica_routing () =
  let dir = scratch_dir () in
  let leader, _ =
    sok "open_wal"
      (Slimpad.open_wal
         ~store:(module Si_triple.Store.Sharded_columnar)
         (Desktop.create ())
         (Filename.concat dir "leader.wal"))
  in
  ignore (Slimpad.new_pad leader "served");
  sok "start_shipping"
    (Slimpad.start_shipping leader ~archive:(Filename.concat dir "archive"));
  let rapp, _ =
    sok "open_replica"
      (Slimpad.open_replica
         ~store:(module Si_triple.Store.Sharded_columnar)
         (Desktop.create ())
         (Filename.concat dir "replica.wal"))
  in
  let rep = Option.get (Slimpad.replica rapp) in
  sok "attach"
    (Slimpad.attach_follower leader ~name:"r1" (Si_wal.Replica.transport rep));
  sok "ship" (Slimpad.ship leader);
  let config =
    { Server.default_config with workers = 2; max_lag = 1_000_000 }
  in
  let server =
    sok "start" (Server.start ~config ~follower:(rapp, rep) leader)
  in
  let replica_reads () =
    match Si_obs.Registry.counter "server.read.replica" with
    | c -> Si_obs.Counter.get c
  in
  with_client server (fun c ->
      let before = replica_reads () in
      check_bool "add on leader" true
        (req c "add"
           (Proto.Add (Triple.make "rr" "routed" (Triple.Literal "x")))
        = Proto.Ok_done);
      (* Push the record across, making the replica fresh: the read
         must route to it — and see the new triple. *)
      sok "ship add" (Slimpad.ship leader);
      check_bool "fresh read routed" true
        (req c "count" (Proto.Count { Proto.any with p_subject = Some "rr" })
        = Proto.Count_is 1);
      check_bool "replica served it" true (replica_reads () > before));
  Server.stop server;
  (* Under a zero staleness bound, a replica that knows it is behind
     (heartbeat carries the leader's position without the records)
     must not serve the read — it falls back to the leader. *)
  let config = { config with max_lag = 0 } in
  let server =
    sok "start again" (Server.start ~config ~follower:(rapp, rep) leader)
  in
  let leader_reads () =
    Si_obs.Counter.get (Si_obs.Registry.counter "server.read.leader")
  in
  with_client server (fun c ->
      check_bool "add unshipped" true
        (req c "add"
           (Proto.Add (Triple.make "rr2" "routed" (Triple.Literal "x")))
        = Proto.Ok_done);
      sok "heartbeat" (Slimpad.ship_heartbeat leader);
      let before = leader_reads () in
      check_bool "stale read on leader" true
        (req c "count" (Proto.Count { Proto.any with p_subject = Some "rr2" })
        = Proto.Count_is 1);
      check_bool "leader served it" true (leader_reads () > before));
  Server.stop server;
  sok "stop_shipping" (Slimpad.stop_shipping leader);
  ignore (Slimpad.wal_close rapp);
  ignore (Slimpad.wal_close leader)

let test_server_shutdown_request () =
  let server, _app, _dir = start_server () in
  with_client server (fun c ->
      check_bool "closing" true (req c "bye" Proto.Shutdown = Proto.Closing));
  Server.wait server;
  check_bool "stopped" true (Server.stopped server);
  (* A second stop is a no-op, not a deadlock. *)
  Server.stop server

let suite =
  [
    ( "proto",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_request_roundtrip;
          prop_response_roundtrip;
          prop_decoder_survives_mangling;
        ]
      @ [
          Alcotest.test_case "constructor witnesses round-trip" `Quick
            test_roundtrip_witnesses;
          Alcotest.test_case "decoder rejects edge cases" `Quick
            test_decoder_edge_cases;
        ] );
    ( "jobq",
      [
        Alcotest.test_case "interactive before bulk" `Quick test_jobq_priority;
        Alcotest.test_case "bounded with typed overload" `Quick
          test_jobq_overload;
        Alcotest.test_case "pop blocks until push" `Quick
          test_jobq_blocking_pop;
      ] );
    ( "serving",
      [
        Alcotest.test_case "end-to-end request coverage" `Quick
          test_server_end_to_end;
        Alcotest.test_case "two concurrent clients" `Quick
          test_server_concurrent_clients;
        Alcotest.test_case "garbage frames: typed error, connection dropped"
          `Quick test_server_survives_garbage;
        Alcotest.test_case "background jobs and overload backpressure" `Quick
          test_server_jobs_and_overload;
        Alcotest.test_case "bulk import keeps interactive latency bounded"
          `Quick test_bulk_import_interactive_latency;
        Alcotest.test_case "capture/apply bundle jobs" `Quick
          test_server_capture_apply_jobs;
        Alcotest.test_case "replica-aware read routing" `Quick
          test_server_replica_routing;
        Alcotest.test_case "client-initiated shutdown" `Quick
          test_server_shutdown_request;
      ] );
  ]
  |> List.concat_map (fun (group, cases) ->
         List.map
           (fun case ->
             let name, speed, fn = case in
             (group ^ ": " ^ name, speed, fn))
           cases)
