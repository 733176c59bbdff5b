(* The replication crash matrix: scripted fault schedules over a live
   leader/follower cluster, checked against the invariants the design
   promises — zero acknowledged-write loss, prefix consistency on every
   replica, deterministic convergence after the fault clears. Every
   scenario is headless and seeded, so CI runs it as a gate and a
   failure replays exactly. *)

module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi

type outcome = { scenario : string; passed : bool; detail : string }

exception Check of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check s)) fmt

let ok_or what = function
  | Ok v -> v
  | Error e -> failf "%s: %s" what e

let expect_error what = function
  | Ok _ -> failf "%s unexpectedly succeeded" what
  | Error (_ : string) -> ()

(* --- cluster helpers ------------------------------------------------- *)

let scratch dir name =
  let d = Filename.concat dir name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let desk () = Si_mark.Desktop.create ()

let make_leader ?(segment_records = 4) dir name =
  let app, _ =
    ok_or "open_wal" (Slimpad.open_wal (desk ()) (Filename.concat dir (name ^ ".wal")))
  in
  let pad = Slimpad.new_pad app (name ^ "-pad") in
  ok_or "start_shipping"
    (Slimpad.start_shipping ~segment_records app
       ~archive:(Filename.concat dir (name ^ ".archive")));
  (app, pad)

let make_follower dir name =
  let app, _ =
    ok_or "open_replica"
      (Slimpad.open_replica (desk ()) (Filename.concat dir (name ^ ".wal")))
  in
  app

let replica_of app = Option.get (Slimpad.replica app)
let shipper_of app = Option.get (Slimpad.shipper app)

let transport ?seed ?rate ?faults app =
  let base = Si_wal.Replica.transport (replica_of app) in
  match faults with
  | None -> base
  | Some fs ->
      let inj =
        Faults.create ?seed
          (Faults.Fail_rate (Option.value rate ~default:0.3))
      in
      Faults.wrap_transport inj ~faults:fs base

(* The handshake itself crosses the (possibly lossy) wire, so retry it
   like the shipper retries records — unless the reply fenced us. *)
let attach ?(tries = 16) leader ~name send =
  let rec go n =
    match Slimpad.attach_follower leader ~name send with
    | Ok () -> ()
    | Error _ when n > 0 && not (Si_wal.Ship.is_fenced (shipper_of leader))
      ->
        go (n - 1)
    | Error e -> failf "attach %s: %s" name e
  in
  go tries

let churn app pad ~from n =
  let root = Dmi.root_bundle (Slimpad.dmi app) pad in
  for i = from to from + n - 1 do
    ignore
      (Slimpad.add_bundle app ~parent:root
         ~name:(Printf.sprintf "node-%04d" i)
         ())
  done

let converged leader follower =
  Si_wal.Replica.applied (replica_of follower)
  = Si_wal.Ship.seq (shipper_of leader)
  && Si_triple.Trim.equal_contents
       (Dmi.trim (Slimpad.dmi leader))
       (Dmi.trim (Slimpad.dmi follower))

(* Ship until every listed follower converges. The round budget is
   generous: with seeded fault rates well under 1, the retry budgets
   inside [Ship.ship] make convergence certain long before it runs
   out — exhausting it is a finding, not flakiness. *)
let pump ?(rounds = 64) leader followers =
  let rec go r =
    if r = 0 then
      failf "no convergence after %d ship rounds (lag %d)" rounds
        (Si_wal.Ship.lag (shipper_of leader))
    else begin
      ok_or "ship" (Slimpad.ship leader);
      if not (List.for_all (converged leader) followers) then go (r - 1)
    end
  in
  go rounds

(* A crash is files-only: copy the WAL pair to a fresh path and reopen
   that, leaving the "crashed" process's in-memory state behind. *)
let copy_file src dst =
  if Sys.file_exists src then
    Result.bind (Si_io.Io.read_file src) (Si_io.Io.write_atomic dst)
    |> ok_or "copy"

let crash_copy dir ~from_name ~to_name =
  let src = Filename.concat dir (from_name ^ ".wal") in
  let dst = Filename.concat dir (to_name ^ ".wal") in
  copy_file src dst;
  copy_file (Si_wal.Log.snapshot_path src) (Si_wal.Log.snapshot_path dst);
  dst

(* --- scenarios ------------------------------------------------------- *)

let clean_replication dir seed =
  let dir = scratch dir "clean" in
  let leader, pad = make_leader dir "leader" in
  let f1 = make_follower dir "f1" and f2 = make_follower dir "f2" in
  attach leader ~name:"f1" (transport ~seed f1);
  attach leader ~name:"f2" (transport ~seed f2);
  churn leader pad ~from:1 25;
  pump leader [ f1; f2 ];
  ok_or "checkpoint" (Slimpad.ship_checkpoint leader);
  (match Si_wal.Segment.verify (Si_wal.Ship.archive (shipper_of leader)) with
  | Ok [] -> ()
  | Ok ps -> failf "clean archive reports %d problem(s)" (List.length ps)
  | Error e -> failf "verify: %s" e);
  "2 followers converged, archive verifies clean"

let frame_fault_scenario fault fault_name dir seed =
  let dir = scratch dir fault_name in
  let leader, pad = make_leader dir "leader" in
  let f = make_follower dir "f" in
  attach leader ~name:"f" (transport f);
  churn leader pad ~from:1 30;
  (* Faults only from here on: the handshake above stays clean so the
     scenario exercises steady-state shipping, not attachment. *)
  attach leader ~name:"f" (transport ~seed ~faults:fault f);
  churn leader pad ~from:100 30;
  pump leader [ f ];
  Printf.sprintf "converged through injected %s faults" fault_name

let follower_crash_mid_apply dir seed =
  let dir = scratch dir "follower-crash" in
  let leader, pad = make_leader dir "leader" in
  let f = make_follower dir "f" in
  attach leader ~name:"f" (transport ~seed ~faults:[ Faults.Drop ] f);
  churn leader pad ~from:1 20;
  (* One lossy round leaves the follower mid-stream; crash it there. *)
  ok_or "ship" (Slimpad.ship leader);
  let applied_before = Si_wal.Replica.applied (replica_of f) in
  let crashed = crash_copy dir ~from_name:"f" ~to_name:"f2" in
  let f2, _ = ok_or "reopen replica" (Slimpad.open_replica (desk ()) crashed) in
  if Si_wal.Replica.applied (replica_of f2) <> applied_before then
    failf "restart lost applied records: %d <> %d"
      (Si_wal.Replica.applied (replica_of f2))
      applied_before;
  attach leader ~name:"f" (transport f2);
  churn leader pad ~from:100 10;
  pump leader [ f2 ];
  Printf.sprintf "follower restarted at applied=%d and reconverged"
    applied_before

let leader_crash_mid_ship dir seed =
  let dir = scratch dir "leader-crash" in
  let leader, pad = make_leader dir "leader" in
  let f = make_follower dir "f" in
  attach leader ~name:"f" (transport ~seed ~faults:[ Faults.Drop ] f);
  churn leader pad ~from:1 20;
  (* A lossy round ships part of the stream, then the leader crashes
     with the rest still in its open (volatile) segment buffer. *)
  ok_or "ship" (Slimpad.ship leader);
  let acked = Si_wal.Replica.applied (replica_of f) in
  let crashed = crash_copy dir ~from_name:"leader" ~to_name:"leader2" in
  (* The old leader's in-memory state is abandoned, never closed: a
     crash seals nothing. *)
  let leader2, _ = ok_or "reopen leader" (Slimpad.open_wal (desk ()) crashed) in
  ok_or "resume shipping"
    (Slimpad.start_shipping ~segment_records:4 leader2
       ~archive:(Filename.concat dir "leader.archive"));
  if Si_wal.Ship.seq (shipper_of leader2) < acked then
    failf "restarted leader renumbered: resumed at %d below acked %d"
      (Si_wal.Ship.seq (shipper_of leader2))
      acked;
  let pad2 =
    match Dmi.pads (Slimpad.dmi leader2) with
    | p :: _ -> p
    | [] -> failf "restarted leader lost its pad"
  in
  attach leader2 ~name:"f" (transport f);
  churn leader2 pad2 ~from:200 10;
  pump leader2 [ f ];
  if Si_wal.Replica.applied (replica_of f) < acked then
    failf "acknowledged records lost across leader crash";
  Printf.sprintf
    "leader resumed at seq=%d (acked prefix %d preserved) and reconverged"
    (Si_wal.Ship.seq (shipper_of leader2))
    acked

let torn_segment_catchup dir seed =
  let dir = scratch dir "torn-segment" in
  let leader, pad = make_leader ~segment_records:2 dir "leader" in
  churn leader pad ~from:1 10;
  ok_or "sync" (Slimpad.wal_sync leader);
  ok_or "seal" (Slimpad.ship_checkpoint leader);
  let archive = Si_wal.Ship.archive (shipper_of leader) in
  let seg =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".seg")
        (Array.to_list (Sys.readdir archive))
    with
    | s :: _ -> Filename.concat archive s
    | [] -> failf "no sealed segment to damage"
  in
  ignore (Faults.corrupt_file seg (Faults.Flip_byte 40));
  (match Si_wal.Segment.verify archive with
  | Ok [] -> failf "damaged archive verifies clean"
  | Ok _ -> ()
  | Error e -> failf "verify: %s" e);
  (* A fresh follower can no longer be fed record-by-record through the
     damaged segment; the checkpoint base written above must carry it
     over the hole. *)
  let f = make_follower dir "f" in
  attach leader ~name:"f" (transport ~seed f);
  churn leader pad ~from:100 5;
  pump leader [ f ];
  "new follower converged over a corrupted segment via the base snapshot"

let promote_fences_old_leader dir seed =
  let dir = scratch dir "promote" in
  let leader, pad = make_leader dir "leader" in
  let f1 = make_follower dir "f1" and f2 = make_follower dir "f2" in
  attach leader ~name:"f1" (transport ~seed f1);
  attach leader ~name:"f2" (transport f2);
  churn leader pad ~from:1 15;
  pump leader [ f1; f2 ];
  let old_term = Si_wal.Ship.term (shipper_of leader) in
  let new_term =
    ok_or "promote"
      (Slimpad.promote_replica f1 ~archive:(Filename.concat dir "f1.archive"))
  in
  if new_term <= old_term then
    failf "promotion did not advance the term: %d -> %d" old_term new_term;
  (* The deposed leader reconnects: its next push is answered Fenced,
     permanently. *)
  churn leader pad ~from:100 3;
  expect_error "old leader shipping after failover" (Slimpad.ship leader);
  expect_error "old leader shipping again" (Slimpad.ship leader);
  (* The survivors re-form around the new leader and converge. *)
  attach f1 ~name:"f2" (transport f2);
  let pad1 =
    match Dmi.pads (Slimpad.dmi f1) with
    | p :: _ -> p
    | [] -> failf "promoted follower has no pad"
  in
  churn f1 pad1 ~from:200 10;
  pump f1 [ f2 ];
  Printf.sprintf "term %d -> %d; old leader fenced; survivors converged"
    old_term new_term

let scenarios =
  [
    ("clean-replication", clean_replication);
    ("frame-drop", frame_fault_scenario [ Faults.Drop ] "frame-drop");
    ( "frame-duplicate",
      frame_fault_scenario [ Faults.Duplicate ] "frame-duplicate" );
    ("frame-mangle", frame_fault_scenario [ Faults.Mangle ] "frame-mangle");
    ("frame-delay", frame_fault_scenario [ Faults.Delay ] "frame-delay");
    ( "frame-chaos",
      frame_fault_scenario Faults.all_frame_faults "frame-chaos" );
    ("follower-crash-mid-apply", follower_crash_mid_apply);
    ("leader-crash-mid-ship", leader_crash_mid_ship);
    ("torn-segment-catchup", torn_segment_catchup);
    ("promote-fences-old-leader", promote_fences_old_leader);
  ]

let scenario_names () = List.map fst scenarios

let run ?(seed = 2001) ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (name, scenario) ->
      match scenario dir seed with
      | detail -> { scenario = name; passed = true; detail }
      | exception Check detail -> { scenario = name; passed = false; detail }
      | exception e ->
          { scenario = name; passed = false; detail = Printexc.to_string e })
    scenarios

let all_passed = List.for_all (fun o -> o.passed)

(* --- reporting ------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json outcomes =
  let row o =
    Printf.sprintf
      "  {\"scenario\": \"%s\", \"passed\": %b, \"detail\": \"%s\"}"
      (json_escape o.scenario) o.passed (json_escape o.detail)
  in
  "[\n" ^ String.concat ",\n" (List.map row outcomes) ^ "\n]\n"

let to_text outcomes =
  let row o =
    Printf.sprintf "%-28s %s  %s" o.scenario
      (if o.passed then "PASS" else "FAIL")
      o.detail
  in
  String.concat "\n" (List.map row outcomes)
