(* Tests for Si_wal (CRC, record framing, log, recovery) and journaled
   TRIM recovery through the pad's WAL (Slimpad.open_wal). Crash
   injection cuts log files at arbitrary byte offsets with
   Si_workload.Faults.cut_file — exactly the state a process death
   mid-append leaves behind. *)

open Si_wal
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Slimpad = Si_slimpad.Slimpad
module Faults = Si_workload.Faults
module Rng = Si_workload.Rng

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Log.error_to_string e)

let sok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* A scratch WAL path with no file behind it yet (and no stale .snap). *)
let fresh_path () =
  let path = Filename.temp_file "si_wal_test" ".wal" in
  Sys.remove path;
  if Sys.file_exists (Log.snapshot_path path) then
    Sys.remove (Log.snapshot_path path);
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Log.snapshot_path path; Log.lock_path path ]

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* ---------------------------------------------------------------- crc32 *)

let test_crc_vectors () =
  (* The standard IEEE check value. *)
  check_int "123456789" 0xCBF43926 (Crc32.digest "123456789");
  check_int "empty" 0 (Crc32.digest "");
  check_int "a" 0xE8B7BE43 (Crc32.digest "a");
  (* All byte values survive. *)
  let all = String.init 256 Char.chr in
  check_bool "binary-safe" true (Crc32.digest all <> Crc32.digest "")

let test_crc_incremental () =
  let a = "superimposed " and b = "information" in
  check_int "digest continues across chunks"
    (Crc32.digest (a ^ b))
    (Crc32.digest ~crc:(Crc32.digest a) b);
  check_int "pos/len select a substring"
    (Crc32.digest "bundle")
    (Crc32.digest ~pos:3 ~len:6 "in bundles");
  Alcotest.check_raises "bad range rejected"
    (Invalid_argument "Crc32.digest") (fun () ->
      ignore (Crc32.digest ~pos:4 ~len:3 "abcde"))

(* The CRC one bit at a time, straight from the polynomial: no table, no
   slicing, so it shares nothing with the code under test. *)
let reference_crc s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

(* Every length 0..67 at every offset 0..7 covers each alignment of the
   8-byte steps and every tail length; chaining at each split point of a
   67-byte string covers a running CRC entering mid-step. *)
let test_crc_matches_reference () =
  let s = String.init 75 (fun i -> Char.chr (((i * 167) + 13) land 0xff)) in
  for pos = 0 to 7 do
    for len = 0 to 67 do
      check_int
        (Printf.sprintf "pos %d len %d" pos len)
        (reference_crc (String.sub s pos len))
        (Crc32.digest ~pos ~len s)
    done
  done;
  let whole = String.sub s 0 67 in
  for k = 0 to 67 do
    let head = Crc32.digest ~len:k whole in
    check_int
      (Printf.sprintf "chained at %d" k)
      (reference_crc whole)
      (Crc32.digest ~crc:head ~pos:k whole)
  done

(* ----------------------------------------------------------- field codec *)

let test_fields_roundtrip () =
  let cases =
    [
      [];
      [ "" ];
      [ "+"; "s1"; "scrapName"; "l"; "Dopamine" ];
      [ "binary \x00\x01\xff"; ""; "<xml attr=\"x\">&amp;</xml>" ];
    ]
  in
  List.iter
    (fun fields ->
      match Record.decode_fields (Record.encode_fields fields) with
      | Ok back ->
          check_int "field count" (List.length fields) (List.length back);
          List.iter2 (check "field") fields back
      | Error e -> Alcotest.failf "decode failed: %s" e)
    cases

let test_fields_malformed () =
  check_bool "empty payload" true (Result.is_error (Record.decode_fields ""));
  (* Claim two fields, provide one. *)
  let one = Record.encode_fields [ "x" ] in
  let lying = Bytes.of_string one in
  Bytes.set lying 0 '\x02';
  check_bool "count overruns payload" true
    (Result.is_error (Record.decode_fields (Bytes.to_string lying)));
  (* Trailing garbage after the advertised fields. *)
  check_bool "trailing bytes" true
    (Result.is_error (Record.decode_fields (one ^ "junk")))

(* ------------------------------------------------------- record framing *)

let encode_to_string payloads =
  let buf = Buffer.create 256 in
  List.iter (Record.encode buf) payloads;
  Buffer.contents buf

let test_record_roundtrip () =
  let payloads = [ "alpha"; ""; String.init 300 (fun i -> Char.chr (i land 0xff)) ] in
  let s = encode_to_string payloads in
  match Record.read_all s ~pos:0 with
  | Ok (back, stop, torn) ->
      check_int "all payloads back" (List.length payloads) (List.length back);
      List.iter2 (check "payload") payloads back;
      check_int "stop at end" (String.length s) stop;
      check_bool "no torn tail" true (torn = None)
  | Error e -> Alcotest.failf "read_all: %s" e

let test_record_classification () =
  let s = encode_to_string [ "first"; "second" ] in
  let first_end = Record.header_size + 5 in
  (* Cut inside the second record's header. *)
  (match Record.read (String.sub s 0 (first_end + 3)) ~pos:first_end with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn for half a header");
  (* Cut inside the second record's payload. *)
  (match
     Record.read (String.sub s 0 (first_end + Record.header_size + 2))
       ~pos:first_end
   with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn for a short payload");
  (* Flip a byte in the LAST record's payload: indistinguishable from a
     torn append, classified Torn. *)
  let flip s pos =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
    Bytes.to_string b
  in
  (match flip s (String.length s - 1) |> fun s' -> Record.read s' ~pos:first_end with
  | Record.Torn _ -> ()
  | _ -> Alcotest.fail "expected Torn for a final-record flip");
  (* Flip a byte in the FIRST record's payload: data follows, so this is
     real damage. *)
  (match flip s Record.header_size |> fun s' -> Record.read s' ~pos:0 with
  | Record.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt for a mid-log flip");
  match Record.read s ~pos:(String.length s) with
  | Record.End -> ()
  | _ -> Alcotest.fail "expected End at the end"

(* ------------------------------------------------------------------ log *)

let test_log_append_reopen () =
  let path = fresh_path () in
  let log, recovery = ok_exn "open" (Log.open_ path) in
  check_int "fresh: nothing to replay" 0 (List.length recovery.Log.records);
  check_bool "fresh: no snapshot" true (recovery.Log.snapshot = None);
  let payloads = [ "one"; "two"; "three" ] in
  List.iter (fun p -> ok_exn "append" (Log.append log p)) payloads;
  ok_exn "close" (Log.close log);
  let log2, recovery2 = ok_exn "reopen" (Log.open_ path) in
  List.iter2 (check "replayed") payloads recovery2.Log.records;
  check_int "no torn bytes" 0 recovery2.Log.truncated_bytes;
  check_int "record_count" 3 (Log.record_count log2);
  ok_exn "close2" (Log.close log2);
  cleanup path

let test_log_group_commit () =
  let path = fresh_path () in
  let log, _ =
    ok_exn "open"
      (Log.open_ ~policy:(Log.Batched { max_records = 3; max_bytes = 1 lsl 20 })
         path)
  in
  ok_exn "a" (Log.append log "a");
  ok_exn "b" (Log.append log "b");
  check_int "two pending" 2 (Log.pending log);
  check_int "none on disk yet" 0 (Log.record_count log);
  (* The third append crosses max_records and flushes the batch. *)
  ok_exn "c" (Log.append log "c");
  check_int "batch flushed" 0 (Log.pending log);
  check_int "three on disk" 3 (Log.record_count log);
  ok_exn "close" (Log.close log);
  (* Byte threshold flushes too. *)
  let log_b, _ =
    ok_exn "open byte-batch"
      (Log.open_ ~policy:(Log.Batched { max_records = 1000; max_bytes = 64 })
         path)
  in
  ok_exn "big" (Log.append log_b (String.make 100 'x'));
  check_int "byte threshold crossed" 0 (Log.pending log_b);
  (* Explicit sync flushes a partial batch. *)
  ok_exn "d" (Log.append log_b "d");
  check_int "one pending" 1 (Log.pending log_b);
  ok_exn "sync" (Log.sync log_b);
  check_int "sync drained it" 0 (Log.pending log_b);
  ok_exn "close_b" (Log.close log_b);
  cleanup path

let test_log_unflushed_batch_lost () =
  (* Batched appends that were never synced are NOT acknowledged: a
     crash before the flush loses exactly them and nothing else. *)
  let path = fresh_path () in
  let log, _ =
    ok_exn "open"
      (Log.open_ ~policy:(Log.Batched { max_records = 100; max_bytes = 1 lsl 20 })
         path)
  in
  ok_exn "acked" (Log.append log "acked");
  ok_exn "sync" (Log.sync log);
  ok_exn "pending1" (Log.append log "pending1");
  ok_exn "pending2" (Log.append log "pending2");
  (* Simulate the crash: copy the file as it sits on disk — the live
     handle still holds the unflushed batch (and the writer lock). *)
  let crashed = fresh_path () in
  write_bytes crashed (read_bytes path);
  let log2, recovery = ok_exn "reopen" (Log.open_ crashed) in
  check_int "only the synced record survives" 1
    (List.length recovery.Log.records);
  check "it is the acked one" "acked" (List.hd recovery.Log.records);
  ok_exn "close2" (Log.close log2);
  ok_exn "close1" (Log.close log);
  cleanup crashed;
  cleanup path

let test_log_single_writer_lock () =
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ path) in
  (* A second writer on the same path would interleave appends and
     corrupt the frame stream — refused while the first handle lives. *)
  check_bool "second open refused" true (Result.is_error (Log.open_ path));
  check_bool "lock file present" true (Sys.file_exists (Log.lock_path path));
  ok_exn "first handle still writes" (Log.append log "safe");
  ok_exn "close" (Log.close log);
  check_bool "lock released on close" false
    (Sys.file_exists (Log.lock_path path));
  let log2, recovery = ok_exn "reopen after close" (Log.open_ path) in
  check "the refused open corrupted nothing" "safe"
    (List.hd recovery.Log.records);
  ok_exn "close2" (Log.close log2);
  cleanup path

let test_log_stale_lock_takeover () =
  let path = fresh_path () in
  (* Garbage contents: a torn lock write from a crashed process. *)
  write_bytes (Log.lock_path path) "not a pid";
  let log, _ = ok_exn "garbage lock taken over" (Log.open_ path) in
  ok_exn "close" (Log.close log);
  (* Our own pid: what a crash simulated in-process leaves behind. *)
  write_bytes (Log.lock_path path) (string_of_int (Unix.getpid ()));
  let log2, _ = ok_exn "own-pid lock taken over" (Log.open_ path) in
  ok_exn "close2" (Log.close log2);
  cleanup path

let test_log_snapshot_cycle () =
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ path) in
  ok_exn "r1" (Log.append log "r1");
  ok_exn "r2" (Log.append log "r2");
  check_int "generation 0" 0 (Log.generation log);
  ok_exn "cut" (Log.cut_snapshot log "STATE-AFTER-R2");
  check_int "generation bumped" 1 (Log.generation log);
  check_int "log emptied" 0 (Log.record_count log);
  ok_exn "r3" (Log.append log "r3");
  ok_exn "close" (Log.close log);
  let log2, recovery = ok_exn "reopen" (Log.open_ path) in
  check "snapshot restored" "STATE-AFTER-R2"
    (Option.get recovery.Log.snapshot);
  check_int "tail after snapshot" 1 (List.length recovery.Log.records);
  check "tail record" "r3" (List.hd recovery.Log.records);
  ok_exn "close2" (Log.close log2);
  cleanup path

let test_log_stale_log_discarded () =
  (* Crash window of cut_snapshot: snapshot written (gen n+1), log still
     holding gen-n records. Recovery must prefer the snapshot and drop
     the log — its content is already folded in. *)
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ path) in
  ok_exn "r1" (Log.append log "r1");
  ok_exn "sync" (Log.sync log);
  let pre_cut = read_bytes path in
  ok_exn "cut" (Log.cut_snapshot log "FOLDED");
  ok_exn "close" (Log.close log);
  (* Wind the log file back to its pre-compaction content. *)
  write_bytes path pre_cut;
  let info = ok_exn "inspect" (Log.inspect path) in
  check_bool "inspect flags staleness" true info.Log.info_stale_log;
  let log2, recovery = ok_exn "reopen" (Log.open_ path) in
  check_bool "reset reported" true recovery.Log.reset_log;
  check "snapshot wins" "FOLDED" (Option.get recovery.Log.snapshot);
  check_int "stale records dropped" 0 (List.length recovery.Log.records);
  check_int "generation follows snapshot" 1 (Log.generation log2);
  ok_exn "close2" (Log.close log2);
  cleanup path

let test_log_ahead_of_snapshot_rejected () =
  (* The inverse skew — log generation ahead of the snapshot — cannot be
     produced by the protocol; it means tampering or file mix-up. *)
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ path) in
  ok_exn "cut1" (Log.cut_snapshot log "S1");
  let snap_v1 = read_bytes (Log.snapshot_path path) in
  ok_exn "r" (Log.append log "r");
  ok_exn "cut2" (Log.cut_snapshot log "S2");
  ok_exn "close" (Log.close log);
  (* Put the generation-1 snapshot back beside the generation-2 log. *)
  write_bytes (Log.snapshot_path path) snap_v1;
  (match Log.open_ path with
  | Error (Log.Bad_header _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Log.error_to_string e)
  | Ok (log, _) ->
      ignore (Log.close log);
      Alcotest.fail "log ahead of snapshot must not open");
  cleanup path

let test_log_corrupt_midlog_is_hard_error () =
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ path) in
  List.iter (fun p -> ok_exn "append" (Log.append log p))
    [ "first-record"; "second-record"; "third-record" ];
  ok_exn "close" (Log.close log);
  (* Flip one payload byte inside the FIRST record. *)
  let contents = Bytes.of_string (read_bytes path) in
  let pos = 12 + Record.header_size + 2 in
  Bytes.set contents pos
    (Char.chr (Char.code (Bytes.get contents pos) lxor 0xff));
  write_bytes path (Bytes.to_string contents);
  (match Log.open_ path with
  | Error (Log.Corrupt_record { index; _ }) -> check_int "index" 0 index
  | Error e -> Alcotest.failf "wrong error: %s" (Log.error_to_string e)
  | Ok (log, recovery) ->
      ignore (Log.close log);
      Alcotest.failf "opened through corruption, %d records replayed"
        (List.length recovery.Log.records));
  (match Log.inspect path with
  | Error (Log.Corrupt_record _) -> ()
  | _ -> Alcotest.fail "inspect must also refuse");
  cleanup path

(* The acceptance bar: a crash at ANY byte offset of the log recovers to
   a prefix-consistent store with zero acknowledged-write loss. Every
   append below is under Immediate policy, so every record is
   acknowledged the moment append returns — recovery must keep exactly
   the records whose bytes fully made it to disk (all of them, except
   possibly the one the cut landed inside). *)
let test_crash_at_every_offset () =
  let path = fresh_path () in
  let payloads =
    [ "alpha"; "b"; ""; "delta-delta-delta"; "e<&>"; "final-record" ]
  in
  let log, _ = ok_exn "open" (Log.open_ ~policy:Log.Immediate path) in
  List.iter (fun p -> ok_exn "append" (Log.append log p)) payloads;
  ok_exn "close" (Log.close log);
  let full = read_bytes path in
  let total = String.length full in
  let scratch = fresh_path () in
  for cut = 0 to total do
    write_bytes scratch full;
    let kept = Faults.cut_file scratch cut in
    check_int "cut_file clamps" (min cut total) kept;
    match Log.open_ scratch with
    | Error e ->
        Alcotest.failf "cut at %d failed to recover: %s" cut
          (Log.error_to_string e)
    | Ok (log, recovery) ->
        let recovered = recovery.Log.records in
        let n = List.length recovered in
        (* Prefix consistency: the recovered records are exactly the
           first n appended, in order. *)
        check_bool
          (Printf.sprintf "cut at %d: prefix of the appended stream" cut)
          true
          (List.for_all2 String.equal recovered
             (List.filteri (fun i _ -> i < n) payloads));
        (* Zero acknowledged-write loss: only the record the cut landed
           inside may be missing — every record fully on disk survives. *)
        let boundary = ref 12 (* log header *) in
        let complete =
          List.fold_left
            (fun acc p ->
              boundary := !boundary + Record.header_size + String.length p;
              if !boundary <= cut then acc + 1 else acc)
            0 payloads
        in
        check_int (Printf.sprintf "cut at %d: every durable record kept" cut)
          complete n;
        ok_exn "close" (Log.close log);
        (* The truncation is persistent: a second open is clean. *)
        let log2, r2 = ok_exn "re-reopen" (Log.open_ scratch) in
        check_int
          (Printf.sprintf "cut at %d: second open sees a clean log" cut)
          0 r2.Log.truncated_bytes;
        check_int "stable record count" n (List.length r2.Log.records);
        ok_exn "close2" (Log.close log2)
  done;
  cleanup scratch;
  cleanup path

let test_crash_random_offsets_with_snapshot () =
  (* Same property across the snapshot + tail shape, at seeded random
     offsets. *)
  let rng = Rng.create 2001 in
  let path = fresh_path () in
  let log, _ = ok_exn "open" (Log.open_ ~policy:Log.Immediate path) in
  ok_exn "pre" (Log.append log "folded-into-snapshot");
  ok_exn "cut" (Log.cut_snapshot log "SNAP-STATE");
  let tail = List.init 10 (fun i -> Printf.sprintf "tail-%02d" i) in
  List.iter (fun p -> ok_exn "append" (Log.append log p)) tail;
  ok_exn "close" (Log.close log);
  let full = read_bytes path in
  let snap = read_bytes (Log.snapshot_path path) in
  let scratch = fresh_path () in
  for _ = 1 to 60 do
    let cut = Rng.int rng (String.length full + 1) in
    write_bytes scratch full;
    write_bytes (Log.snapshot_path scratch) snap;
    ignore (Faults.cut_file scratch cut);
    match Log.open_ scratch with
    | Error e ->
        Alcotest.failf "cut at %d: %s" cut (Log.error_to_string e)
    | Ok (log, recovery) ->
        check "snapshot always survives" "SNAP-STATE"
          (Option.get recovery.Log.snapshot);
        let n = List.length recovery.Log.records in
        check_bool "tail prefix" true
          (List.for_all2 String.equal recovery.Log.records
             (List.filteri (fun i _ -> i < n) tail));
        ok_exn "close" (Log.close log)
  done;
  cleanup scratch;
  cleanup path

(* ------------------------------------------ journaled TRIM (pad WAL) *)

let tr s p o = Triple.make s p (Triple.literal o)

(* A journaled pad is the production journaled TRIM: its triple store is
   the one under test. A pad's store also holds the bundle model's own
   definition triples, which recovery reinstalls even after a clear, so
   contents are compared on the triples outside that model. *)
let open_pad ?policy path =
  Slimpad.open_wal ?policy (Si_mark.Desktop.create ()) path

let pad_trim app = Si_slim.Dmi.trim (Slimpad.dmi app)

let model_triples =
  Trim.to_list (pad_trim (Slimpad.create (Si_mark.Desktop.create ())))

let user_triples t =
  List.sort Triple.compare
    (List.filter (fun x -> not (List.mem x model_triples)) (Trim.to_list t))

let user_size t = List.length (user_triples t)
let same_triples a b = user_triples a = user_triples b

let test_durable_roundtrip () =
  let path = fresh_path () in
  let app, _ = sok_exn "open" (open_pad path) in
  let t = pad_trim app in
  check_bool "add" true (Trim.add t (tr "b1" "bundleName" "John Smith"));
  check_bool "add2" true (Trim.add t (Triple.make "b1" "content" (Triple.resource "s1")));
  check_bool "remove" true (Trim.remove t (tr "b1" "bundleName" "John Smith"));
  check_bool "re-add" true (Trim.add t (tr "b1" "bundleName" "Jane Doe"));
  sok_exn "close" (Slimpad.wal_close app);
  let app2, { Slimpad.replayed; _ } = sok_exn "reopen" (open_pad path) in
  check_int "replayed every op" 4 replayed;
  check_bool "contents equal" true (Trim.equal_contents t (pad_trim app2));
  sok_exn "close2" (Slimpad.wal_close app2);
  cleanup path

let test_durable_rollback_journaled () =
  (* A rolled-back transaction must leave the WAL describing the same
     state as the in-memory trim: the inverse ops are appended. *)
  let path = fresh_path () in
  let app, _ = sok_exn "open" (open_pad path) in
  let t = pad_trim app in
  ignore (Trim.add t (tr "a" "p" "keep"));
  (match
     Trim.transaction t (fun () ->
         ignore (Trim.add t (tr "b" "p" "doomed"));
         ignore (Trim.remove t (tr "a" "p" "keep"));
         Error "abort")
   with
  | Ok (Error "abort") -> ()
  | _ -> Alcotest.fail "transaction should report the abort");
  check_int "in-memory state rolled back" 1 (user_size t);
  sok_exn "close" (Slimpad.wal_close app);
  let app2, _ = sok_exn "reopen" (open_pad path) in
  check_bool "recovered state matches the rolled-back trim" true
    (Trim.equal_contents t (pad_trim app2));
  sok_exn "close2" (Slimpad.wal_close app2);
  cleanup path

let test_durable_checkpoint () =
  let path = fresh_path () in
  let app, _ = sok_exn "open" (open_pad path) in
  let t = pad_trim app in
  for i = 1 to 20 do
    ignore (Trim.add t (tr (Printf.sprintf "r%d" i) "p" "v"))
  done;
  sok_exn "checkpoint" (Slimpad.wal_compact app);
  check_int "log truncated" 0 (Log.record_count (Option.get (Slimpad.wal app)));
  ignore (Trim.add t (tr "post" "p" "v"));
  sok_exn "close" (Slimpad.wal_close app);
  let app2, { Slimpad.replayed; _ } = sok_exn "reopen" (open_pad path) in
  check_int "only the post-checkpoint tail replays" 1 replayed;
  check_bool "contents equal" true (Trim.equal_contents t (pad_trim app2));
  (* Compaction is idempotent: checkpointing again (no new ops) must
     recover to the identical store. *)
  sok_exn "checkpoint2" (Slimpad.wal_compact app2);
  sok_exn "checkpoint3" (Slimpad.wal_compact app2);
  sok_exn "close2" (Slimpad.wal_close app2);
  let app3, { Slimpad.replayed = r3; _ } = sok_exn "reopen3" (open_pad path) in
  check_int "nothing to replay after double checkpoint" 0 r3;
  check_bool "state unchanged by re-compaction" true
    (Trim.equal_contents t (pad_trim app3));
  sok_exn "close3" (Slimpad.wal_close app3);
  cleanup path

let test_durable_undecodable_record () =
  let path = fresh_path () in
  let log, _ = ok_exn "open raw" (Log.open_ path) in
  ok_exn "bogus" (Log.append log (Record.encode_fields [ "?"; "junk" ]));
  ok_exn "close raw" (Log.close log);
  (match open_pad path with
  | Error _ -> ()
  | Ok (app, _) ->
      ignore (Slimpad.wal_close app);
      Alcotest.fail "an undecodable record must not replay silently");
  cleanup path

let test_triples_only_log () =
  (* A journaled bare TRIM's on-disk shape: a [Trim.to_binary] snapshot
     (no marks or journal sections) under a tail of + - x records.
     Recovery opens it as a pad with no marks and the same triples. *)
  let path = fresh_path () in
  let expected = Trim.create () in
  List.iter
    (fun s -> ignore (Trim.add expected (tr s "p" "v")))
    [ "base0"; "base1"; "base2" ];
  let append ?snapshot records =
    let log, _ = ok_exn "open raw" (Log.open_ path) in
    Option.iter (fun p -> ok_exn "snapshot" (Log.cut_snapshot log p)) snapshot;
    List.iter
      (fun r -> ok_exn "append" (Log.append log (Record.encode_fields r)))
      records;
    ok_exn "close raw" (Log.close log)
  in
  let recovers what ~replayed =
    let app, rc = sok_exn "recover" (open_pad path) in
    check_int (what ^ ": replayed") replayed rc.Slimpad.replayed;
    check_bool (what ^ ": triples equal") true
      (same_triples expected (pad_trim app));
    check_int (what ^ ": no marks") 0
      (List.length (Si_mark.Manager.marks (Slimpad.marks app)));
    sok_exn "close" (Slimpad.wal_close app)
  in
  append ~snapshot:(Trim.to_binary expected)
    [ [ "+"; "tail"; "link"; "r"; "base0" ]; [ "-"; "base1"; "p"; "l"; "v" ] ];
  ignore
    (Trim.add expected (Triple.make "tail" "link" (Triple.resource "base0")));
  ignore (Trim.remove expected (tr "base1" "p" "v"));
  recovers "snapshot + tail" ~replayed:2;
  append [ [ "x" ]; [ "+"; "after"; "p"; "l"; "v" ] ];
  Trim.clear expected;
  ignore (Trim.add expected (tr "after" "p" "v"));
  recovers "after a clear" ~replayed:4;
  cleanup path

(* ------------------------------------------------- QCheck conformance *)

let gen_op =
  QCheck.Gen.(
    let* s = int_range 0 12 in
    let* p = oneofl [ "name"; "content"; "mark" ] in
    let* v = oneofl [ "x"; "y"; "<&\"" ] in
    let triple = tr ("r" ^ string_of_int s) p v in
    frequency
      [
        (6, return (`Add triple));
        (3, return (`Remove triple));
        (1, return `Clear);
        (1, return `Checkpoint);
      ])

let arbitrary_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 60) gen_op)
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | `Add t -> "add " ^ Triple.to_string t
             | `Remove t -> "remove " ^ Triple.to_string t
             | `Clear -> "clear"
             | `Checkpoint -> "checkpoint")
           ops))

(* Random op sequences through the journaled path, then recovered, must
   equal the same sequence through a plain in-memory trim — triple for
   triple. Checkpoints interleave compaction into the stream. *)
let prop_durable_conforms =
  QCheck.Test.make ~name:"recovered durable trim equals in-memory trim"
    ~count:60 arbitrary_ops (fun ops ->
      let path = fresh_path () in
      let app, _ = sok_exn "open" (open_pad path) in
      let reference = Trim.create () in
      List.iter
        (fun op ->
          (match op with
          | `Add t -> ignore (Trim.add (pad_trim app) t)
          | `Remove t -> ignore (Trim.remove (pad_trim app) t)
          | `Clear -> Trim.clear (pad_trim app)
          | `Checkpoint -> sok_exn "checkpoint" (Slimpad.wal_compact app));
          match op with
          | `Add t -> ignore (Trim.add reference t)
          | `Remove t -> ignore (Trim.remove reference t)
          | `Clear -> Trim.clear reference
          | `Checkpoint -> ())
        ops;
      sok_exn "close" (Slimpad.wal_close app);
      let app2, _ = sok_exn "recover" (open_pad path) in
      let ok = same_triples reference (pad_trim app2) in
      sok_exn "close2" (Slimpad.wal_close app2);
      (* And compaction of the recovered store is idempotent. *)
      let app3, _ = sok_exn "reopen" (open_pad path) in
      sok_exn "compact" (Slimpad.wal_compact app3);
      sok_exn "close3" (Slimpad.wal_close app3);
      let app4, _ = sok_exn "recover-compacted" (open_pad path) in
      let ok2 = same_triples reference (pad_trim app4) in
      sok_exn "close4" (Slimpad.wal_close app4);
      cleanup path;
      ok && ok2)

(* Recovery from a crash at a random offset yields a prefix: re-running
   the surviving records through a fresh pad always reproduces it. *)
let prop_recovery_is_prefix =
  QCheck.Test.make ~name:"crash recovery yields an op-stream prefix"
    ~count:40
    QCheck.(pair arbitrary_ops (int_range 0 10_000))
    (fun (ops, cut_seed) ->
      let path = fresh_path () in
      let app, _ = sok_exn "open" (open_pad ~policy:Log.Immediate path) in
      List.iter
        (function
          | `Add t -> ignore (Trim.add (pad_trim app) t)
          | `Remove t -> ignore (Trim.remove (pad_trim app) t)
          | `Clear -> Trim.clear (pad_trim app)
          | `Checkpoint -> ())
        ops;
      sok_exn "close" (Slimpad.wal_close app);
      let size = (read_bytes path |> String.length) in
      ignore (Faults.cut_file path (cut_seed mod (size + 1)));
      let recovered =
        match open_pad path with
        | Ok (app2, _) ->
            let l = Trim.to_list (pad_trim app2) in
            sok_exn "close2" (Slimpad.wal_close app2);
            l
        | Error e -> Alcotest.failf "recovery failed: %s" e
      in
      (* Replay op prefixes through a fresh pad's trim until one
         matches. *)
      let matches_prefix =
        let t = pad_trim (Slimpad.create (Si_mark.Desktop.create ())) in
        let sorted l = List.sort Triple.compare l in
        let target = sorted recovered in
        let rec go remaining =
          sorted (Trim.to_list t) = target
          ||
          match remaining with
          | [] -> false
          | op :: rest ->
              (match op with
              | `Add tr -> ignore (Trim.add t tr)
              | `Remove tr -> ignore (Trim.remove t tr)
              | `Clear -> Trim.clear t
              | `Checkpoint -> ());
              go rest
        in
        go ops
      in
      cleanup path;
      matches_prefix)

(* ------------------------------------------- binary section container *)

let test_binary_roundtrip () =
  let sections =
    [
      ("atoms", "alpha\x00beta");
      ("triples", String.init 300 (fun i -> Char.chr (i land 0xff)));
      ("empty", "");
      ("atoms", "a shadowed duplicate");
    ]
  in
  let s = Binary.encode sections in
  check_bool "sniffer accepts" true (Binary.is_binary s);
  check_bool "sniffer rejects XML" false (Binary.is_binary "<triples/>");
  check_bool "sniffer rejects short" false (Binary.is_binary "SIB");
  let decoded = sok_exn "decode" (Binary.decode s) in
  check_int "all sections back" 4 (List.length decoded);
  check_bool "order preserved" true
    (List.map fst decoded = [ "atoms"; "triples"; "empty"; "atoms" ]);
  check "first match wins" "alpha\x00beta"
    (Option.get (Binary.section "atoms" decoded));
  check "empty payload survives" ""
    (Option.get (Binary.section "empty" decoded));
  check_bool "missing section is None" true
    (Binary.section "nope" decoded = None);
  check "empty container round-trips" ""
    (match Binary.decode (Binary.encode []) with
    | Ok [] -> ""
    | Ok _ -> "nonempty"
    | Error e -> e)

let test_binary_rejects_damage () =
  let s = Binary.encode [ ("atoms", "payload-a"); ("triples", "payload-t") ] in
  let expect_error what bytes =
    match Binary.decode bytes with
    | Ok _ -> Alcotest.failf "%s: decoded damaged container" what
    | Error _ -> ()
  in
  expect_error "bad magic" ("XXXX" ^ String.sub s 4 (String.length s - 4));
  let future = Bytes.of_string s in
  Bytes.set future 7 '\x02';
  expect_error "future version" (Bytes.to_string future);
  (match Binary.decode (Bytes.to_string future) with
  | Error e ->
      check_bool "version error names the version" true
        (String.contains e '2')
  | Ok _ -> Alcotest.fail "future version accepted");
  expect_error "trailing garbage" (s ^ "x");
  (* Flip one payload byte: the section CRC must catch it. *)
  let flipped = Bytes.of_string s in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  expect_error "payload bit flip" (Bytes.to_string flipped)

let test_binary_truncation_at_every_offset () =
  (* Any strict prefix of a container must decode to an error — never a
     partial section list, never an exception. *)
  let s = Binary.encode [ ("atoms", "some atoms"); ("triples", "rows") ] in
  for cut = 0 to String.length s - 1 do
    match Binary.decode (String.sub s 0 cut) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" cut
    | Error _ -> ()
  done;
  check_int "full container decodes" 2
    (List.length (sok_exn "full" (Binary.decode s)))

let prop_binary_container_roundtrip =
  let gen_section =
    QCheck.Gen.(
      pair
        (oneofl [ "atoms"; "triples"; "marks"; "journal"; "x" ])
        (string_size (int_range 0 200)))
  in
  QCheck.Test.make ~name:"binary container round-trip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) gen_section))
    (fun sections ->
      match Binary.decode (Binary.encode sections) with
      | Ok back -> back = sections
      | Error _ -> false)

let prop_binary_corruption_never_partial =
  (* Flip one byte anywhere in a container: decode either still succeeds
     with the original sections (the flip hit a name byte is impossible —
     names are CRC-free, so a name flip yields different sections; accept
     any Ok only if it equals the original) or errors. It must never
     raise, and a CRC-protected payload flip must error. *)
  QCheck.Test.make ~name:"binary container: single byte flips never crash"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (string_size (int_range 1 80))))
    (fun (pos, payload) ->
      let s = Binary.encode [ ("atoms", payload); ("triples", "fixed") ] in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Binary.decode (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let test_binary_snapshot_crash_at_every_offset () =
  (* A WAL whose snapshot is a binary Trim container: cut the LOG at
     every byte offset; recovery must always land on a record-boundary
     prefix replayed over the intact snapshot. Then cut the SNAPSHOT at
     every offset: opening must fail cleanly (corrupt snapshot), never
     crash, never half-load. *)
  let path = fresh_path () in
  let app, _ = sok_exn "open" (open_pad path) in
  let t = pad_trim app in
  List.iter
    (fun i -> ignore (Trim.add t (tr ("base" ^ string_of_int i) "p" "v")))
    [ 0; 1; 2; 3; 4 ];
  sok_exn "checkpoint" (Slimpad.wal_compact app);
  List.iter
    (fun i -> ignore (Trim.add t (tr ("tail" ^ string_of_int i) "p" "v")))
    [ 0; 1; 2 ];
  sok_exn "close" (Slimpad.wal_close app);
  let snap_path = Log.snapshot_path path in
  let snap = read_bytes snap_path in
  (* The .snap file wraps the payload in its own framing: an 8-byte
     snapshot magic, a u32 generation, then one CRC-framed record. *)
  let payload_off = 8 + 4 + Record.header_size in
  check_bool "snapshot payload is binary" true
    (Binary.is_binary
       (String.sub snap payload_off (String.length snap - payload_off)));
  let full_log = read_bytes path in
  let scratch = fresh_path () in
  let scratch_snap = Log.snapshot_path scratch in
  (* Log cuts over the intact binary snapshot. *)
  for cut = 0 to String.length full_log do
    write_bytes scratch (String.sub full_log 0 cut);
    write_bytes scratch_snap snap;
    match open_pad scratch with
    | Ok (app2, _) ->
        let size = user_size (pad_trim app2) in
        if size < 5 || size > 8 then
          Alcotest.failf "log cut %d: recovered %d triples" cut size;
        sok_exn "close cut" (Slimpad.wal_close app2)
    | Error _ when cut < 12 -> () (* header itself torn *)
    | Error e -> Alcotest.failf "log cut %d: %s" cut e
  done;
  (* Snapshot cuts under the intact log: every strict prefix must be
     rejected wholesale. *)
  let step = max 1 (String.length snap / 97) in
  let cut = ref 0 in
  while !cut < String.length snap do
    write_bytes scratch full_log;
    write_bytes scratch_snap (String.sub snap 0 !cut);
    (match open_pad scratch with
    | Ok (app2, _) ->
        (* An empty file is a legal "no snapshot yet" state. *)
        if !cut <> 0 then Alcotest.failf "snapshot cut %d: opened" !cut
        else sok_exn "close empty-snap" (Slimpad.wal_close app2)
    | Error _ -> ());
    cut := !cut + step
  done;
  cleanup path;
  cleanup scratch

let suite =
  [
    ("crc32 vectors", `Quick, test_crc_vectors);
    ("crc32 incremental", `Quick, test_crc_incremental);
    ("crc32 matches the bitwise reference", `Quick, test_crc_matches_reference);
    ("field codec round-trip", `Quick, test_fields_roundtrip);
    ("field codec rejects malformed", `Quick, test_fields_malformed);
    ("record round-trip", `Quick, test_record_roundtrip);
    ("record torn/corrupt classification", `Quick, test_record_classification);
    ("log append and reopen", `Quick, test_log_append_reopen);
    ("log group commit thresholds", `Quick, test_log_group_commit);
    ("log unflushed batch lost cleanly", `Quick, test_log_unflushed_batch_lost);
    ("log single-writer lock", `Quick, test_log_single_writer_lock);
    ("log stale lock takeover", `Quick, test_log_stale_lock_takeover);
    ("log snapshot cycle", `Quick, test_log_snapshot_cycle);
    ("log stale log discarded", `Quick, test_log_stale_log_discarded);
    ("log ahead of snapshot rejected", `Quick,
     test_log_ahead_of_snapshot_rejected);
    ("log mid-log corruption is a hard error", `Quick,
     test_log_corrupt_midlog_is_hard_error);
    ("crash at every byte offset recovers", `Quick, test_crash_at_every_offset);
    ("crash at random offsets with snapshot", `Quick,
     test_crash_random_offsets_with_snapshot);
    ("durable trim round-trip", `Quick, test_durable_roundtrip);
    ("durable rollback journaled", `Quick, test_durable_rollback_journaled);
    ("durable checkpoint and idempotent compaction", `Quick,
     test_durable_checkpoint);
    ("durable refuses undecodable records", `Quick,
     test_durable_undecodable_record);
    ("triples-only log recovers as a pad", `Quick, test_triples_only_log);
    ("binary container round-trip & sniffer", `Quick, test_binary_roundtrip);
    ("binary container rejects damage", `Quick, test_binary_rejects_damage);
    ("binary container truncation at every offset", `Quick,
     test_binary_truncation_at_every_offset);
    ("binary snapshot: crash at every offset", `Quick,
     test_binary_snapshot_crash_at_every_offset);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_durable_conforms;
        prop_recovery_is_prefix;
        prop_binary_container_roundtrip;
        prop_binary_corruption_never_partial;
      ]
