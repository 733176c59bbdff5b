let append_count = Si_obs.Registry.counter "wal.append"
let fsync_count = Si_obs.Registry.counter "wal.fsync"
let compact_count = Si_obs.Registry.counter "wal.compact"
let recover_count = Si_obs.Registry.counter "wal.recover"
let fsync_latency = Si_obs.Registry.histogram "wal.fsync"
let append_latency = Si_obs.Registry.histogram "wal.append"
let compact_latency = Si_obs.Registry.histogram "wal.compact"

type sync_policy = Immediate | Batched of { max_records : int; max_bytes : int }

let default_policy = Batched { max_records = 64; max_bytes = 256 * 1024 }

type error =
  | Io of string
  | Bad_header of { file : string; detail : string }
  | Corrupt_record of { index : int; offset : int; detail : string }
  | Corrupt_snapshot of { file : string; detail : string }

let error_to_string = function
  | Io msg -> Printf.sprintf "wal: i/o error: %s" msg
  | Bad_header { file; detail } ->
      Printf.sprintf "wal: bad header in %s: %s" file detail
  | Corrupt_record { index; offset; detail } ->
      Printf.sprintf "wal: corrupt record %d at offset %d: %s" index offset
        detail
  | Corrupt_snapshot { file; detail } ->
      Printf.sprintf "wal: corrupt snapshot %s: %s" file detail

type recovery = {
  snapshot : string option;
  records : string list;
  truncated_bytes : int;
  reset_log : bool;
}

type t = {
  path : string;
  policy : sync_policy;
  mutable oc : out_channel option;
  mutable generation : int;
  mutable disk_records : int;
  buf : Buffer.t;
  mutable buffered : int;
  mutable tee : (string -> unit) option;
  (* One writer at a time: [append]/[sync]/[cut_snapshot]/[close] from a
     mutating domain can interleave with [sync] from a background
     shipping domain, and the append buffer must never see both. The
     tee fires inside the lock, so teed observers see records in accept
     order. Group commit means the flush happens inside this lock by
     design — the class is declared io_ok in Si_check.Hierarchy. *)
  lock : Si_check.Lock.t;
}

let log_magic = "SIWAL\x00\x00\x01"
let snap_magic = "SISNP\x00\x00\x01"
let magic_size = String.length log_magic
let header_size = magic_size + 4
let snapshot_path path = path ^ ".snap"
let lock_path path = path ^ ".lock"

let path t = t.path
let generation t = t.generation
let pending t = t.buffered
let record_count t = t.disk_records
let set_tee t tee = t.tee <- tee

(* --- stdlib-only file helpers ------------------------------------- *)

let protect_io f = try Ok (f ()) with Sys_error msg -> Error (Io msg)

(* Whole files go through [Si_io.Io]. An atomic rewrite of the good
   prefix doubles as portable truncation, so the library needs no
   [ftruncate]. *)
let io r = Result.map_error (fun msg -> Io msg) r

let header gen =
  let buf = Buffer.create header_size in
  Buffer.add_string buf log_magic;
  Record.add_u32 buf gen;
  Buffer.contents buf

(* --- single-writer guard ------------------------------------------- *)

(* Two layers: an in-process registry (two [open_]s on the same path in
   one process are a programming error, caught immediately) and an
   advisory O_EXCL pid file for the cross-process double-open that
   corrupts a log by interleaving appends. A lock file naming a dead
   pid — or our own, left by a crash-simulating test — is stale and
   taken over. *)

let open_in_process : (string, unit) Hashtbl.t = Hashtbl.create 8
let open_in_process_lock = Si_check.Lock.create ~class_:"wal.registry"
let with_registry f = Si_check.Lock.with_lock open_in_process_lock f

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true (* EPERM etc.: someone owns it *)

let try_write_lock file =
  match
    open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 file
  with
  | oc ->
      output_string oc (string_of_int (Unix.getpid ()));
      close_out oc;
      true
  | exception Sys_error _ -> false

let acquire_lock path =
  let file = lock_path path in
  let registered =
    with_registry (fun () ->
        if Hashtbl.mem open_in_process path then false
        else begin
          Hashtbl.add open_in_process path ();
          true
        end)
  in
  if not registered then
    Error
      (Io (Printf.sprintf "%s is already open in this process" path))
  else
    let release_registry () =
      with_registry (fun () -> Hashtbl.remove open_in_process path)
    in
    if try_write_lock file then Ok ()
    else
      let holder =
        match io (Si_io.Io.read_file file) with
        | Ok contents -> int_of_string_opt (String.trim contents)
        | Error _ -> None
      in
      let stale =
        match holder with
        | None -> true (* unreadable or garbage: a torn lock write *)
        | Some pid -> pid = Unix.getpid () || not (pid_alive pid)
      in
      if not stale then begin
        release_registry ();
        Error
          (Io
             (Printf.sprintf "%s is locked by live process %d" path
                (Option.value holder ~default:0)))
      end
      else begin
        (try Sys.remove file with Sys_error _ -> ());
        if try_write_lock file then Ok ()
        else begin
          release_registry ();
          Error (Io (Printf.sprintf "cannot take over stale lock %s" file))
        end
      end

let release_lock path =
  with_registry (fun () -> Hashtbl.remove open_in_process path);
  try Sys.remove (lock_path path) with Sys_error _ -> ()

(* --- parsing ------------------------------------------------------- *)

type parsed_log =
  | Log_bad of string
  | Log_torn_header
  | Log_corrupt of { index : int; offset : int; detail : string }
  | Log_ok of {
      gen : int;
      records : string list;
      good_end : int;  (** Offset where the valid prefix ends. *)
      torn : string option;
    }

let is_prefix ~prefix s =
  String.length s <= String.length prefix
  && String.sub prefix 0 (String.length s) = s

let parse_log contents =
  let total = String.length contents in
  if total < header_size then
    if is_prefix ~prefix:log_magic (String.sub contents 0 (min total magic_size))
    then Log_torn_header
    else Log_bad "file too short and not a torn log header"
  else if String.sub contents 0 magic_size <> log_magic then
    Log_bad "wrong magic (not a Si_wal log)"
  else
    let gen = Record.get_u32 contents magic_size in
    match Record.read_all contents ~pos:header_size with
    | Ok (records, good_end, torn) -> Log_ok { gen; records; good_end; torn }
    | Error detail ->
        (* read_all's error message carries index/offset; recompute the
           structured form by rescanning. *)
        let rec locate index pos =
          match Record.read contents ~pos with
          | Record.Record { next; _ } -> locate (index + 1) next
          | Record.Corrupt d -> (index, pos, d)
          | Record.End | Record.Torn _ -> (index, pos, detail)
        in
        let index, offset, detail = locate 0 header_size in
        Log_corrupt { index; offset; detail }

let parse_snapshot file contents =
  let bad detail = Error (Corrupt_snapshot { file; detail }) in
  let total = String.length contents in
  if total < header_size then bad "file shorter than snapshot header"
  else if String.sub contents 0 magic_size <> snap_magic then
    bad "wrong magic (not a Si_wal snapshot)"
  else
    let gen = Record.get_u32 contents magic_size in
    match Record.read contents ~pos:header_size with
    | Record.Record { payload; next } ->
        if next = total then Ok (gen, payload)
        else bad (Printf.sprintf "%d trailing byte(s) after payload" (total - next))
    | Record.End -> bad "missing payload record"
    | Record.Torn d | Record.Corrupt d -> bad d

let load_snapshot path =
  let file = snapshot_path path in
  if not (Sys.file_exists file) then Ok None
  else
    match io (Si_io.Io.read_file file) with
    | Error e -> Error e
    | Ok contents -> (
        match parse_snapshot file contents with
        | Ok (gen, payload) -> Ok (Some (gen, payload))
        | Error e -> Error e)

(* --- open / recovery ----------------------------------------------- *)

let open_append path =
  protect_io (fun () ->
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)

let finish_open ~path ~policy ~gen ~disk_records ~recovery =
  match open_append path with
  | Error e -> Error e
  | Ok oc ->
      let t =
        {
          path;
          policy;
          oc = Some oc;
          generation = gen;
          disk_records;
          buf = Buffer.create 4096;
          buffered = 0;
          tee = None;
          lock = Si_check.Lock.create ~class_:"wal.log";
        }
      in
      Ok (t, recovery)

let open_plain ?(policy = default_policy) path =
  match load_snapshot path with
  | Error e -> Error e
  | Ok snap -> (
      let snap_gen = match snap with Some (g, _) -> g | None -> 0 in
      let snap_payload = Option.map snd snap in
      if not (Sys.file_exists path) then
        (* Fresh log (or one deleted out from under its snapshot):
           start at the snapshot's generation. *)
        match io (Si_io.Io.write_atomic path (header snap_gen)) with
        | Error e -> Error e
        | Ok () ->
            finish_open ~path ~policy ~gen:snap_gen ~disk_records:0
              ~recovery:
                {
                  snapshot = snap_payload;
                  records = [];
                  truncated_bytes = 0;
                  reset_log = false;
                }
      else
        match io (Si_io.Io.read_file path) with
        | Error e -> Error e
        | Ok contents -> (
            let total = String.length contents in
            match parse_log contents with
            | Log_bad detail -> Error (Bad_header { file = path; detail })
            | Log_corrupt { index; offset; detail } ->
                Error (Corrupt_record { index; offset; detail })
            | Log_torn_header -> (
                (* Crash while writing the very first header: nothing
                   after it can exist, reset to the snapshot's view. *)
                match io (Si_io.Io.write_atomic path (header snap_gen)) with
                | Error e -> Error e
                | Ok () ->
                    finish_open ~path ~policy ~gen:snap_gen ~disk_records:0
                      ~recovery:
                        {
                          snapshot = snap_payload;
                          records = [];
                          truncated_bytes = total;
                          reset_log = true;
                        })
            | Log_ok { gen; records; good_end; torn } ->
                if snap_gen > gen then
                  (* Compaction wrote the snapshot but died before
                     truncating the log: the snapshot supersedes it. *)
                  match io (Si_io.Io.write_atomic path (header snap_gen)) with
                  | Error e -> Error e
                  | Ok () ->
                      finish_open ~path ~policy ~gen:snap_gen ~disk_records:0
                        ~recovery:
                          {
                            snapshot = snap_payload;
                            records = [];
                            truncated_bytes = 0;
                            reset_log = true;
                          }
                else if snap <> None && snap_gen < gen then
                  Error
                    (Bad_header
                       {
                         file = path;
                         detail =
                           Printf.sprintf
                             "log generation %d is ahead of snapshot generation %d"
                             gen snap_gen;
                       })
                else
                  let truncated = total - good_end in
                  let finish () =
                    finish_open ~path ~policy ~gen
                      ~disk_records:(List.length records)
                      ~recovery:
                        {
                          snapshot = snap_payload;
                          records;
                          truncated_bytes = truncated;
                          reset_log = false;
                        }
                  in
                  if torn = None then finish ()
                  else
                    (* Drop the torn tail on disk before reopening for
                       append, so the file is a valid prefix again. *)
                    match
                      io
                        (Si_io.Io.write_atomic path
                           (String.sub contents 0 good_end))
                    with
                    | Error e -> Error e
                    | Ok () -> finish ()))

let open_ ?policy path =
  Si_obs.Counter.incr recover_count;
  match acquire_lock path with
  | Error _ as e -> e
  | Ok () -> (
      let result =
        if Si_obs.Span.on () then
          Si_obs.Span.with_ ~layer:"wal" ~op:"recover" (fun () ->
              open_plain ?policy path)
        else open_plain ?policy path
      in
      match result with
      | Ok _ as ok -> ok
      | Error _ as e ->
          release_lock path;
          e)

(* --- appending ----------------------------------------------------- *)

let channel t =
  match t.oc with Some oc -> Ok oc | None -> Error (Io "log is closed")

let flush_buffered t oc =
  Si_check.blocking ~kind:"fsync" @@ fun () ->
  protect_io (fun () ->
      output_string oc (Buffer.contents t.buf);
      flush oc;
      t.disk_records <- t.disk_records + t.buffered;
      Buffer.clear t.buf;
      t.buffered <- 0)

let locked t f = Si_check.Lock.with_lock t.lock f

(* Assumes [t.lock] is held. *)
let sync_locked t =
  match channel t with
  | Error _ as e -> e
  | Ok oc ->
      if t.buffered = 0 then Ok ()
      else begin
        Si_obs.Counter.incr fsync_count;
        if Si_obs.Span.on () then
          Si_obs.Span.timed fsync_latency ~layer:"wal" ~op:"fsync" (fun () ->
              flush_buffered t oc)
        else flush_buffered t oc
      end

let sync t = locked t (fun () -> sync_locked t)

let append_plain t payload =
  match channel t with
  | Error _ as e -> e
  | Ok _ ->
      (match t.tee with Some f -> f payload | None -> ());
      Record.encode t.buf payload;
      t.buffered <- t.buffered + 1;
      let due =
        match t.policy with
        | Immediate -> true
        | Batched { max_records; max_bytes } ->
            t.buffered >= max_records || Buffer.length t.buf >= max_bytes
      in
      if due then sync_locked t else Ok ()

let append t payload =
  Si_obs.Counter.incr append_count;
  locked t (fun () ->
      if Si_obs.Span.on () then
        Si_obs.Span.timed append_latency ~layer:"wal" ~op:"append" (fun () ->
            append_plain t payload)
      else append_plain t payload)

(* --- compaction ---------------------------------------------------- *)

let cut_snapshot_plain t state =
  match sync_locked t with
  | Error _ as e -> e
  | Ok () -> (
      let gen = t.generation + 1 in
      let snap = Buffer.create (String.length state + 32) in
      Buffer.add_string snap snap_magic;
      Record.add_u32 snap gen;
      Record.encode snap state;
      match
        io (Si_io.Io.write_atomic (snapshot_path t.path) (Buffer.contents snap))
      with
      | Error _ as e -> e
      | Ok () -> (
          (* Between here and the log rewrite the snapshot is one
             generation ahead; open_ resolves that crash window by
             discarding the (now redundant) log. *)
          Option.iter close_out_noerr t.oc;
          t.oc <- None;
          match io (Si_io.Io.write_atomic t.path (header gen)) with
          | Error _ as e -> e
          | Ok () -> (
              match open_append t.path with
              | Error _ as e -> e
              | Ok oc ->
                  t.oc <- Some oc;
                  t.generation <- gen;
                  t.disk_records <- 0;
                  Ok ())))

let cut_snapshot t state =
  Si_obs.Counter.incr compact_count;
  locked t (fun () ->
      if Si_obs.Span.on () then
        Si_obs.Span.timed compact_latency ~layer:"wal" ~op:"compact" (fun () ->
            cut_snapshot_plain t state)
      else cut_snapshot_plain t state)

(* The registry lock is the outer one (taken first on [open_]), so the
   single-writer release must happen after [t.lock] is dropped, not
   inside it. *)
let close t =
  let result =
    locked t (fun () ->
        match t.oc with
        | None -> None
        | Some oc -> (
            match sync_locked t with
            | Error _ as e ->
                close_out_noerr oc;
                t.oc <- None;
                Some e
            | Ok () ->
                t.oc <- None;
                Some (protect_io (fun () -> close_out oc))))
  in
  match result with
  | None -> Ok ()
  | Some r ->
      release_lock t.path;
      r

(* --- inspection ---------------------------------------------------- *)

type info = {
  info_generation : int;
  info_records : int;
  info_log_bytes : int;
  info_torn_bytes : int;
  info_snapshot_bytes : int option;
  info_stale_log : bool;
}

type dump_record = { dump_offset : int; dump_payload : string }

type dump = {
  dump_log_generation : int option;
  dump_snapshot_generation : int option;
  dump_snapshot : string option;
  dump_records : dump_record list;
  dump_torn_bytes : int;
  dump_stale_log : bool;
  dump_corrupt : (int * int * string) option;
  dump_problems : string list;
}

let dump path =
  let snap_file = snapshot_path path in
  let snap, snap_problems =
    if not (Sys.file_exists snap_file) then (None, [])
    else
      match io (Si_io.Io.read_file snap_file) with
      | Error e -> (None, [ error_to_string e ])
      | Ok contents -> (
          match parse_snapshot snap_file contents with
          | Ok (gen, payload) -> (Some (gen, payload), [])
          | Error e -> (None, [ error_to_string e ]))
  in
  let snap_gen = Option.map fst snap in
  let base ?log_gen ?(records = []) ?(torn = 0) ?(stale = false) ?corrupt
      problems =
    {
      dump_log_generation = log_gen;
      dump_snapshot_generation = snap_gen;
      dump_snapshot = Option.map snd snap;
      dump_records = records;
      dump_torn_bytes = torn;
      dump_stale_log = stale;
      dump_corrupt = corrupt;
      dump_problems = snap_problems @ problems;
    }
  in
  if not (Sys.file_exists path) then
    if snap = None && snap_problems = [] then
      Error (Io (Printf.sprintf "%s: no log or snapshot present" path))
    else Ok (base [])
  else
    match io (Si_io.Io.read_file path) with
    | Error e -> Error e
    | Ok contents -> (
        let total = String.length contents in
        if total < header_size then
          if
            is_prefix ~prefix:log_magic
              (String.sub contents 0 (min total magic_size))
          then Ok (base ~torn:total [])
          else Ok (base [ "log header: file too short and not a torn header" ])
        else if String.sub contents 0 magic_size <> log_magic then
          Ok (base [ "log header: wrong magic (not a Si_wal log)" ])
        else
          let gen = Record.get_u32 contents magic_size in
          let rec walk index pos acc =
            match Record.read contents ~pos with
            | Record.Record { payload; next } ->
                walk (index + 1) next
                  ({ dump_offset = pos; dump_payload = payload } :: acc)
            | Record.End -> (List.rev acc, 0, None)
            | Record.Torn _ -> (List.rev acc, total - pos, None)
            | Record.Corrupt detail ->
                (List.rev acc, 0, Some (index, pos, detail))
          in
          let records, torn, corrupt = walk 0 header_size [] in
          let stale =
            match snap_gen with Some sg -> sg > gen | None -> false
          in
          let problems =
            match snap_gen with
            | Some sg when sg < gen ->
                [
                  Printf.sprintf
                    "log generation %d is ahead of snapshot generation %d" gen
                    sg;
                ]
            | _ -> []
          in
          Ok (base ~log_gen:gen ~records ~torn ~stale ?corrupt problems))

let inspect path =
  match load_snapshot path with
  | Error e -> Error e
  | Ok snap -> (
      let snap_gen = match snap with Some (g, _) -> g | None -> 0 in
      let snap_bytes = Option.map (fun (_, p) -> String.length p) snap in
      if not (Sys.file_exists path) then
        if snap = None then
          Error (Io (Printf.sprintf "%s: no log or snapshot present" path))
        else
          Ok
            {
              info_generation = snap_gen;
              info_records = 0;
              info_log_bytes = 0;
              info_torn_bytes = 0;
              info_snapshot_bytes = snap_bytes;
              info_stale_log = false;
            }
      else
        match io (Si_io.Io.read_file path) with
        | Error e -> Error e
        | Ok contents -> (
            let total = String.length contents in
            match parse_log contents with
            | Log_bad detail -> Error (Bad_header { file = path; detail })
            | Log_corrupt { index; offset; detail } ->
                Error (Corrupt_record { index; offset; detail })
            | Log_torn_header ->
                Ok
                  {
                    info_generation = snap_gen;
                    info_records = 0;
                    info_log_bytes = total;
                    info_torn_bytes = total;
                    info_snapshot_bytes = snap_bytes;
                    info_stale_log = true;
                  }
            | Log_ok { gen; records; good_end; torn } ->
                let stale = snap <> None && snap_gen > gen in
                if snap <> None && snap_gen < gen then
                  Error
                    (Bad_header
                       {
                         file = path;
                         detail =
                           Printf.sprintf
                             "log generation %d is ahead of snapshot generation %d"
                             gen snap_gen;
                       })
                else
                  Ok
                    {
                      info_generation = (if stale then snap_gen else gen);
                      info_records = (if stale then 0 else List.length records);
                      info_log_bytes = total;
                      info_torn_bytes =
                        (if torn = None then 0 else total - good_end);
                      info_snapshot_bytes = snap_bytes;
                      info_stale_log = stale;
                    }))
