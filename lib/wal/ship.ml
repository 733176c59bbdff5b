(* The leader end of WAL shipping.

   A shipper taps its log's append stream (Log.set_tee), numbers every
   accepted payload with a sequence number, and pushes records to
   attached followers over synchronous transports. Records accumulate
   in an open buffer until [segment_records] of them are sealed into an
   archive segment (Segment.seal); the archive — sealed segments plus
   base snapshots — is both the catch-up source for followers that fall
   behind the buffer and the point-in-time recovery store.

   Push is one frame per step with a bounded retry budget per follower
   per [ship] call: a Nack rewinds the cursor, a transport error or Bad
   response retries the same frame, a Fenced response permanently
   fences this shipper (a newer term exists; it must never ship again).
   The budget keeps scripted fault schedules deterministic — a follower
   that cannot be reached just stays behind until the next call. *)

type transport = string -> (string, string) result

let append_count = Si_obs.Registry.counter "wal.ship.append"
let snapshot_count = Si_obs.Registry.counter "wal.ship.snapshot"
let retry_count = Si_obs.Registry.counter "wal.ship.retry"
let fenced_count = Si_obs.Registry.counter "wal.ship.fenced"
let seal_count = Si_obs.Registry.counter "wal.ship.seal"
let lag_gauge = Si_obs.Registry.gauge "wal.ship.lag"

type follower = {
  f_name : string;
  f_send : transport;
  mutable f_acked : int;  (* follower's contiguous applied prefix *)
  mutable f_healthy : bool;  (* last push round completed *)
}

type t = {
  archive : string;
  log : Log.t;
  segment_records : int;
  mutable term : int;
  mutable seq : int;  (* last assigned sequence number *)
  mutable sealed_seq : int;  (* last sequence number in the archive *)
  mutable buffer_rev : (int * string) list;  (* open segment, newest first *)
  mutable followers : follower list;
  mutable fenced : bool;
  mutable trouble : string option;
  mutable cache : (string * string list) option;  (* last segment read *)
  mutable notify : (unit -> unit) option;  (* called after each teed record *)
  (* Guards seq/buffer_rev/sealed_seq/followers: the tee fires on the
     appending domain while a background shipping domain drains the
     same state. Push network I/O happens outside the lock, so an
     in-flight ship round never stalls an append; sealing a full
     buffer writes the segment inside it by design (the class is
     io_ok in Si_check.Hierarchy). *)
  lock : Si_check.Lock.t;
}

let with_lock t f = Si_check.Lock.with_lock t.lock f

let term t = t.term
let seq t = t.seq
let archive t = t.archive
let is_fenced t = t.fenced
let set_notify t f = t.notify <- f

let trouble t =
  let r = t.trouble in
  t.trouble <- None;
  r

let followers t =
  with_lock t (fun () -> List.map (fun f -> (f.f_name, f.f_acked)) t.followers)

let lag t =
  with_lock t (fun () ->
      List.fold_left (fun m f -> max m (t.seq - f.f_acked)) 0 t.followers)

(* Assumes [t.lock] is held. *)
let seal_buffer t =
  match t.buffer_rev with
  | [] -> Ok ()
  | buffered -> (
      let payloads = List.rev_map snd buffered in
      match
        Segment.seal ~dir:t.archive ~term:t.term ~first:(t.sealed_seq + 1)
          payloads
      with
      | Error e ->
          if t.trouble = None then t.trouble <- Some e;
          Error e
      | Ok _ ->
          Si_obs.Counter.incr seal_count;
          t.sealed_seq <- t.seq;
          t.buffer_rev <- [];
          Ok ())

let on_append t payload =
  with_lock t (fun () ->
      t.seq <- t.seq + 1;
      t.buffer_rev <- (t.seq, payload) :: t.buffer_rev;
      if List.length t.buffer_rev >= t.segment_records then
        ignore (seal_buffer t));
  match t.notify with Some f -> f () | None -> ()

let create ?(segment_records = 256) ?term:want_term ?seq:want_seq ~archive log
    =
  if segment_records < 1 then Error "segment_records must be at least 1"
  else
    match Segment.ensure_dir archive with
    | Error _ as e -> e
    | Ok () -> (
        match Segment.index archive with
        | Error _ as e -> e
        | Ok idx ->
            let archive_term = Segment.max_term idx in
            let resolved =
              match want_term with
              | None -> Ok archive_term
              | Some w ->
                  if w < archive_term then
                    Error
                      (Printf.sprintf
                         "term %d is behind the archive's term %d" w
                         archive_term)
                  else Ok w
            in
            Result.map
              (fun term ->
                (* A resuming leader may know (from persisted replication
                   metadata) that it assigned sequence numbers past what
                   the archive retains — never renumber those. *)
                let seq =
                  max (Segment.max_seq idx)
                    (Option.value want_seq ~default:0)
                in
                let t =
                  {
                    archive;
                    log;
                    segment_records;
                    term;
                    seq;
                    sealed_seq = seq;
                    buffer_rev = [];
                    followers = [];
                    fenced = false;
                    trouble = None;
                    cache = None;
                    notify = None;
                    lock = Si_check.Lock.create ~class_:"wal.ship";
                  }
                in
                Log.set_tee log (Some (on_append t));
                t)
              resolved)

let close t =
  Log.set_tee t.log None;
  t.notify <- None;
  with_lock t (fun () -> t.followers <- [])

let write_base t payload =
  Result.map
    (fun (_ : Segment.base) -> ())
    (Segment.write_base ~dir:t.archive ~term:t.term ~seq:t.seq payload)

let checkpoint t = with_lock t (fun () -> seal_buffer t)

(* --- record lookup for catch-up ------------------------------------ *)

type lookup = Found of string | Need_base | Shipped_all

let segment_payloads t entry =
  match t.cache with
  | Some (file, payloads) when file = entry.Segment.seg_file -> Ok payloads
  | _ ->
      Result.map
        (fun payloads ->
          t.cache <- Some (entry.Segment.seg_file, payloads);
          payloads)
        (Segment.read ~dir:t.archive entry)

let record_at t s =
  (* Snapshot the volatile span under the lock; the archive lookup below
     reads only sealed (immutable) files. *)
  let in_buffer =
    with_lock t (fun () ->
        if s > t.seq then `Shipped_all
        else if s > t.sealed_seq then `Buffered (List.assoc_opt s t.buffer_rev)
        else `Sealed)
  in
  match in_buffer with
  | `Shipped_all -> Shipped_all
  | `Buffered (Some payload) -> Found payload
  | `Buffered None -> Need_base (* unreachable: the buffer covers this span *)
  | `Sealed -> (
    match Segment.index t.archive with
    | Error _ -> Need_base
    | Ok idx -> (
        match
          List.find_opt
            (fun e -> e.Segment.seg_first <= s && s <= e.Segment.seg_last)
            idx.Segment.segments
        with
        | None -> Need_base
        | Some entry -> (
            match segment_payloads t entry with
            | Error e ->
                if t.trouble = None then t.trouble <- Some e;
                Need_base
            | Ok payloads -> (
                match List.nth_opt payloads (s - entry.Segment.seg_first) with
                | Some payload -> Found payload
                | None -> Need_base))))

let newest_base t =
  match Segment.index t.archive with
  | Error _ -> None
  | Ok idx -> (
      match List.rev idx.Segment.bases with b :: _ -> Some b | [] -> None)

(* --- pushing -------------------------------------------------------- *)

let fence t =
  Si_obs.Counter.incr fenced_count;
  t.fenced <- true

(* One round-trip; interpret the response against the follower cursor.
   [`Progress] made headway, [`Retry] should resend, [`Stop] ends this
   follower's round. *)
let exchange t f frame ~on_ack =
  match f.f_send (Frame.encode frame) with
  | Error _ -> `Retry
  | Ok raw -> (
      match Frame.decode raw with
      | Error _ -> `Retry
      | Ok (Frame.Ack { seq }) ->
          on_ack seq;
          `Progress
      | Ok (Frame.Nack { next }) ->
          f.f_acked <- next - 1;
          `Progress
      | Ok (Frame.Fenced _) ->
          fence t;
          `Stop
      | Ok (Frame.Bad _) -> `Retry
      | Ok _ -> `Retry)

let push_follower t f =
  let budget = ref (((t.seq - f.f_acked) * 4) + 16) in
  let rec go () =
    if t.fenced then ()
    else if f.f_acked >= t.seq then f.f_healthy <- true
    else if !budget <= 0 then f.f_healthy <- false
    else begin
      decr budget;
      let next = f.f_acked + 1 in
      let step =
        match record_at t next with
        | Shipped_all ->
            f.f_healthy <- true;
            `Stop
        | Found payload ->
            Si_obs.Counter.incr append_count;
            exchange t f
              (Frame.Append { term = t.term; seq = next; payload })
              ~on_ack:(fun a -> f.f_acked <- max f.f_acked a)
        | Need_base -> (
            (* The record predates the archive's sealed span: jump the
               follower to the newest base snapshot instead. *)
            match newest_base t with
            | None ->
                if t.trouble = None then
                  t.trouble <-
                    Some
                      (Printf.sprintf
                         "no archive source for record %d and no base \
                          snapshot to jump past it"
                         next);
                f.f_healthy <- false;
                `Stop
            | Some b -> (
                match Segment.read_base ~dir:t.archive b with
                | Error e ->
                    if t.trouble = None then t.trouble <- Some e;
                    f.f_healthy <- false;
                    `Stop
                | Ok payload ->
                    Si_obs.Counter.incr snapshot_count;
                    exchange t f
                      (Frame.Snapshot
                         { term = t.term; seq = b.Segment.base_seq; payload })
                      ~on_ack:(fun a -> f.f_acked <- max f.f_acked a)))
      in
      match step with
      | `Stop -> ()
      | `Progress -> go ()
      | `Retry ->
          Si_obs.Counter.incr retry_count;
          go ()
    end
  in
  go ()

let ship t =
  if t.fenced then Error "shipper is fenced: a newer leader exists"
  else begin
    let fs = with_lock t (fun () -> t.followers) in
    List.iter (fun f -> push_follower t f) fs;
    Si_obs.Gauge.set lag_gauge (lag t);
    if t.fenced then Error "shipper is fenced: a newer leader exists"
    else Ok ()
  end

let heartbeat t =
  if t.fenced then Error "shipper is fenced: a newer leader exists"
  else begin
    let fs = with_lock t (fun () -> t.followers) in
    List.iter
      (fun f ->
        ignore
          (exchange t f
             (Frame.Heartbeat { term = t.term; seq = t.seq })
             ~on_ack:(fun a -> f.f_acked <- max f.f_acked a)))
      fs;
    Si_obs.Gauge.set lag_gauge (lag t);
    if t.fenced then Error "shipper is fenced: a newer leader exists"
    else Ok ()
  end

let attach t ~name send =
  if t.fenced then Error "shipper is fenced: a newer leader exists"
  else
    match send (Frame.encode (Frame.Hello { term = t.term; seq = t.seq })) with
    | Error e -> Error (Printf.sprintf "handshake with %s failed: %s" name e)
    | Ok raw -> (
        match Frame.decode raw with
        | Error e ->
            Error (Printf.sprintf "handshake with %s failed: %s" name e)
        | Ok (Frame.Welcome { term; next }) ->
            if term <> t.term then
              Error
                (Printf.sprintf "handshake with %s: term mismatch %d" name
                   term)
            else begin
              let f =
                {
                  f_name = name;
                  f_send = send;
                  f_acked = next - 1;
                  f_healthy = true;
                }
              in
              with_lock t (fun () ->
                  t.followers <-
                    f :: List.filter (fun g -> g.f_name <> name) t.followers);
              Ok ()
            end
        | Ok (Frame.Fenced { term }) ->
            fence t;
            Error
              (Printf.sprintf
                 "fenced: %s already follows a leader of term %d" name term)
        | Ok (Frame.Bad e) ->
            Error (Printf.sprintf "handshake with %s rejected: %s" name e)
        | Ok _ -> Error (Printf.sprintf "handshake with %s: unexpected reply" name))

let detach t name =
  with_lock t (fun () ->
      t.followers <- List.filter (fun f -> f.f_name <> name) t.followers)
