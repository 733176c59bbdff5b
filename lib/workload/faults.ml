(* Deterministic fault injection: a combinator under the document openers.
   Schedules are seeded by Rng, so an outage scripted in a test or bench
   replays identically across runs and platforms. *)

module Desktop = Si_mark.Desktop

type schedule = Healthy | Fail_rate of float | Fail_first of int | Dead

type t = {
  sched : schedule;
  seed : int;
  mutable rng : Rng.t;
  only : string list option;
  mutable calls : int;
  mutable injected : int;
}

let create ?(seed = 2001) ?only sched =
  { sched; seed; rng = Rng.create seed; only; calls = 0; injected = 0 }

let schedule t = t.sched
let calls t = t.calls
let injected t = t.injected

let reset t =
  t.rng <- Rng.create t.seed;
  t.calls <- 0;
  t.injected <- 0

let applies t name =
  match t.only with None -> true | Some names -> List.mem name names

(* Decide the fate of call number [t.calls] (already incremented). *)
let should_fail t =
  match t.sched with
  | Healthy -> false
  | Dead -> true
  | Fail_first n -> t.calls <= n
  | Fail_rate p -> Rng.float t.rng 1.0 < p

let wrap_opener t opener name =
  if not (applies t name) then opener name
  else begin
    t.calls <- t.calls + 1;
    if should_fail t then begin
      t.injected <- t.injected + 1;
      Error
        (Printf.sprintf "injected fault: %s unavailable (call %d)" name
           t.calls)
    end
    else opener name
  end

let wrap t = { Desktop.wrap = (fun opener name -> wrap_opener t opener name) }

(* Crash simulation for the storage layer: damage a file (e.g. a
   write-ahead log or a shipped segment) the way real failures do. *)

type corruption =
  | Truncate of int
  | Flip_byte of int
  | Duplicate_tail of int

(* In place on purpose, not through [Si_io.Io.write_atomic]: damage
   lands in the file itself, as a crash or a bad disk leaves it, so a
   process still holding the file open sees it too. *)
let write_whole path contents =
  let oc = open_out_bin path in
  try
    output_string oc contents;
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e

let corrupt_file path damage =
  let contents =
    match Si_io.Io.read_file path with
    | Ok contents -> contents
    | Error msg -> raise (Sys_error msg)
  in
  let len = String.length contents in
  match damage with
  | Truncate offset ->
      let keep = max 0 (min offset len) in
      write_whole path (String.sub contents 0 keep);
      keep
  | Flip_byte offset ->
      let at = max 0 (min offset (len - 1)) in
      if len = 0 then 0
      else begin
        let b = Bytes.of_string contents in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
        write_whole path (Bytes.to_string b);
        at
      end
  | Duplicate_tail n ->
      let n = max 0 (min n len) in
      write_whole path (contents ^ String.sub contents (len - n) n);
      n

let cut_file path offset = corrupt_file path (Truncate offset)

(* Network simulation for the replication layer: a lossy wire around a
   synchronous request/response transport. Delayed frames are held in a
   one-slot stash and delivered after the following frame — an
   out-of-order arrival the receiver must buffer or Nack. *)

type frame_fault = Drop | Duplicate | Mangle | Delay

let all_frame_faults = [ Drop; Duplicate; Mangle; Delay ]

let mangle_frame frame =
  if frame = "" then frame
  else begin
    let b = Bytes.of_string frame in
    let at = Bytes.length b / 2 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
    Bytes.to_string b
  end

let wrap_transport t ?(faults = all_frame_faults) send =
  let stash = ref None in
  let flush () =
    match !stash with
    | None -> ()
    | Some held ->
        stash := None;
        ignore (send held)
  in
  fun frame ->
    t.calls <- t.calls + 1;
    if not (should_fail t) then begin
      let r = send frame in
      flush ();
      r
    end
    else begin
      t.injected <- t.injected + 1;
      match Rng.pick t.rng faults with
      | Drop ->
          flush ();
          Error (Printf.sprintf "injected fault: frame dropped (call %d)" t.calls)
      | Duplicate ->
          ignore (send frame);
          let r = send frame in
          flush ();
          r
      | Mangle ->
          let r = send (mangle_frame frame) in
          flush ();
          r
      | Delay ->
          flush ();
          stash := Some frame;
          Error (Printf.sprintf "injected fault: frame delayed (call %d)" t.calls)
    end
