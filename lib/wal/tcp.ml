(* Socket transport for WAL shipping: stdlib Unix sockets, frames
   length-prefixed and CRC-checked with the WAL's own record framing —
   [u32-le length][u32-le crc][payload] — so a damaged read is detected
   here and never reaches the protocol layer.

   The server accepts one connection at a time in a dedicated domain
   and services frames sequentially; the (single) leader holds one
   persistent connection per follower. *)

let frame_limit = 1 lsl 26 (* 64 MiB: no legitimate frame is bigger *)

(* Socket reads/writes are classified blocking operations: performing
   one while holding a non-io_ok lock is a sanitizer violation. *)
let really_read fd n =
  Si_check.blocking ~kind:"socket" @@ fun () ->
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Error "connection closed"
      | k -> go (off + k)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let really_write fd s =
  Si_check.blocking ~kind:"socket" @@ fun () ->
  let buf = Bytes.of_string s in
  let n = Bytes.length buf in
  let rec go off =
    if off = n then Ok ()
    else
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* A frame on the socket is already Record-framed by the protocol layer
   (Frame.encode): read the 8-byte header to learn the length, then the
   payload, and let Record.read validate the checksum. *)
let recv_frame fd =
  match really_read fd Record.header_size with
  | Error _ as e -> e
  | Ok header -> (
      let len = Record.get_u32 header 0 in
      if len > frame_limit then
        Error (Printf.sprintf "frame of %d bytes exceeds the limit" len)
      else
        match really_read fd len with
        | Error _ as e -> e
        | Ok payload -> (
            let raw = header ^ payload in
            match Record.read raw ~pos:0 with
            | Record.Record _ -> Ok raw
            | Record.End -> Error "empty frame"
            | Record.Torn e | Record.Corrupt e ->
                Error (Printf.sprintf "damaged frame: %s" e)))

let send_frame fd raw = really_write fd raw

(* --- server --------------------------------------------------------- *)

type server = {
  listen_fd : Unix.file_descr;
  s_port : int;
  stopping : bool Atomic.t;
  s_domain : unit Domain.t;
}

let port s = s.s_port

let serve ?(addr = "127.0.0.1") ~port handler =
  (* A write to a peer that reset its socket must fail that connection
     with EPIPE, not kill the process with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
       Unix.listen fd 8;
       let bound =
         match Unix.getsockname fd with
         | Unix.ADDR_INET (_, p) -> p
         | Unix.ADDR_UNIX _ -> port
       in
       Ok (fd, bound)
     with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok (listen_fd, bound) ->
      let stopping = Atomic.make false in
      let serve_conn fd =
        let rec go () =
          match recv_frame fd with
          | Error _ -> ()
          | Ok raw -> (
              match send_frame fd (handler raw) with
              | Error _ -> ()
              | Ok () -> go ())
        in
        go ();
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let rec accept_loop () =
        if not (Atomic.get stopping) then begin
          (match Unix.accept listen_fd with
          | conn, _ -> serve_conn conn
          | exception Unix.Unix_error _ -> Atomic.set stopping true);
          accept_loop ()
        end
      in
      let s_domain = Domain.spawn accept_loop in
      Ok { listen_fd; s_port = bound; stopping; s_domain }

let shutdown s =
  if not (Atomic.exchange s.stopping true) then begin
    (* [Unix.shutdown] (not a bare close) is what kicks a domain blocked
       in accept out of its wait on Linux. *)
    (try Unix.shutdown s.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close s.listen_fd with Unix.Unix_error _ -> ());
    Domain.join s.s_domain
  end

(* --- client --------------------------------------------------------- *)

type client = { fd : Unix.file_descr; mutable live : bool }

let connect ?(addr = "127.0.0.1") ~port () =
  Si_check.blocking ~kind:"socket" @@ fun () ->
  try
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
    Ok { fd; live = true }
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let transport c raw =
  if not c.live then Error "connection closed"
  else
    match send_frame c.fd raw with
    | Error _ as e ->
        c.live <- false;
        e
    | Ok () -> (
        match recv_frame c.fd with
        | Error _ as e ->
            c.live <- false;
            e
        | Ok _ as reply -> reply)

let close c =
  if c.live then begin
    c.live <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end
