(** Socket transport for WAL shipping (stdlib [Unix] only).

    Frames cross the wire exactly as {!Frame.encode} produced them —
    [u32-le length][u32-le crc][payload] — so both ends length-prefix
    reads and verify the checksum before anything reaches the protocol
    layer. The server runs its accept loop in a dedicated domain,
    services one connection at a time, and hands each frame to the
    handler (typically {!Replica.handle}); the leader keeps one
    persistent {!client} per follower. *)

(** {1 Frame I/O}

    The building blocks, exposed for other frame-based servers (the pad
    server pairs them with its own accept loop and worker pool). *)

val recv_frame : Unix.file_descr -> (string, string) result
(** Read one frame: 8-byte record header, then the payload, checksum
    verified. [Error] on close, short read, oversized length, or CRC
    mismatch — damage is caught here, before any protocol parsing. *)

val send_frame : Unix.file_descr -> string -> (unit, string) result
(** Write one already-encoded frame, handling short writes. *)

(** {1 Replication server} *)

type server

val serve :
  ?addr:string -> port:int -> (string -> string) -> (server, string) result
(** Listen on [addr] (default localhost) and [port] — 0 picks an
    ephemeral port, read it back with {!port}. Sets SIGPIPE to ignored
    for the process, so a peer that resets its socket drops only its
    own connection. *)

val port : server -> int

val shutdown : server -> unit
(** Close the listening socket and join the serving domain.
    Idempotent. *)

type client

val connect : ?addr:string -> port:int -> unit -> (client, string) result

val transport : client -> string -> (string, string) result
(** The {!Ship.transport} over this connection. Any socket failure
    marks the client dead; reconnect with {!connect}. *)

val close : client -> unit
