(** The pad-serving wire protocol.

    Every message is a tagged field list ({!Si_wal.Record.encode_fields})
    framed with the WAL record discipline —
    [u32-le length][u32-le crc32(payload)][payload] — so the transport
    ({!Si_wal.Tcp.recv_frame}) rejects a mangled byte by checksum before
    any parsing, and the decoders below are total: undecodable input is
    an [Error], never an exception. Requests and responses are separate
    codecs; one connection carries one request frame out, one response
    frame back, repeated. *)

type priority = Interactive | Bulk
(** Scheduling class. [Interactive] requests are served ahead of
    [Bulk] background jobs — see {!Jobq}. *)

type pattern = {
  p_subject : string option;
  p_predicate : string option;
  p_object : Si_triple.Triple.obj option;
}
(** A triple selection: fix any subset of fields
    ({!Si_triple.Trim.select}). *)

val any : pattern
(** The all-wildcards pattern. *)

type job_kind =
  | Compact  (** WAL compaction on the served pad. *)
  | Checkpoint  (** Seal + fresh base in the shipping archive. *)
  | Lint  (** Run the lint catalog over the live pad. *)
  | Bulk_add of { count : int; predicate : string }
      (** Bulk import: [count] generated triples under [predicate],
          written in small batches so interactive writes interleave. *)
  | Capture of { path : string; with_bases : bool }
      (** Write a capture bundle of the served pad to [path] on the
          server's filesystem ([Si_bundle.capture_to_file]);
          [with_bases] packs base documents when the server has a
          workspace directory. *)
  | Apply of { path : string; strict : bool }
      (** Install the bundle at [path] into the served pad. [strict]
          rejects a bundle whose content lints with errors before
          touching the pad. *)

type request =
  | Ping
  | Open_pad of string  (** Attach (creating if absent) a pad by name. *)
  | Pads
  | Select of { pattern : pattern; limit : int }  (** [limit <= 0]: all. *)
  | Count of pattern
  | Query of string  (** {!Si_query.Query.parse} syntax. *)
  | Add of Si_triple.Triple.t
  | Remove of Si_triple.Triple.t
  | Resolve of { pad : string; scrap : string }
      (** Resolve the scrap's mark through the served pad. *)
  | Stats
  | Submit of { kind : job_kind; priority : priority }
  | Job_status of int
  | Shutdown

type job_state = Queued | Running | Done of string | Failed of string

type response =
  | Pong
  | Ok_done
  | Pad_list of string list
  | Triples of string list  (** Rendered rows, selection order. *)
  | Count_is of int
  | Rows of string list  (** Rendered query bindings. *)
  | Resolved of string
  | Stats_json of string
  | Accepted of int  (** Job id to poll with [Job_status]. *)
  | Job of { job : int; state : job_state }
  | Overloaded of string
      (** Typed backpressure: the bounded queue is full; retry later.
          The server never blocks an accepting connection on queue
          space. *)
  | Err of string
  | Closing

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val request_op : request -> string
(** Short stable operation name, the metric suffix in
    ["server.req.<op>"]. *)

val request_kind : request -> int
(** The request's position in {!request_ops}. *)

val request_ops : string array
(** Every {!request_op}, indexed by {!request_kind}. *)
