(** The multi-client pad server.

    One accept domain feeds a bounded connection queue; a fixed pool of
    worker domains each service one connection at a time (the protocol
    is strict request/response, so concurrent clients = workers); one
    job-runner domain drains the background {!Jobq}. Reads run
    concurrently and take no lock: the pad's
    {!Si_triple.Store.Columnar_store}, the default store, answers each
    read from one published snapshot. Reads are {e replica aware}: with
    an attached [follower], queries go to it whenever
    {!Si_wal.Replica.fresh_enough} holds and fall back to the leader
    otherwise. Every mutation serializes through one writer lock and
    syncs the leader's WAL before the response.

    Backpressure is typed, never blocking: a full connection queue
    answers {!Proto.Overloaded} at accept, a full job queue at submit.
    A frame the transport or parser refuses gets one [Err] response and
    the connection is dropped.

    Observability: every request runs under an [Si_obs] span
    (layer ["server"]) and feeds the always-on ["server.request"] and
    per-op ["server.req.<op>"] latency histograms; gauges
    ["server.sessions"] and ["server.queue.depth"] track live
    connections and queued background jobs. *)

type config = {
  addr : string;  (** Listen address (default localhost). *)
  port : int;  (** 0 picks an ephemeral port — read it with {!port}. *)
  workers : int;  (** Worker-domain pool size, i.e. concurrent clients. *)
  pending_connections : int;  (** Accepted-but-unclaimed connection bound. *)
  job_capacity : int;  (** Background job queue bound per class. *)
  max_lag : int;
      (** Replica staleness bound (records) for read routing. *)
  workspace : string option;
      (** Workspace directory for capture/apply jobs: base documents
          are read from and restored into it ({!Si_bundle.Layout}).
          Without one, [Capture { with_bases = true }] packs no bases
          and [Apply] restores none. *)
}

val default_config : config
(** localhost, ephemeral port, 4 workers, 64 pending connections,
    8 queued jobs, [max_lag] 64, no workspace. *)

type t

val start :
  ?config:config ->
  ?follower:Si_slimpad.Slimpad.t * Si_wal.Replica.t ->
  Si_slimpad.Slimpad.t ->
  (t, string) result
(** Serve the leader pad. [follower] enables replica-aware reads: pass
    the replica application and its protocol endpoint (keep shipping to
    it — {!Si_slimpad.Slimpad.start_shipping} with [~async:true] pairs
    naturally). The leader should be journaled; without a WAL the
    server still runs, writes just have nothing to sync. Sets SIGPIPE
    to ignored for the process, so a peer that resets its socket drops
    only its own connection. *)

val port : t -> int

val shutdown : t -> unit
(** Initiate the stop sequence without blocking: close the listener,
    kick live connections, close the queues. Idempotent, safe from a
    signal handler's flag-polling loop. *)

val stopped : t -> bool
(** The stop sequence has been initiated (by {!shutdown}, {!stop}, or
    a client [Shutdown] request). *)

val stop : t -> unit
(** {!shutdown}, then join all domains. A client [Shutdown] request
    triggers the same sequence. *)

val wait : t -> unit
(** Block until the server stops (a client sent [Shutdown] or another
    thread called {!stop}). *)
