(** The SLIMPad application (paper §3, Fig 4).

    Binds the three architecture components together: the SLIM store
    (through the Bundle-Scrap {!Si_slim.Dmi}), the {!Si_mark.Manager}, and
    the {!Si_mark.Desktop} of base applications. Operations correspond to
    user gestures: create a pad, drop a selection onto it as a scrap
    ("creating a digital sticky-note, which comes with a digital wire"),
    double-click a scrap to re-establish its context, annotate, link,
    rearrange.

    The pad renders as text — this build's stand-in for the Fig 4 window;
    layout positions are preserved and shown, but not rasterized. *)

type t

val create :
  ?store:(module Si_triple.Store.S) ->
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  Si_mark.Desktop.t -> t
(** A fresh application over the given desktop: new SLIM store, new mark
    manager with the desktop's seven mark modules installed. [resilient]
    supplies the breaker/retry policy guarding base-source access
    (default {!Si_mark.Resilient.create}[ ()]); [wrap] interposes on
    every document opener — fault injection plugs in here. *)

val dmi : t -> Si_slim.Dmi.t
val marks : t -> Si_mark.Manager.t
val desktop : t -> Si_mark.Desktop.t
val resilient : t -> Si_mark.Resilient.t

(** {1 Pads, bundles, scraps} *)

val new_pad : t -> string -> Si_slim.Dmi.pad

val add_bundle :
  t -> parent:Si_slim.Dmi.bundle -> name:string ->
  ?pos:Si_slim.Dmi.coordinate -> unit -> Si_slim.Dmi.bundle

val add_scrap :
  t -> parent:Si_slim.Dmi.bundle -> name:string -> mark_type:string ->
  fields:(string * string) list -> ?pos:Si_slim.Dmi.coordinate -> unit ->
  (Si_slim.Dmi.scrap, string) result
(** Creates the mark with the Mark Manager (validating the address and
    caching the excerpt), then the scrap holding its MarkHandle. The
    scrap's label defaults to the mark's excerpt when [name] is [""] —
    "a scrap's label and its mark's content may differ" but start equal. *)

val scrap_mark : t -> Si_slim.Dmi.scrap -> Si_mark.Mark.t option

(** {1 Resolution gestures (Fig 4, Fig 6)} *)

val double_click : t -> Si_slim.Dmi.scrap -> (Si_mark.Mark.resolution, string) result
(** "By clicking on the scrap, the mark is de-referenced and the original
    information source … is displayed with the appropriate
    [element] highlighted." *)

val scrap_content : t -> Si_slim.Dmi.scrap -> (string, string) result
(** The §6 "extract content" behaviour. *)

val scrap_in_place : t -> Si_slim.Dmi.scrap -> (string, string) result
(** The §6 "display in place" behaviour (independent viewing). *)

val resolve_scrap :
  t -> Si_slim.Dmi.scrap ->
  (Si_mark.Resilient.outcome, Si_mark.Manager.resolve_error) result
(** The managed resolution path: breaker-guarded and retried, degrading
    to the mark's cached excerpt ({!Si_mark.Resilient.Degraded}) when the
    base source stays away. [Error] is reserved for marks that cannot be
    attempted at all (unknown id, no module for the type). *)

(** {1 Consistency with the base layer} *)

val drift_report :
  t -> Si_slim.Dmi.pad -> (Si_slim.Dmi.scrap * Si_mark.Manager.drift) list
(** Every scrap of the pad whose base element changed or vanished
    (unchanged scraps are omitted). *)

val refresh_pad : t -> Si_slim.Dmi.pad -> int
(** Re-caches excerpts for all resolvable marks of the pad; returns how
    many were stale. Degraded and quarantined scraps keep their cached
    excerpt — a base-source outage never erases good data. *)

type pad_health = {
  fresh : int;  (** resolved against the live base source *)
  degraded : int;  (** served from the cached excerpt *)
  quarantined : int;  (** unresolvable across a whole probe window *)
  dangling : int;  (** scrap points at no stored mark *)
}

val pad_health : t -> Si_slim.Dmi.pad -> pad_health
(** One resolution sweep over the pad, bucketed by outcome. *)

val health : t -> Si_mark.Resilient.breaker_info list
(** Per-base-source circuit-breaker state, sorted by source. *)

(** {1 Search & query} *)

val find_scraps : t -> Si_slim.Dmi.pad -> string -> Si_slim.Dmi.scrap list
(** Scraps of the pad whose label contains the needle, in the order of a
    pre-order walk of the pad's bundle tree: each bundle's own scraps
    before its nested bundles, both in creation order, and one entry for
    each path from the root that holds the scrap. A resolve takes the
    first entry. A non-empty needle costs one scan of every scrap name
    in the store plus work per match while few names match, and one
    walk of the tree when many do ({!Si_slim.Dmi.scraps_named}); the
    empty needle matches every scrap and walks the whole tree. *)

val query : t -> string -> (string list, string) result
(** Run a {!Si_query.Query} text query against the SLIM store; returns
    rendered bindings. *)

(** {1 Rendering} *)

val render_pad : t -> Si_slim.Dmi.pad -> string
(** Tree rendering: bundles and scraps with positions, mark sources,
    annotations, then the pad's links. *)

val render_scrap_line : t -> Si_slim.Dmi.scrap -> string

val render_pad_html : t -> Si_slim.Dmi.pad -> string
(** A self-contained HTML page of the pad with bundles and scraps
    absolutely positioned at their stored 2-D coordinates — the closest
    this build gets to the Fig 4 window. Scraps carry their mark source
    and current excerpt as hover titles; annotations render as side
    notes. *)

(** {1 Persistence}

    One XML file holds both the superimposed information (triples) and the
    marks, so a pad reloads whole. *)

val save : t -> string -> (unit, string) result
(** Crash-safe: written via a temp file renamed into place
    ({!Si_io.Io.write_atomic}); a crash mid-write never leaves a torn
    store file behind. *)

val load :
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  Si_mark.Desktop.t -> string -> (t, string) result

(** {1 Sharing}

    §2: "sharing bundles to establish collectively maintained, situated
    awareness". Importing copies a pad from another store file into this
    application: bundles, scraps, annotations, links, decorations, and the
    marks they reference all get fresh ids here, so repeated imports and
    id collisions are impossible. The source file is not modified. *)

val import_pad :
  t -> from_file:string -> ?pad_name:string -> ?rename:string -> unit ->
  (Si_slim.Dmi.pad, string) result
(** [pad_name] selects which pad of the file to import (default: its
    first); [rename] names the copy (default: "<original> (imported)").
    Marks whose types this desktop does not support still import (they
    fail only on resolution, like any unsupported mark). *)

(** {1 Journaled persistence (write-ahead log)}

    The incremental alternative to {!save}: every mutation — triple
    operations, mark changes, journal events — is appended to a
    {!Si_wal.Log} as it happens, so persisting is O(changes), not
    O(pad size). One log interleaves the three record streams, and
    compaction cuts a binary snapshot; {!Pad_format} owns both formats.
    A log whose last snapshot is a pre-binary [<slimpad-store>]
    document ({!save}'s format) still recovers. *)

type persistence = Whole_file | Journaled

val persistence : t -> persistence
(** Which path {e this} application persists through. [create] and
    [load] give [Whole_file]; [open_wal] and [enable_wal] switch to
    [Journaled]. *)

type wal_recovery = {
  replayed : int;  (** Tail records applied on top of the snapshot. *)
  truncated_bytes : int;  (** Torn-tail bytes dropped during recovery. *)
  reset_log : bool;
      (** A log made stale by an interrupted compaction was discarded. *)
  from_snapshot : bool;
}

val open_wal :
  ?store:(module Si_triple.Store.S) ->
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  ?policy:Si_wal.Log.sync_policy ->
  ?on_warning:(string -> unit) ->
  Si_mark.Desktop.t -> string -> (t * wal_recovery, string) result
(** Open (creating if absent) a journaled pad at the given WAL path:
    recover [snapshot + tail], then journal every further mutation.
    Mid-log corruption or an undecodable record is a hard error — never
    a silent partial replay.

    Recovery anomalies that are survivable (a torn tail dropped, a log
    superseded by its snapshot) are reported through [on_warning] — the
    library never writes to stderr itself — and always counted in the
    ["slimpad.recovery_warning"] {!Si_obs} counter, so they stay visible
    even when no callback is installed. *)

type offline_restore = {
  restored : int;  (** Dump records applied on top of the snapshot. *)
  skipped : int;
      (** Records that failed to apply, or — for a stale log — every
          record, since recovery would discard them all. *)
}

val restore_offline :
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  Si_mark.Desktop.t ->
  Si_wal.Log.dump -> (t * offline_restore, string) result
(** Rebuild an application from {!Si_wal.Log.dump} without opening the
    log: the files on disk are untouched (no torn-tail truncation, no
    generation reset), no hooks are installed, and the result persists
    as [Whole_file]. Unlike {!open_wal}, a record that fails to apply
    is skipped, not fatal — static analysis ({!Si_lint}) wants the best
    reconstructable state plus the damage reported separately. Fails
    only when the snapshot payload itself cannot be parsed. *)

val enable_wal : ?policy:Si_wal.Log.sync_policy -> t -> string -> (unit, string) result
(** Convert a whole-file application to journaled persistence: cut a
    snapshot of the current state at the given WAL path and start
    journaling. Fails if a log already exists there. *)

val wal_sync : t -> (unit, string) result
(** Flush batched records; on success everything acknowledged so far
    survives a process crash. Also surfaces any append error since the
    last call (appends happen inside observer hooks and cannot return
    one directly). *)

val wal_compact : t -> (unit, string) result
(** Cut a fresh snapshot and truncate the log. Idempotent with respect
    to the recovered state. *)

val wal_close : t -> (unit, string) result
(** Flush and close the log; the application reverts to [Whole_file]. *)

val wal : t -> Si_wal.Log.t option

(** {1 Replication}

    WAL shipping: a journaled pad can lead ({!start_shipping}) —
    numbering every accepted record into a replication stream, sealing
    them into an archive of segments ({!Si_wal.Segment}), and pushing
    them to attached followers — or follow ({!open_replica}), applying
    the leader's records through the same journaled facade, one local
    record per shipped record, so an Ack always means "durable on this
    replica".

    The stream position [(term, seq)] is persisted as one more section
    inside the WAL's binary snapshot, exactly as atomic as compaction:
    after a restart the pad resumes numbering at [seq + records since
    the snapshot] and never reuses a sequence number it ever assigned.
    Failover is {!promote_replica}: bump the term past every leader
    this replica has seen and start shipping from its applied prefix —
    the deposed leader is answered [Fenced] from then on. Retained
    archive files enable point-in-time recovery ({!restore_at}). *)

val start_shipping :
  ?segment_records:int ->
  ?term:int ->
  ?async:bool ->
  t -> archive:string -> (unit, string) result
(** Start leading: sync the local log, resume the stream position from
    persisted metadata (falling back to the archive), persist it, and
    cut a base snapshot into [archive] for follower catch-up and
    restores. [segment_records] is the archive seal threshold
    ({!Si_wal.Ship.create}). Requires journaled mode.

    [async] (default [false]) moves pushing off the writer: each teed
    record bumps a bounded wake-up counter and a dedicated background
    domain runs the sync-then-push rounds, so appends never wait on
    follower I/O. Ack semantics are unchanged — a round still syncs
    the local log before pushing — and the ["wal.ship.lag"] gauge is
    still refreshed every round. Round errors surface as WAL trouble
    on the next journaled operation. {!stop_shipping} drains and joins
    the domain. *)

val ship : t -> (unit, string) result
(** Sync the local log, then push records until every follower is
    caught up or its retry budget is spent. [Error] when fenced by a
    newer leader (or not shipping). In async mode this forces an
    immediate round, serialized with the background domain's. *)

val shipping_async : t -> bool
(** Whether a background shipping domain is running. *)

val ship_heartbeat : t -> (unit, string) result
(** Refresh follower staleness bounds and discover fencing without
    shipping records. *)

val ship_checkpoint : t -> (unit, string) result
(** Seal the open segment buffer and cut a fresh base snapshot — a
    complete archive restore point; follower catch-up can jump to it
    past any older archive file that has since been damaged. *)

val attach_follower :
  t -> name:string -> Si_wal.Ship.transport -> (unit, string) result

val detach_follower : t -> string -> unit

val stop_shipping : t -> (unit, string) result
(** Seal the open buffer, record the final stream position, and remove
    the log tee. The archive stays. *)

val shipper : t -> Si_wal.Ship.t option

val open_replica :
  ?store:(module Si_triple.Store.S) ->
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  ?max_pending:int ->
  ?on_warning:(string -> unit) ->
  ?bootstrap:string ->
  Si_mark.Desktop.t -> string -> (t * wal_recovery, string) result
(** Open (creating or resuming) a follower pad journaled at the given
    WAL path — always [Immediate] sync, so acknowledging a record means
    it is durable here. Serve its {!Si_wal.Replica} (see {!replica})
    through any transport; reads go through the ordinary accessors,
    gated by {!Si_wal.Replica.fresh_enough} for bounded staleness. The
    pad must not be mutated directly while following (hook-driven
    journaling is suspended); an existing WAL without replication
    metadata is refused.

    [bootstrap] seeds a {e fresh} replica from a snapshot payload — any
    {!Si_wal.Binary} snapshot container, which a capture bundle
    ([Si_bundle]) is — installing its state and its replication
    [(term, seq)] watermark exactly as a leader-pushed base snapshot
    would, so a follower comes up from a shipped file and the leader's
    catch-up starts past the bundle's watermark. A payload without a
    replication section bootstraps at [(0, 0)]. Refused when the
    replica already has history: bootstrapping over an existing prefix
    would fork the stream. *)

val replica : t -> Si_wal.Replica.t option

val promote_replica :
  ?segment_records:int -> t -> archive:string -> (int, string) result
(** Failover: bump the term past every leader this replica has seen,
    persist it, re-enable local journaling, and {!start_shipping} into
    [archive] from the applied prefix. Returns the new term; the old
    leader's next frame is answered [Fenced]. *)

val restore_at :
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  Si_mark.Desktop.t ->
  archive:string -> at:int -> (t * int, string) result
(** Point-in-time recovery from a shipping archive: replay the newest
    base at or before [at] plus the sealed segments up to it. Returns
    the rebuilt application ([Whole_file], files untouched) and the
    sequence number actually reached. Errors when the archive cannot
    cover [at] ({!Si_wal.Segment.restore_plan}) or a record fails to
    apply. *)

val snapshot_bytes : t -> string
(** The binary snapshot of the current state ({!Si_wal.Binary}
    container, no replication section) — what {!restore_at} should
    reproduce byte-for-byte at the corresponding cut point. *)

val of_snapshot_bytes :
  ?resilient:Si_mark.Resilient.t ->
  ?wrap:Si_mark.Desktop.opener_wrap ->
  Si_mark.Desktop.t -> string -> (t, string) result
(** Rebuild an application from a snapshot payload — the exact decoder
    recovery and replica installation use, so any {!Si_wal.Binary}
    snapshot container (a WAL snapshot, an archive base, a capture
    bundle) loads; unknown sections are ignored and a pre-binary XML
    [<slimpad-store>] payload still parses. The result is [Whole_file]
    with no hooks installed. *)

val rep_meta : t -> (int * int) option
(** The replication stream position [(term, seq)] to persist right
    now: exact from a live shipper or replica, otherwise the recovered
    basis advanced past every record appended since its snapshot.
    [None] for a pad that never replicated. *)

val snapshot_meta : string -> (int * int) option
(** The replication [(term, seq)] watermark carried by a snapshot
    payload's replication section, if any. *)

(** {1 Observability}

    The whole stack (triple store, query executor, mark manager,
    resilient layer, WAL) is instrumented through {!Si_obs}: counters
    run unconditionally, latency histograms and spans only while
    tracing is enabled. These are thin conveniences over the
    {!Si_obs.Registry} for hosts (the CLI, the TUI) that want the
    numbers without depending on the registry directly. *)

val stats : unit -> Si_obs.Registry.snapshot
(** Current counters and latency histograms across every layer. *)

val stats_text : unit -> string
(** {!stats} rendered as aligned text tables. *)

val stats_json : unit -> string
(** {!stats} rendered as pretty-printed JSON; round-trips through
    {!Si_obs.Report.of_json}. *)

val reset_stats : unit -> unit

val with_tracing : (unit -> 'a) -> 'a * Si_obs.Span.finished list
(** Run the thunk with span tracing enabled, then return its result
    together with the spans it produced (tracing is switched back off
    and the span buffer drained, even on exceptions). *)
