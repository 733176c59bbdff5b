(** Portable capture bundles: pads "in captivity", shipped as one file.

    The paper's bundles package superimposed information over base
    sources a reader may not hold; this module packages a whole pad —
    triples + metamodel, every mark module's marks, the
    mark-creation-time cached excerpts, optionally the base documents
    the marks address — into one deterministic, CRC-framed artifact
    for sharing, migration, and archival (paper §5 interoperability).

    {2 Format}

    A bundle {e is} a {!Si_wal.Binary} snapshot container (the PR 6
    codec: 8-byte magic, u32-le section count, per-section
    name/length/CRC framing) carrying the standard snapshot sections
    plus bundle-specific ones:

    {v
    offset 0   "SIBF\x00\x00\x00\x01"      container magic + version
    offset 8   u32-le section count
    per section:
      u32-le name length | name | u32-le payload length
      u32-le crc32(payload) | payload
    sections, in order:
      bundle-meta    Record fields ["sibundle"; version; workspace-id;
                     triples; marks; bases]
      atoms          snapshot-local atom table (Trim compact codec)
      triples        sorted triple rows over those atoms
      marks          <marks> XML (all modules, excerpts included)
      journal        <journal> XML (provenance; never applied)
      excerpts       Record fields [id; excerpt; id; excerpt; ...]
      report         Record fields [module; source; reason; ...]
                     (present only when capture recorded problems)
      replication    Record fields [term; seq] (present only when the
                     source pad has a replication watermark)
      base:<t>:<n>   Record fields [disk-file-name; contents], one per
                     captured base document, sorted by section name
                     (present only under --with-bases)
    v}

    Because the container and the [atoms]/[triples]/[marks]/[journal]/
    [replication] sections are exactly the WAL snapshot's — and
    snapshot decoding ignores unknown sections — a bundle doubles as
    the replication stack's snapshot-transfer format: it loads through
    {!Si_slimpad.Slimpad.of_snapshot_bytes}, installs into an archive
    as a restore base ({!to_archive}), and bootstraps a follower
    ({!Si_slimpad.Slimpad.open_replica}'s [bootstrap]).

    Triples are sorted and atom ids are section-local, so equal pads
    produce byte-identical [atoms]/[triples]/[marks] sections across
    processes, machines, and compiler versions ({!content_digest}).

    {2 Discipline}

    Capture is {e greedy}: a base document that fails to read is
    recorded in the capture report (and in the artifact's [report]
    section) but never aborts the artifact. Apply is {e conservative}:
    install-only — triples are added, marks are installed only under
    ids the target does not hold, nothing is overwritten; cached
    excerpts and base documents restore only on request; failures in
    one mark never block the rest. Applying through a journaled pad
    writes every install into the WAL, so a restore is crash-safe. *)

val schema_version : int
(** The version this build writes. *)

val min_schema_version : int
(** The oldest version this build still applies. *)

(** {1 Reports} *)

type problem = {
  p_module : string;  (** Mark module / subsystem that failed. *)
  p_source : string;  (** Base source, mark id, or section name. *)
  p_reason : string;
}

val problem_to_string : problem -> string
(** ["module: source: reason"]. *)

type capture_report = {
  captured_triples : int;
  captured_marks : int;
  captured_bases : int;
  capture_problems : problem list;
      (** Per-module failures (base documents that would not read);
          the artifact was still produced without them. *)
  captured_digest : string;
      (** The artifact's {!content_digest}, hashed from the sections
          capture encoded (or, from {!report_of}, decoded). *)
}

type apply_report = {
  added_triples : int;
  skipped_triples : int;  (** Already present in the target. *)
  installed_marks : int;
  skipped_marks : int;  (** Target already holds the id. *)
  restored_excerpts : int;
  restored_bases : int;
  skipped_bases : int;  (** Base file already present on disk. *)
  apply_problems : problem list;
}

(** {1 Base-document access}

    Capture and apply never touch the filesystem layout themselves;
    the caller supplies the mapping. {!Layout} provides the standard
    workspace one. *)

type base_reader =
  kind:string -> name:string -> (string * string, string) result
(** Read the base document a mark addresses: [kind] is the mark type,
    [name] the logical document name (the mark's [fileName] field).
    Returns [(disk file name, contents)]. *)

type base_writer =
  kind:string ->
  name:string ->
  filename:string ->
  string ->
  (bool, string) result
(** Restore a captured base document; [Ok false] means it was skipped
    (already present — apply never overwrites). *)

module Layout : sig
  val disk_name : kind:string -> name:string -> string
  (** The on-disk file name for a logical document: rich documents
      carry a serialization suffix ([.workbook.xml], [.doc.xml],
      [.slides.xml], [.pdf.xml]); text/HTML/XML names are already file
      names. *)

  val reader : dir:string -> base_reader
  val writer : dir:string -> base_writer
  (** Workspace-directory reader/writer. The writer refuses file names
      that are not plain basenames (a hostile bundle cannot escape the
      workspace) and skips files that already exist. *)
end

(** {1 Capture} *)

val capture :
  ?workspace_id:string ->
  ?bases:base_reader ->
  Si_slimpad.Slimpad.t ->
  string * capture_report
(** Package the pad: one deterministic artifact (the bytes) plus the
    report. [workspace_id] stamps the metadata section (default [""]);
    [bases] captures each distinct base document some mark addresses —
    read failures become report problems, never errors. Total. *)

val capture_to_file :
  ?workspace_id:string ->
  ?bases:base_reader ->
  Si_slimpad.Slimpad.t ->
  path:string ->
  (capture_report, string) result
(** {!capture}, then write the artifact atomically (temp + rename). *)

(** {1 Inspection} *)

type meta = {
  version : int;
  workspace_id : string;
  triple_count : int;
  mark_count : int;
  base_count : int;
  watermark : (int * int) option;  (** Replication [(term, seq)]. *)
}

val meta_of : string -> (meta, string) result
(** Decode the metadata of bundle bytes. Errors on container damage, a
    missing/malformed [bundle-meta] section, or a version outside
    [[min_schema_version, schema_version]]. *)

val report_of : string -> (capture_report, string) result
(** The capture report embedded in the artifact. Errors where
    {!content_digest} would: damage, or no atoms/triples/marks
    sections. *)

val verify : string -> problem list
(** Offline verification, never an exception and never a partial stop:
    container magic/framing/CRCs, schema-version range, section
    decodability (triples, marks, journal, excerpts, report, bases),
    and dangling excerpt entries naming marks the bundle does not
    carry. [[]] means clean. Powers lint rule SL308. *)

val content_digest : string -> (string, string) result
(** Hex digest over the [atoms]/[triples]/[marks] sections — the
    superimposed content, independent of metadata, journal history,
    watermark, and base payloads. Equal pads bundle to equal digests
    on any machine or compiler version. *)

val app_digest : Si_slimpad.Slimpad.t -> string
(** The {!content_digest} a capture of this pad would have — what a
    round-tripped workspace is compared against. *)

(** {1 Apply} *)

val apply :
  ?excerpts:bool ->
  ?bases:base_writer ->
  Si_slimpad.Slimpad.t ->
  string ->
  (apply_report, string) result
(** Install the bundle into the pad: every triple not already present
    is added, every mark under a fresh id is installed — through the
    pad's ordinary mutation path, so a journaled target writes each
    install to its WAL. [excerpts] (default [false]) restores the
    cached excerpts onto installed marks; without it they install
    blank and re-resolve from base documents on demand. [bases]
    restores captured base documents through the writer. The journal
    section is provenance only and is never applied. [Error] only on
    container/metadata damage; per-mark and per-base failures land in
    [apply_problems]. *)

val apply_file :
  ?excerpts:bool ->
  ?bases:base_writer ->
  Si_slimpad.Slimpad.t ->
  path:string ->
  (apply_report, string) result

(** {1 Replication integration} *)

val to_archive :
  archive:string -> string -> (Si_wal.Segment.base, string) result
(** Install bundle bytes into a shipping archive as a
    [base-<term>-<seq>.base] restore point at the bundle's replication
    watermark (at [(0, 0)] when it has none), creating the directory
    when missing. {!Si_wal.Segment.restore_plan} and
    {!Si_slimpad.Slimpad.restore_at} then treat the bundle exactly
    like a leader-cut base snapshot. *)

(** {1 File I/O} *)

val read_file : string -> (string, string) result
(** {!Si_io.Io.read_file}. *)

val write_file : path:string -> string -> (unit, string) result
(** {!Si_io.Io.write_atomic}: temp + rename, and on failure an [Error]
    with no target written and no temp left behind. *)
