(** Si_lint: rule-based static analysis for superimposed stores.

    The paper's schema-later stance (§3, §5) means a SLIM store never
    refuses data: dangling mark handles, orphan scraps, containment
    cycles, and instances that drifted from the models they claim to
    conform to all accumulate silently. This engine audits a store —
    triples, metamodel, bundle-scrap structure, marks, and write-ahead
    log — without loading it through the GUI path, and without opening
    any base document: every rule is static.

    Each rule carries a stable code ([SL001]…); diagnostics point back
    at the offending triple, resource, mark, or WAL byte offset. A few
    defects are mechanically safe to repair ({!fix}): repairs go through
    {!Si_triple.Trim.transaction} so a journaled pad's WAL records them
    like any other mutation.

    {2 Rule catalog}

    Triple / metamodel layer:
    - [SL001] [duplicate-triple] (warning, fixable) — the persisted
      store file carries byte-identical [<t>] elements. In-memory
      stores are sets, so duplicates only arise in files (hand edits,
      bad merges); re-saving drops them.
    - [SL002] [dangling-connector] (error) — a resource typed
      [mm:Connector] whose domain or range does not resolve to a
      construct, or whose [mm:minCard]/[mm:maxCard] literal is not an
      integer. {!Si_metamodel.Model.compile} silently drops such
      connectors, so validation never sees properties under them.
    - [SL003] [generalization-cycle] (error) — a cycle in
      [rdfs:subClassOf] among constructs. Traversals are cycle-safe but
      the hierarchy is meaningless; one diagnostic per cycle.
    - [SL004] [conformance-violation] (warning) — batch
      {!Si_metamodel.Validate.check} over {e every} model in the store;
      one diagnostic per violation.

    Slimpad layer (bundle-scrap structure):
    - [SL101] [dangling-mark-handle] (error) — a MarkHandle whose
      [markId] names no mark in the Manager.
    - [SL102] [unreachable-bundle] (warning) — a bundle no pad's root
      reaches through [nestedBundle].
    - [SL103] [orphan-scrap] (warning) — a scrap no [bundleContent]
      triple references.
    - [SL104] [containment-cycle] (error) — a [nestedBundle] cycle;
      one diagnostic per cycle.
    - [SL105] [orphan-layout-triple] (warning, fixable) — a triple
      under a purely presentational predicate
      ({!Si_slim.Bundle_model.layout_predicates}) whose subject is not
      a typed instance; {!fix} garbage-collects them.

    Mark layer:
    - [SL201] [mark-address-malformed] (error) — a stored mark whose
      address fields fail its module's registered
      {!Si_mark.Manager.address_linter} (parse failure, duplicate or
      unknown fields).
    - [SL202] [mark-type-unsupported] (info) — a mark of a type no
      registered module handles; kept, but unresolvable here.
    - [SL203] [mark-quarantined] (warning) — a mark whose base source
      the {!Si_mark.Resilient} layer currently quarantines.

    WAL layer (offline, never replayed into a live store):
    - [SL301] [wal-corrupt] (error) — CRC failure mid-log, a bad file
      header, a corrupt snapshot, or a log generation ahead of its
      snapshot.
    - [SL302] [wal-torn-tail] (warning) — trailing bytes recovery
      would truncate (a crash mid-append).
    - [SL303] [wal-stale-log] (warning) — snapshot generation ahead of
      the log (interrupted compaction); the log's records are
      superseded.
    - [SL304] [wal-stream-inconsistency] (error) — a record that
      decodes under none of the three stream codecs (triple ops, marks,
      journal events), a journal sequence that is not monotone, or a
      snapshot whose contents do not decode (an XML payload that is not
      a [<slimpad-store>] document; a binary container whose triple
      sections are malformed).
    - [SL305] [wal-binary-snapshot] (error) — binary snapshot container
      damage verified offline from the header in: bad magic or
      unsupported version, truncated section framing, a section CRC
      mismatch, or a container without its atoms/triples sections.
    - [SL306] [wal-archive] (error) — shipping archive damage verified
      offline ({!Si_wal.Segment.verify}): per-file header or CRC
      failures, sequence gaps between segments no base snapshot
      bridges, and replication term regressions.

    Filesystem hygiene:
    - [SL307] [orphan-temp-file] (warning, fixable) — a
      {!Si_io.Io.temp_path} file left by an atomic save interrupted
      between write and rename. Loaders ignore the suffix, so the
      orphan is harmless but permanent; {!fix} deletes it.

    Capture bundles (offline, from the artifact's bytes alone):
    - [SL308] [bundle-malformed] (error) — capture-bundle damage
      verified by [Si_bundle.verify]: container magic/framing/section
      CRCs, a schema version outside the supported range, undecodable
      triple/mark/excerpt/report/base sections, an unsafe base file
      name, or a cached excerpt referring to a mark the bundle does
      not carry. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

type provenance =
  | In_triple of Si_triple.Triple.t  (** The offending triple itself. *)
  | In_resource of string  (** A resource id (instance, construct…). *)
  | In_mark of string  (** A mark id. *)
  | In_wal of { file : string; offset : int option }
      (** The WAL (or its snapshot); [offset] is the byte offset of the
          offending record's frame when known. *)
  | In_file of string  (** A persisted store file. *)

val provenance_to_string : provenance -> string

type diagnostic = {
  code : string;  (** Stable rule code, e.g. ["SL101"]. *)
  rule : string;  (** Rule name, e.g. ["dangling-mark-handle"]. *)
  severity : severity;
  message : string;
  provenance : provenance option;
  fixable : bool;  (** {!fix} can repair this mechanically. *)
}

(** {1 The analysis context}

    Every component is optional: rules that lack their inputs simply
    report nothing, so the same engine lints a live application, a bare
    store file, or an unopenable WAL. *)

type context

val context :
  ?dmi:Si_slim.Dmi.t ->
  ?marks:Si_mark.Manager.t ->
  ?resilient:Si_mark.Resilient.t ->
  ?raw_triples:Si_triple.Triple.t list ->
  ?store_file:string ->
  ?wal_path:string ->
  ?archive:string ->
  ?workspace:string ->
  ?bundle:string ->
  unit ->
  context
(** [dmi] supplies the live store (triple, metamodel, and slimpad
    rules); [marks] the mark manager (mark rules; [resilient] adds the
    quarantine rule); [raw_triples] the persisted file's triple list
    {e with duplicates preserved} ({!Si_triple.Trim.triples_of_xml}) for
    [SL001], with [store_file] naming it for provenance; [wal_path] the
    write-ahead log to verify offline; [archive] the shipping archive
    directory for [SL306]; [workspace] the workspace directory [SL307]
    scans for orphaned temp files (without it, the scan falls back to
    the would-be temps of [store_file] and [wal_path]); [bundle] a
    capture-bundle file [SL308] verifies offline. *)

(** {1 Rules}

    A rule is a named, coded check over the context. The registry comes
    preloaded with the built-in catalog; registering a custom rule makes
    every later {!run} include it. *)

type rule = {
  code : string;  (** Stable, unique, [SL]-prefixed by convention. *)
  rule_name : string;
  rule_severity : severity;  (** Severity its diagnostics carry. *)
  synopsis : string;  (** One line for catalogs and [--help]. *)
  check : context -> diagnostic list;
}

val builtin_rules : rule list
(** The catalog above, in code order. *)

val rules : unit -> rule list
(** The current registry, in code order. *)

val register_rule : rule -> (unit, string) result
(** Add a custom rule; fails on a duplicate code. *)

val find_rule : string -> rule option
(** Look up a registered rule by code. *)

val run : ?rules:rule list -> context -> diagnostic list
(** Run every rule (default: the registry) and return all diagnostics,
    sorted by code then provenance — a stable order for reporters and
    tests. *)

(** {1 Fixing}

    Only mechanically safe repairs: dropping exact duplicates a re-save
    eliminates anyway ([SL001]) and garbage-collecting orphaned layout
    triples ([SL105]). Everything else needs a human. *)

type fix_report = {
  removed_layout_triples : int;
      (** [SL105] triples removed from the live store, inside one
          {!Si_triple.Trim.transaction} — so a journaled pad's WAL
          records the removals. *)
  duplicate_triples : int;
      (** [SL001] duplicates observed in the persisted file. The
          in-memory store never held them; the caller persists the
          dedup by re-saving (whole-file) or compacting (journaled). *)
  removed_temp_files : int;
      (** [SL307] orphaned temp files deleted from disk. *)
}

val fix : context -> diagnostic list -> (fix_report, string) result
(** Apply the safe repairs for the fixable diagnostics in the list.
    Requires [dmi] in the context when [SL105] diagnostics are present;
    non-fixable diagnostics are ignored. *)

(** {1 Reporters} *)

val to_text : diagnostic list -> string
(** One line per diagnostic — [CODE severity rule-name: message
    (provenance)] — then a summary line. Stable across runs. *)

val to_json : diagnostic list -> string
(** A flat JSON array of flat objects (the bench convention): one
    [{"code", "rule", "severity", "message", "provenance", "fixable"}]
    object per diagnostic. *)

val summary : diagnostic list -> string
(** ["N error(s), N warning(s), N info"] — or ["no diagnostics"]. *)

val count : severity -> diagnostic list -> int

val max_severity : diagnostic list -> severity option
(** [None] on an empty list; otherwise the worst severity present. *)
