(** The pad's persistence format: the WAL record stream that journals
    every change to a pad's triples, marks and DMI journal (paper
    §4.3–4.4), and the section layout of the binary snapshot that
    compaction cuts, replicas install and capture bundles extend. *)

(** {1 Record stream}

    One {!Si_wal.Record.encode_fields} record per change, tagged by its
    first field: ["+"]/["-"] subject predicate (["r"]|["l"]) value and
    ["x"] for triples, ["m+"]/["m-"] for marks, ["j"]/["jx"]/["jt"] for
    the journal. *)

type record =
  | Triple of Si_triple.Trim.op
  | Mark_put of Si_mark.Mark.t
  | Mark_removed of string  (** mark id *)
  | Journal_entry of Si_slim.Dmi.journal_entry
  | Journal_cleared
  | Journal_truncated_to of int  (** entries past this seq rolled back *)

val encode : record -> string

val decode : string -> (record, string) result
(** Recovery and [slimpad lint] both report the error text verbatim. *)

val apply : Si_slim.Dmi.t -> Si_mark.Manager.t -> record -> unit
(** Replay through the ordinary mutation entry points, so install
    {!observe} only after replay. *)

val observe :
  Si_slim.Dmi.t -> Si_mark.Manager.t -> (record -> unit) -> unit
(** Report every later change once, as the record that replays it
    (replaces the triple, mark and journal observers). *)

(** {1 Snapshot sections}

    A {!Si_wal.Binary} container: the TRIM [atoms] + [triples] sections,
    [marks] and [journal] sections holding the XML subtrees of the
    whole-file [<slimpad-store>] document (whose child elements share
    these names), and an optional [replication] watermark: (term, stream
    sequence number) when the snapshot was cut. Decoders ignore unknown
    sections, so a capture bundle loads as a snapshot. *)

val atoms_section : string
val triples_section : string
val marks_section : string
val journal_section : string
val watermark_section : string

val sections : Si_slim.Dmi.t -> Si_mark.Manager.t -> (string * string) list
(** [atoms], [triples], [marks], [journal], in that order. *)

val watermark_sections : (int * int) option -> (string * string) list

val watermark : (string * string) list -> (int * int) option
(** A malformed watermark reads as absent. *)

val restore :
  ?store:(module Si_triple.Store.S) ->
  Si_mark.Manager.t ->
  (string * string) list ->
  (Si_slim.Dmi.t, string) result
(** Rebuild the DMI and load the marks into the given manager. Missing
    [marks]/[journal] sections read as empty; a journal that fails to
    parse is dropped. *)
