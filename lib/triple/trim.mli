(** TRIM — the Triple Manager (paper §4.4).

    "To manage triples, we use the TRIM (Triple Manager) sub-component,
    which handles basic operations over the triple representation. Through
    TRIM, the DMI can create, remove, persist (through XML files), query,
    and create simple views over the underlying triples."

    A [Trim.t] wraps one of the {!Store} implementations (chosen at
    creation) and adds id generation, reachability views and XML
    persistence. *)

type t

val create : ?store:(module Store.S) -> unit -> t
(** Defaults to {!Store.Columnar_store} — the atom-interned compact
    representation. Pass {!Store.List_store} for the paper's
    small-footprint prototype choice; semantics are identical (the
    conformance suite holds every implementation to the same answers). *)

val store_name : t -> string

(** {1 Basic operations} *)

val add : t -> Triple.t -> bool
val remove : t -> Triple.t -> bool
val mem : t -> Triple.t -> bool
val size : t -> int
val clear : t -> unit
val to_list : t -> Triple.t list
(** Every triple: the store's unbound selection. *)

val add_all : t -> Triple.t list -> unit

val select :
  ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t ->
  Triple.t list
(** Selection query: fix one or more fields. *)

val count_select :
  ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t -> int
(** [count_select ... t] is [List.length (select ... t)] without
    materializing the triples — indexed stores answer from bucket sizes.
    Used by {!Si_query.Query.optimize} for real cardinality estimates. *)

val exists :
  ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t -> bool
(** [exists ... t] is [count_select ... t > 0]: no result list is
    allocated. [exists ~subject] is the emptiness probe {!new_id}
    uses. *)

val object_of : t -> subject:string -> predicate:string -> Triple.obj option
(** Convenience: the object of the (unique) matching triple; [None] when
    absent, the first one when several match. *)

val literal_of : t -> subject:string -> predicate:string -> string option
val resource_of : t -> subject:string -> predicate:string -> string option
val objects_of : t -> subject:string -> predicate:string -> Triple.obj list

val set : t -> subject:string -> predicate:string -> Triple.obj -> unit
(** Functional-property update: removes existing triples with this subject
    and predicate, then adds the new one. *)

val remove_subject : t -> string -> int
(** Remove every triple whose subject is the resource; returns how many. *)

(** {1 Transactions}

    Multi-triple updates (a DMI operation touches several triples) can be
    made all-or-nothing: inside [transaction], every [add]/[remove] on
    this manager is recorded, and if the body returns [Error] or raises,
    the store is rolled back to its state at entry. *)

val transaction :
  t -> (unit -> ('a, 'e) result) -> (('a, 'e) result, exn) result
(** [Ok (Ok v)] — committed; [Ok (Error e)] — body failed, rolled back;
    [Error exn] — body raised, rolled back (the exception is returned,
    not re-raised). Transactions do not nest:
    @raise Invalid_argument when called inside an active transaction. *)

val in_transaction : t -> bool

(** {1 Mutation observation}

    The hook behind journaled persistence (the slimpad WAL mode, whose
    record codec is [Si_slimpad.Pad_format]): every effective store
    mutation — through any public entry point, including transaction rollbacks (which emit the inverse
    operations) and [add_all] — is reported exactly once, after it has
    been applied. No-op calls (adding a present triple, removing an
    absent one) are not reported. *)

type op =
  | Op_add of Triple.t
  | Op_remove of Triple.t
  | Op_clear  (** The store was emptied wholesale. *)

val on_mutate : t -> (op -> unit) -> unit
(** Install the observer (at most one; a second call replaces the
    first). The observer must not mutate this manager. *)

(** {1 Id generation} *)

val new_id : ?prefix:string -> t -> string
(** Fresh resource id, unique within this manager (and not currently a
    subject in the store). Default prefix ["r"]. *)

(** {1 Views}

    "A view is specified by selecting a resource (such as a Bundle id),
    where all triples that can be reached from this resource are
    returned." *)

val view : t -> string -> Triple.t list
(** All triples reachable from the resource: its own triples, plus
    (transitively) the triples of every resource appearing as an object.
    Cycle-safe. Order: breadth-first from the root. *)

val reachable_resources : t -> string -> string list
(** The resources visited by {!view}, root first, breadth-first. *)

(** {1 Introspection} *)

val subjects : t -> string list
(** Distinct subjects, sorted. *)

val predicates : t -> string list
(** Distinct predicates, sorted. *)

(** {1 Persistence (XML files, as in the paper)} *)

val to_xml : t -> Si_xmlk.Node.t
val of_xml : ?store:(module Store.S) -> Si_xmlk.Node.t -> (t, string) result

val triples_of_xml : Si_xmlk.Node.t -> (Triple.t list, string) result
(** The raw triple list of a [<triples>] element, in document order and
    {e preserving duplicates} — unlike {!of_xml}, which loads into a
    store and therefore dedups. Lint uses this to spot duplicate triples
    in persisted files. *)

val save : t -> string -> (unit, string) result
(** Crash-safe: written via a temp file renamed into place
    ({!Si_io.Io.write_atomic}); a crash mid-write never leaves a torn
    store file. I/O trouble is an [Error], not an exception. *)

val load : string -> (t, string) result

(** {1 Binary persistence (the compact hot-path format)}

    XML stays the export/interop format; WAL snapshots default to this
    binary form — a {!Si_wal.Binary} container holding an [atoms]
    section (a snapshot-local string table: ids are positions within
    the section, independent of the process-wide {!Atom} table) and a
    [triples] section of three u32 columns per row, objects packed as
    [local_id * 2 + tag] (tag 1 = literal). Triples are sorted as in
    {!to_xml}, so equal stores produce equal bytes. *)

val to_binary : t -> string
(** The full container: header plus [atoms] and [triples] sections. *)

val of_binary : string -> (t, string) result
(** Inverse of {!to_binary}. Any malformation — bad container, a
    section missing, an atom id out of range, a short row — is an
    [Error], never a partial load. *)

val atoms_section : string
val triples_section : string
(** The names of the two sections. *)

val binary_sections : t -> (string * string) list
(** The [(name, payload)] sections {!to_binary} frames — exposed so
    composite snapshots (the slimpad WAL, capture bundles) can append
    their own sections to the same container. *)

val of_binary_sections :
  ?store:(module Store.S) -> (string * string) list -> (t, string) result
(** {!of_binary} over an already-decoded container (other sections are
    ignored), into [?store] (default {!Store.Columnar_store}). Every
    store is built the same way: the rows are validated and decoded to
    interned columns, then handed to {!Store.S.of_packed_columns}. *)

val triples_of_binary_sections :
  (string * string) list -> (Triple.t list, string) result
(** The raw row list of the [atoms] + [triples] sections, in stored
    order, without loading a store. Offline tooling (lint, bundle
    verification) uses this. *)

val equal_contents : t -> t -> bool
(** Same triple set, regardless of store implementation. *)
