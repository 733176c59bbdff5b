(** Triple-store interface and its implementations.

    TRIM's storage layer. The paper's prototype favoured a lightweight
    structure ({!List_store}), kept here as the reference the other
    implementation is tested against. §6 reports that "some data sets
    are quite large and we are developing alternative implementation
    mechanisms" — {!Columnar_store} is that alternative: a packed,
    read-only base of atom-id columns with CSR indexes, a small delta of
    the writes since, and reads that take no lock. It is the store every
    pad runs, the served one included. Both implementations expose the
    same set semantics (duplicate triples are not stored twice). *)

module type S = sig
  type t

  val create : unit -> t
  val name : string
  (** Implementation name, for benchmarks and logs. *)

  val add : t -> Triple.t -> bool
  (** [false] when the triple was already present. *)

  val remove : t -> Triple.t -> bool
  (** [false] when the triple was absent. *)

  val mem : t -> Triple.t -> bool
  val size : t -> int
  val clear : t -> unit

  val select :
    ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t ->
    Triple.t list
  (** The paper's TRIM query: "selection, where one or more of the triple
      fields is fixed, and the result is a set of triples". With no field
      fixed, returns everything — the one way to enumerate a store.
      When a field is fixed, rows come newest first: [Trim.object_of]
      and the model install read the first row of a bound select. The
      order of an unbound select is unspecified. *)

  val count :
    ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t -> int
  (** [count ?subject ?predicate ?object_ t] is
      [List.length (select ?subject ?predicate ?object_ t)] without
      materializing the result list. {!Columnar_store} answers from
      run lengths; the query optimizer uses this for real cardinality
      estimates, and [count ... > 0] is the emptiness probe. *)

  val of_packed_columns : int array -> int array -> int array -> t
  (** [of_packed_columns subs preds objs] is the bulk constructor every
      snapshot load goes through: three equal-length columns of
      already-interned {!Atom} ids — subject, predicate, and the object
      packed as [id * 2 + tag] (tag 1 = literal). The store may take
      ownership of the arrays (callers must not reuse them). Duplicate
      rows are dropped; the resulting store answers exactly as one
      filled by [add]ing the rows in order.
      @raise Invalid_argument when the column lengths differ. *)
end

module List_store : S
(** Unindexed, list-backed. O(n) everything; tiny footprint — the
    "keep it lightweight" choice for small superimposed layers. *)

module Columnar_store : sig
  include S

  val version : t -> int
  (** Effective writes (changing adds and removes, and clears) since
      creation. A read that sees one version before and after it
      answered as the store stood at that version. *)
end
(** A read-only packed {e base} — {!Atom}-id columns, and per field a
    CSR index (a hashed key table, sorted keys, offsets, rows newest
    first) built by counting-sort passes, plus each subject's rows by
    predicate and each predicate's rows by object, so pair-bound reads
    binary-search one run — and a {e delta} of the writes since: rows,
    hashed chains of adds and removals with net counts per field and per
    subject+predicate, and tombstones on base rows. Most counts are a run
    length plus a net count. No read builds an index, and the base keeps
    no per-row [Triple.t]. Compaction (counter and span
    [store.columnar.compact]) folds the delta into a new base once the
    delta's rows pass 32,768 and a quarter of the base, or removed rows
    pass 64 and half the live ones. Readers take no lock: each loads the
    snapshot a single [Atomic.t] publishes and answers at its version.
    Writes serialize on one mutex per store (lock class [store.writer]). *)

module Sharded_columnar = Columnar_store
(** The former sharded store's name, an alias. *)

val implementations : (string * (module S)) list
(** [list] and [columnar]. *)
