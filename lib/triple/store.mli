(** Triple-store interface and its implementations.

    TRIM's storage layer. The paper's prototype favoured a lightweight
    structure ({!List_store}), kept here as the reference the other
    implementations are tested against. §6 reports that "some data sets
    are quite large and we are developing alternative implementation
    mechanisms" — {!Columnar_store} is that alternative: atom-interned
    int columns with per-field and subject+predicate / predicate+object
    pair indexes, so the hot bound-SP / bound-PO lookups resolve to an
    exact bucket. {!Sharded_columnar} spreads it over subject-hashed
    shards for concurrent multi-domain workloads. All implementations
    expose the same set semantics (duplicate triples are not stored
    twice). *)

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
      Order is unspecified. *)

  val count :
    ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t -> int
  (** [count ?subject ?predicate ?object_ t] is
      [List.length (select ?subject ?predicate ?object_ t)] without
      materializing the result list. {!Columnar_store} answers from
      bucket sizes; the query optimizer uses this for real cardinality
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

module Columnar_store : S
(** Triples stored column-wise as parallel int arrays over {!Atom} ids:
    subject / predicate / packed-object columns plus a canonical
    materialized row column. Single-field and pair indexes are
    int-keyed hashtables of row buckets, and every bucket carries an
    eager live count, so every indexed [count] is O(1) and
    every comparison on the select path is int equality over cache-dense
    arrays — the compact representation behind the E15 speedups.
    Removals tombstone rows; the store compacts itself when tombstones
    pass half the occupancy (counter and span [store.columnar.compact]).
    [of_packed_columns] takes ownership of the columns and fills the
    pre-sized primary set and single-field indexes in one pass — no
    growth doublings or rehashes — which is what makes binary snapshot
    recovery beat XML by the E15 margin.

    The two pair indexes are lazy. Only a [select] or [count] with
    subject and predicate bound, object free, or with predicate and
    object bound, subject free, builds them: both at once, in one pass
    over the live rows, with tables sized then for the live row count
    (counter [store.columnar.pair_build]). Every other combination
    answers from the single-field indexes or the primary set and never
    builds them. Once built they are maintained on every add and
    remove; compaction and [clear] drop them back to unbuilt. So a
    store loaded from a snapshot and only read by subject, like a
    recovered pad, never pays for them; its first pair-bound read pays
    the whole build.
    Single-domain; {!Sharded_columnar} shares it across domains. *)

module Sharded_columnar : S
(** A {!Columnar_store} per shard, subject-hashed, each shard behind its
    own mutex (lock class [store.shard]). Writes and subject-bound reads
    lock exactly one shard, so domains working on different subjects
    proceed in parallel instead of serializing on one global lock.
    Cross-shard reads (predicate- or object-bound [select] and [count],
    [size]) lock shards one at a time: each shard is observed
    atomically, the whole-store view is not. Locks never nest, so the
    store cannot deadlock. [of_packed_columns] partitions the rows by
    the same subject hash and bulk-loads each shard with
    {!Columnar_store}'s constructor. The name is ["sharded-columnar"]. *)

val implementations : (string * (module S)) list
(** [list], [columnar], and [sharded-columnar]. *)
