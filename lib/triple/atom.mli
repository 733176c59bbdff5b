(** Process-wide string interning: string ↔ int atom ids.

    The columnar store keys its columns and indexes on atom ids instead
    of strings, turning hot-path comparisons into int equality. The
    table only ever grows — ids are dense, starting at 0, and stay valid
    for the life of the process.

    Reads ([find], [to_string], [canon]) are lock-free: they load one
    immutable snapshot (published through an [Atomic.t]) and probe it,
    O(1) in both directions. Appends serialize on a private mutex.
    Racing a concurrent intern, a reader either sees the new atom or a
    miss — the same answers a serialized interleaving would give.

    Query and store {e read} paths must use {!find} (which never
    inserts): probing with a string that was never stored — as
    [Trim.new_id] does in a loop — must not grow the table. *)

val intern : string -> int
(** The atom id for this string, interning it first if needed. Counter
    [atom.intern] counts first-time internings. *)

val intern_all : string array -> int array
(** [Array.map intern], for recovery's whole atom table at once: each
    string is hashed once, and the strings not yet interned take the
    lock once, grow the table once and publish once. Duplicates within
    the array get one id; [atom.intern] counts first-time internings
    exactly as [intern] would. *)

val find : string -> int option
(** The atom id if the string has been interned, without interning it.
    The read-path lookup. *)

val to_string : int -> string
(** The string for an id, O(1) from the snapshot array. The result is
    the canonical instance: two [to_string] calls for the same id are
    physically equal.
    @raise Invalid_argument on an id never returned by {!intern}. *)

val strings : unit -> string array
(** The table itself, not a copy: entry [id] is [to_string id] for ids
    interned before the call. Read-only; a write would change the string
    every store returns for that id. *)

val canon : string -> string
(** The canonical interned instance when there is one, the argument
    itself otherwise. Comparing a canonicalized needle against store
    output hits [String.equal]'s physical-equality fast path. *)

val size : unit -> int
(** Number of atoms interned so far (= the next id to be assigned). *)
