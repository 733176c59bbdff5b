(** Declarative queries over a triple manager — the paper's §6 plan of
    "augmenting such interfaces with query capabilities, in addition to the
    current navigational access".

    A query is a conjunction of triple patterns with shared variables
    (evaluated by nested index lookups, not cross products), plus literal
    filters and a projection:

    {v select ?name ?mark
       where {
         ?s <rdf:type> <model:bundle-scrap/Scrap> .
         ?s scrapName ?name .
         ?s scrapMark ?h .
         ?h markId ?mark
       }
       filter contains(?name, "Dopa") v}

    Terms: [?x] variable, [<id>] resource, ["text"] literal; a bare word in
    predicate position is the predicate name; [_] matches anything. *)

type term =
  | Var of string
  | Resource of string
  | Literal of string
  | Wildcard

type pattern = { subj : term; pred : term; obj : term }

type filter =
  | Equals of string * string        (** variable, literal value *)
  | Contains of string * string
  | Prefix of string * string
  | Bound_to_resource of string      (** variable is a resource *)

type order = Ascending of string | Descending of string
(** [order by ?v] / [order by ?v desc] — lexicographic on the variable's
    value (resources by id, literals by text; unbound sorts first). *)

type t = {
  select : string list;  (** projected variables, [[]] = all *)
  patterns : pattern list;
  filters : filter list;
  order_by : order option;
  limit : int option;
}

type binding = (string * Si_triple.Triple.obj) list
(** Variable name -> value, for the projected variables. *)

(** {1 Construction} *)

val query :
  ?select:string list -> ?filters:filter list -> ?order_by:order ->
  ?limit:int -> pattern list -> t
val pat : term -> term -> term -> pattern

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** The textual syntax above. [select] clause optional (defaults to all
    variables); patterns separated by [.]; multiple [filter] clauses; then
    optional [order by ?v \[desc\]] and [limit N]. *)

val parse_exn : string -> t
val to_string : t -> string

(** {1 Evaluation} *)

val optimize : Si_triple.Trim.t -> t -> t
(** Join reordering: evaluates patterns most-selective-first. Each
    pattern's true cardinality is read from the store's index bucket
    sizes ({!Si_triple.Trim.count_select} — no triple lists are
    materialized); at each step the optimizer prefers patterns whose
    variables are already bound by the patterns chosen so far (avoiding
    cross products). Semantics are unchanged — [run] yields the same
    bindings. *)

val run : Si_triple.Trim.t -> t -> binding list
(** Evaluates by streaming: patterns are joined depth-first with
    hashtable-backed bindings and hashtable duplicate elimination —
    intermediate results are never materialized as lists.

    Result order and truncation:
    - no [limit]: all distinct bindings, sorted by [order_by] when
      present, their natural order otherwise;
    - [order_by] + [limit n]: the first [n] bindings of the full sorted
      result, found by bounded top-[k] selection (memory O(n), not
      O(results));
    - [limit n] without [order_by]: evaluation stops as soon as [n]
      distinct bindings exist — the store is not enumerated further.
      {e Which} [n] bindings are returned is unspecified (they are some
      [n] of the full result, returned sorted); add [order_by] when a
      specific prefix is wanted. *)

val count : Si_triple.Trim.t -> t -> int
val binding_to_string : binding -> string

val contains_substring : string -> string -> bool
(** [contains_substring l s]: does [l] contain [s]? The test behind
    [filter contains(?v, s)], also used to search scrap labels.
    Allocates nothing. *)

val variables : t -> string list
(** All variables appearing in the patterns, sorted. *)
