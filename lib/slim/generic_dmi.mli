(** Automatically generated (interpreted) DMIs (paper §4.4 / §6 / [24]).

    "For SLIMPad, we generated the application data structures and DMI
    manually, based on the application model. We are working towards
    automatically generating specialized DMIs from data models."

    This module is that generator, in interpreted form: given any model
    defined over the metamodel, it provides the full
    create/read/update/delete surface that a hand-written DMI (like
    {!Dmi}) offers — with every operation checked at run time against the
    model's connectors (domain, range kind, range construct, maximum
    cardinality). What the hand-written DMI guarantees by construction,
    the generated one guarantees by interpretation; the benchmark group
    "ablation: generated vs hand-written DMI" measures the price.

    Minimum-cardinality constraints are intentionally not enforced during
    mutation (an object under construction is temporarily below minimum);
    they remain the job of {!Si_metamodel.Validate}. *)

type t

val for_model : Si_metamodel.Model.t -> t
(** Generates the DMI: {!Si_metamodel.Model.compile}, which looks up the
    model's constructs and the connectors each carries (inheritance
    resolved). The result snapshots the model as of this call — extend the
    model, then regenerate, exactly as with generated code. *)

val operations : t -> string list
(** The generated operation names, Fig 10 style: [Create_Bundle],
    [Update_Bundle_bundleName], [Delete_Bundle], … — one Create/Delete
    per construct, one Update per (construct, connector). Sorted. *)

(** {1 Instances} *)

val create : t -> string -> (string, string) result
(** [create g "Bundle"] makes a fresh instance of the named construct and
    returns its resource id. Fails on unknown constructs and on literal
    constructs (literals have no instances). *)

val delete : t -> string -> (int, string) result
(** Removes the instance (outgoing and incoming triples); returns how many
    triples went. Fails if the resource is not an instance of this model. *)

val instances : t -> string -> (string list, string) result
(** Instance ids of a construct, sorted. *)

val construct_of : t -> string -> string option
(** Name of the construct an instance belongs to. *)

(** {1 Properties} *)

val set : t -> string -> string -> Si_triple.Triple.obj ->
  (unit, string) result
(** [set g inst pred value] — functional update (replaces existing
    values). Checked: the predicate names a connector available on the
    instance's construct (directly or inherited), the value's kind matches
    the range (literal vs resource), and a resource value is typed by the
    range construct or a subconstruct. *)

val add : t -> string -> string -> Si_triple.Triple.obj ->
  (unit, string) result
(** Adds a value (multi-valued properties); additionally enforces the
    connector's maximum cardinality. *)

val unset : t -> string -> string -> (int, string) result
(** Removes all values of a property; returns how many. Checked like
    {!set}. *)

val get : t -> string -> string -> Si_triple.Triple.obj option
val get_all : t -> string -> string -> Si_triple.Triple.obj list
val get_literal : t -> string -> string -> string option
val get_resource : t -> string -> string -> string option
