(** Data-model definition over the metamodel (paper §4.3).

    "SLIM thus contains data-model-definition capability, in addition to
    the normal schema-definition capability of a data manager." A model is
    a set of {e constructs} (units of structure), {e literal constructs}
    (primitive types), {e mark constructs} (delineating marks), and
    {e connectors} (relationships between constructs, with cardinality).
    Generalization and conformance connectors relate constructs to each
    other and instances to types.

    Everything a model says is stored as triples in a {!Si_triple.Trim.t},
    using the RDFS-style vocabulary of {!Vocab} — the model is itself data,
    explicit and queryable, which is what lets SLIM host many superimposed
    models side by side. *)

type t
(** A handle on a model inside a triple manager. *)

type construct_kind = Construct | Literal_construct | Mark_construct

type construct = private { construct_id : string; kind : construct_kind }

type cardinality = { min_card : int; max_card : int option }
(** [max_card = None] means unbounded. *)

type connector = private {
  connector_id : string;
  conn_predicate : string;
  conn_domain : construct;
  conn_range : construct;
  card : cardinality;
}

val any_card : cardinality
(** [0..*] *)

val optional_card : cardinality
(** [0..1] *)

val one_card : cardinality
(** [1..1] *)

val at_least_one : cardinality
(** [1..*] *)

(** {1 Models} *)

val define : Si_triple.Trim.t -> name:string -> t
(** Creates the model resource (idempotent: returns the existing model of
    that name if already defined).

    [define], [find], [construct] and its siblings, and [connect] read
    each model resource (the model, a construct, a connector) with one
    subject-bound select and pick its predicates out of that list, so
    installing a model into a large recovered store, as
    [Si_slim.Bundle_model.install] does at every open, costs one select
    per resource. *)

val find : Si_triple.Trim.t -> name:string -> t option
val all : Si_triple.Trim.t -> t list
val name : t -> string
val id : t -> string
val trim : t -> Si_triple.Trim.t

(** {1 Constructs} *)

val construct : t -> string -> construct
(** Create (idempotently) a construct with the given name. *)

val literal_construct : t -> string -> construct
val mark_construct : t -> string -> construct
val find_construct : t -> string -> construct option
val construct_name : t -> construct -> string

(** {1 Connectors} *)

val connect :
  t -> name:string -> from_:construct -> to_:construct ->
  ?card:cardinality -> unit -> connector
(** Declares that instances of [from_] may carry property [name] whose
    values are instances of [to_] (or literals, if [to_] is a literal
    construct). Idempotent on (domain, name). *)

(** {1 Generalization} *)

val generalize : t -> sub:construct -> super:construct -> unit

(** {1 Instances}

    Instance data lives in the same triple manager. An instance is a
    resource typed ([rdf:type]) by a construct; its properties are plain
    triples whose predicates are connector names. *)

val new_instance : t -> construct -> ?id:string -> unit -> string
val instance_type : Si_triple.Trim.t -> string -> string option
(** The [rdf:type] object of a resource, if any. *)

val instances_of : t -> construct -> string list
(** Direct instances (not of subconstructs), sorted. *)

val set_property : t -> string -> string -> Si_triple.Triple.obj -> unit
(** [set_property m inst pred obj] — replaces existing values
    (functional update). @raise Invalid_argument on reserved predicates. *)

val add_property : t -> string -> string -> Si_triple.Triple.obj -> unit
(** Adds without replacing (multi-valued properties). *)

val property : t -> string -> string -> Si_triple.Triple.obj option
val properties : t -> string -> (string * Si_triple.Triple.obj) list
(** Non-reserved properties of an instance, sorted by predicate. *)

val delete_instance : t -> string -> int
(** Removes the instance's triples (outgoing and incoming references).
    Returns the number of triples removed. *)

(** {1 Conformance (schema-instance)} *)

val conform : t -> instance:string -> to_:string -> unit
(** Records a schema-instance conformance connector between two resources
    (e.g. a row conforms to a table definition that is itself an instance
    of a Table construct). *)

val conforms_to : Si_triple.Trim.t -> string -> string list

(** {1 The compiled model}

    Conformance checking, the generated DMI, schema diff and the DSL
    printer look a model up rather than re-query its triples. [compile]
    reads the model's triples once and answers those lookups. It is a
    value, not a cache: it reflects the model as of the call, and a
    caller that changes the model compiles again. *)

type compiled

val compile : t -> compiled
(** Builds every lookup below from the model's triples, once. A
    connector whose domain or range does not resolve to a construct, or
    whose [mm:minCard]/[mm:maxCard] literal is not an integer, is dropped
    ([Si_lint]'s SL002 reports it). *)

val source : compiled -> t

val constructs : compiled -> construct list
(** The model's constructs, sorted by name. *)

val connectors : compiled -> connector list
(** The model's connectors, sorted by connector id. *)

val name_of : compiled -> construct -> string
(** Like {!construct_name}, without a lookup for constructs the model
    mentions. *)

val parents : compiled -> construct -> construct list
(** The declared [rdfs:subClassOf] edges of a construct of this model, not
    the closure. *)

val ancestors : compiled -> construct -> construct list
(** The transitive superconstructs of a construct of this model, by id;
    cycle-safe, and the construct itself is not among them. *)

val is_a : compiled -> sub:construct -> super:construct -> bool
(** Reflexive-transitive generalization, for a [sub] of this model. *)

val applicable : compiled -> construct -> connector list
(** The connectors a construct of this model carries, inherited ones
    included, sorted by connector id. *)

val connector_for : compiled -> construct -> string -> connector option
(** The first {!applicable} connector with the given predicate. *)

val construct_of_instance : compiled -> string -> construct option
(** The construct of this model a resource is typed by. *)

(** Why a value does not fit a connector's range. *)
type range_error =
  | Literal_expected of string  (** the resource found instead *)
  | Resource_expected of string  (** the literal found instead *)
  | Dangling of string  (** a resource with no type *)
  | Outside_model of string  (** a resource typed by another model *)
  | Wrong_construct of string * construct
      (** a resource of this model and its construct, which is not the
          range nor one of its subconstructs *)

val check_range :
  compiled -> connector -> Si_triple.Triple.obj -> (unit, range_error) result
(** The one test of a value against a connector's range: literal or
    resource as the range's kind asks, and a resource typed by the range
    construct or a subconstruct of it. *)

(** {1 Spelling} *)

val kind_name : construct_kind -> string
(** ["construct"], ["literal"] or ["mark"]. *)

val card_to_string : cardinality -> string
(** ["1..1"], ["0..*"]. *)
