(** The SLIMPad Data Manipulation Interface (paper §4.4, Figs 9–10).

    "The superimposed application interacts with application data, which
    for SLIMPad are read-only objects that represent the Bundle-Scrap
    model of Figure 3, plus an application-specific Data Manipulation
    Interface (DMI). … When SLIMPad needs to create a Bundle, it calls the
    Create_Bundle operation in the DMI, which creates a Bundle object for
    SLIMPad plus the triples to represent a new Bundle. By restricting
    manipulation of data through the DMI, we store the triples without
    intervention from the superimposed application."

    [pad], [bundle], [scrap] and [link] are opaque — the OCaml counterpart
    of Fig 10's read-only application-data interfaces: the only way to
    mutate is through the operations here, so the triple representation
    and the application's view can never diverge. Every accessor reads
    straight from the triples. *)

type t
type pad
type bundle
type scrap
type link

type coordinate = { x : int; y : int }

val create : ?store:(module Si_triple.Store.S) -> unit -> t
(** A fresh SLIM store with the Bundle-Scrap model installed. *)

val trim : t -> Si_triple.Trim.t
(** The underlying triple manager (benchmarks measure it; applications
    should not touch it). *)

val model : t -> Bundle_model.t
val triple_count : t -> int

(** {1 Ids}

    Resource ids, for wiring to marks and rendering. [*_of_id] validate
    that the resource is currently an instance of the right construct. *)

val pad_id : pad -> string
val bundle_id : bundle -> string
val scrap_id : scrap -> string
val link_id : link -> string
val pad_of_id : t -> string -> pad option
val bundle_of_id : t -> string -> bundle option
val scrap_of_id : t -> string -> scrap option
val link_of_id : t -> string -> link option

(** {1 Create operations (Fig 10)} *)

val create_slimpad : t -> pad_name:string -> pad
(** Also creates the pad's root bundle (Fig 3: [rootBundle] is 1..1). *)

val create_bundle :
  t -> name:string -> ?pos:coordinate -> ?width:int -> ?height:int ->
  parent:bundle -> unit -> bundle

val create_scrap :
  t -> name:string -> ?pos:coordinate -> mark_id:string -> parent:bundle ->
  unit -> scrap
(** Creates the Scrap and its MarkHandle; [mark_id] "refers to a Mark
    object inside the Mark Manager" (Fig 3). *)

(** {1 Lookup} *)

val pads : t -> pad list
(** Sorted by name. *)

val find_pad : t -> string -> pad option
(** By pad name. *)

val root_bundle : t -> pad -> bundle

(** {1 Pad operations} *)

val pad_name : t -> pad -> string
val update_pad_name : t -> pad -> string -> unit
val delete_slimpad : t -> pad -> unit
(** Deletes the pad, its whole bundle tree, scraps, handles and links. *)

(** {1 Bundle operations} *)

val bundle_name : t -> bundle -> string
val bundle_pos : t -> bundle -> coordinate option
val bundle_size : t -> bundle -> (int * int) option
(** (width, height). *)

val scraps : t -> bundle -> scrap list
(** Direct scraps, in creation order. *)

val nested_bundles : t -> bundle -> bundle list
val bundle_parent : t -> bundle -> bundle option
(** [None] for a root bundle. *)

val update_bundle_name : t -> bundle -> string -> unit
val move_bundle : t -> bundle -> coordinate -> unit
val resize_bundle : t -> bundle -> width:int -> height:int -> unit
val reparent_bundle : t -> bundle -> parent:bundle -> (unit, string) result
(** Fails if [parent] is the bundle itself or one of its descendants, or
    if the bundle is a pad's root. *)

val delete_bundle : t -> bundle -> (unit, string) result
(** Recursive: nested bundles, scraps, handles, links touching those
    scraps. Fails on a pad's root bundle (delete the pad instead). *)

val bundle_descendant_count : t -> bundle -> int * int
(** (bundles, scraps) in the subtree, the bundle itself included. *)

(** {1 Scrap operations} *)

val scrap_name : t -> scrap -> string
val scrap_pos : t -> scrap -> coordinate option
val scrap_mark_id : t -> scrap -> string
(** The mark identifier carried by the scrap's MarkHandle. *)

val scrap_parent : t -> scrap -> bundle option

val pad_scraps : t -> pad -> scrap list
(** Every scrap of the pad's bundle tree, in pre-order: each bundle's
    own scraps before its nested bundles, both in creation order; a
    scrap held on two paths from the root is listed once per path. Two
    selects per bundle of the tree. *)

val scraps_named : t -> pad -> (string -> bool) -> scrap list
(** The scraps of {!pad_scraps}, in its order, whose name, as
    {!scrap_name} reads it, satisfies the predicate. A scrap with no
    name is never listed. Costs one scan of every scrap name in the
    store, then one of two paths, by the share of names that match.
    While at most one name in five matches, it walks up from each
    match: a few selects per match and per bundle above one, none for
    the rest of the tree. Past that share it walks the whole tree as
    {!pad_scraps} does and reads the names from the scan. *)

val update_scrap_name : t -> scrap -> string -> unit
val move_scrap : t -> scrap -> coordinate -> unit
val set_scrap_mark : t -> scrap -> string -> unit
(** Repoints the scrap's MarkHandle at another mark id. *)

val reparent_scrap : t -> scrap -> parent:bundle -> unit
val delete_scrap : t -> scrap -> unit
(** Also removes the MarkHandle and any links touching the scrap. *)

(** {1 Annotations on scraps (§6 extension)} *)

val annotate_scrap : t -> scrap -> string -> unit
val annotations : t -> scrap -> string list
(** Sorted. *)

val remove_annotation : t -> scrap -> string -> bool

(** {1 Links among scraps (§6 extension)} *)

val link_scraps : t -> ?label:string -> from_:scrap -> to_:scrap -> unit -> link
val links : t -> link list
val link_ends : t -> link -> (scrap * scrap) option
val link_label : t -> link -> string option
val links_of_scrap : t -> scrap -> link list
(** Links where the scrap is either end. *)

val delete_link : t -> link -> unit

(** {1 Decorations (Fig 4's "gridlet")}

    "The 'gridlet' in this bundle is simply a graphic element with scraps
    placed near it." A decoration is positioned, mark-less furniture;
    like everything else it carries no enforced semantics. *)

type decoration

val add_decoration :
  t -> bundle -> kind:string -> ?pos:coordinate -> unit -> decoration
val decorations : t -> bundle -> decoration list
(** In creation order. *)

val decoration_kind : t -> decoration -> string
val decoration_pos : t -> decoration -> coordinate option
val move_decoration : t -> decoration -> coordinate -> unit
val delete_decoration : t -> decoration -> unit

(** {1 Bundle templates (§6 extension)} *)

val set_template : t -> bundle -> bool -> unit
val is_template : t -> bundle -> bool
val templates : t -> bundle list
val instantiate_template :
  t -> template:bundle -> name:string -> parent:bundle ->
  (bundle, string) result
(** Deep-copies the template's subtree (bundles, scraps, mark handles —
    scraps keep their mark ids) under [parent] with a new name. Clears the
    template flag on the copy. *)

(** {1 Transactions} *)

val atomically : t -> (unit -> ('a, 'e) result) -> ('a, 'e) result
(** All-or-nothing DMI updates over {!Si_triple.Trim.transaction}: when
    the body returns [Error] or raises, every triple change {e and} every
    journal entry from the body is rolled back. Exceptions re-raise after
    rollback. Does not nest. *)

(** {1 Operation journal}

    The paper's field work values bundles as {e evidence of awareness}
    (§2: "manual construction involves active processing of information,
    thus generates awareness of it, and provides evidence to others of
    that awareness"; sharing bundles "establish[es] collectively
    maintained, situated awareness"). The journal records every mutating
    DMI operation in order, so a shared pad carries its construction
    history — who-did-what-when in structure (no clock: entries are
    sequence-numbered). *)

type journal_entry = {
  seq : int;
  op : string;  (** operation name, e.g. ["create_scrap"] *)
  target : string;  (** resource id the operation touched *)
  detail : string;  (** human-readable summary *)
}

val journal : t -> journal_entry list
(** Oldest first. *)

val journal_length : t -> int
val clear_journal : t -> unit
val journal_to_xml : t -> Si_xmlk.Node.t
val load_journal : t -> Si_xmlk.Node.t -> (unit, string) result
(** Replaces the in-memory journal with entries from a [<journal>]
    element (as written by {!journal_to_xml}); later operations append
    after the loaded history. *)

(** {2 Journal observation}

    Journaled persistence subscribes to journal changes the same way it
    subscribes to triple mutations ({!Si_triple.Trim.on_mutate}):
    every event is reported once, after it happened.
    [Journal_truncated_to n] is emitted when {!atomically} rolls back —
    entries with [seq > n] were discarded. *)

type journal_event =
  | Journal_logged of journal_entry
  | Journal_cleared
  | Journal_truncated_to of int

val on_journal : t -> (journal_event -> unit) -> unit
(** Install the observer (at most one; a second call replaces the
    first). The observer must not mutate this DMI. *)

val append_journal_entry : t -> journal_entry -> unit
(** Replay-side: append an entry exactly as recorded (the sequence
    counter advances to cover it). Does not notify {!on_journal}. *)

val truncate_journal_to : t -> int -> unit
(** Replay-side inverse of [Journal_truncated_to]: drop entries with
    [seq] greater than the argument. Does not notify {!on_journal}. *)


(** {1 Conformance & persistence} *)

val validate : t -> Si_metamodel.Validate.report
(** Schema-later conformance check of the whole store against the
    Bundle-Scrap model. A store manipulated only through this DMI is
    always valid. *)

val to_xml : t -> Si_xmlk.Node.t
val of_xml : ?store:(module Si_triple.Store.S) -> Si_xmlk.Node.t ->
  (t, string) result

val of_trim : Si_triple.Trim.t -> t
(** Adopt an already-populated manager (fresh journal, no observer) —
    how the binary snapshot path rebuilds a DMI without a round-trip
    through XML. The manager must not be shared with another DMI. *)

val save : t -> string -> (unit, string) result
(** Crash-safe (temp file + rename, via {!Si_triple.Trim.save}). *)

val load : string -> (t, string) result
val equal_contents : t -> t -> bool
