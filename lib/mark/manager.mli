(** The Mark Manager (paper §4.2, Fig 7).

    "The Mark Manager is the framework for creating and managing these
    links – called marks. A mark module works with each base-layer
    application to create and resolve marks. … Since the specific
    addressing scheme of the base-layer information is encapsulated within
    the mark, the Mark Manager can generically store and retrieve all
    marks."

    Mark modules are registered at run time; "to support new base-layer
    applications, new mark modules need to be introduced" — without
    touching the manager or any superimposed application. Several modules
    may be registered for the same mark {e type} under different module
    names (§5: "one manager for Excel can display Excel Marks in context
    and another act as an in-place viewer"). *)

type mark_module = {
  module_name : string;  (** unique registry key *)
  handles_type : string;  (** the mark type this module interprets *)
  validate : (string * string) list -> (unit, string) result;
      (** check that the address fields are well-formed *)
  resolve : (string * string) list -> (Mark.resolution, string) result;
      (** drive the base application to the marked element *)
}

type t

val create : unit -> t

(** {1 Module registry} *)

val register : t -> mark_module -> (unit, string) result
(** Fails on a duplicate module name. *)

val register_exn : t -> mark_module -> unit
val module_names : t -> string list
(** Sorted. *)

val modules_for_type : t -> string -> mark_module list
val supported_types : t -> string list

(** {2 Address linters}

    A static, side-effect-free companion to {!mark_module.validate}:
    given a mark's address fields, report {e all} the well-formedness
    problems (parse failures, duplicate fields, unknown fields) without
    touching the base layer. {!Desktop.install_modules} registers one
    per mark type; [Si_lint] dispatches through them. *)

val register_address_linter :
  t -> mark_type:string -> ((string * string) list -> string list) -> unit
(** At most one linter per mark type; a second call replaces the first. *)

val address_linter :
  t -> string -> ((string * string) list -> string list) option

val linted_types : t -> string list
(** Mark types with a registered address linter, sorted. *)

val find_module :
  ?module_name:string -> t -> string -> (mark_module, string) result
(** The module that handles a mark type ([module_name] selects a specific
    registration) — the dispatch {!resolve} uses, exposed so layered
    resolvers ({!Resilient}) can drive the module directly. *)

(** {1 Mark creation and storage} *)

val create_mark :
  t -> mark_type:string -> fields:(string * string) list ->
  ?excerpt:string -> unit -> (Mark.t, string) result
(** Validates the fields with (any) registered module for the type, then
    stores the mark under a fresh id. When no [excerpt] is given, the mark
    is resolved once and the current content cached. *)

val add_mark : t -> Mark.t -> (unit, string) result
(** Store an existing mark (e.g. loaded from elsewhere); fails on a
    duplicate id. The type need not be registered yet — marks of
    not-yet-supported types are kept and fail only on resolution. *)

val mark : t -> string -> Mark.t option
val mark_exn : t -> string -> Mark.t
val marks : t -> Mark.t list
(** Sorted by id. *)

val put_mark : t -> Mark.t -> unit
(** Store a mark unconditionally, replacing any existing mark with the
    same id. The WAL replay path uses this ([Mark_put] records carry
    both additions and excerpt refreshes). *)

val remove_mark : t -> string -> bool
val mark_count : t -> int

(** {1 Change observation}

    The hook behind journaled persistence: every effective change to the
    stored mark set — creation, {!add_mark}/{!put_mark}, excerpt refresh,
    removal, marks committed by {!of_xml} — is reported exactly once,
    after it has been applied. Registered modules are code, not state,
    and are not reported. *)

type change =
  | Mark_put of Mark.t  (** Added or replaced (upsert semantics). *)
  | Mark_removed of string

val on_change : t -> (change -> unit) -> unit
(** Install the observer (at most one; a second call replaces the
    first). The observer must not mutate this manager. *)

(** {1 Resolution} *)

type resolve_error =
  | Unknown_mark of string
      (** The superimposed layer holds no mark with this id. *)
  | No_module of { mark_type : string; detail : string }
      (** The mark exists but no registered module interprets its type
          (or the named module does not). *)
  | Resolution_failed of { source : string; detail : string }
      (** The mark and module are fine; the base source
          ({!Mark.source}) failed to produce the element — the only
          variant a retry or degraded fallback can help with. *)

val resolve_error_to_string : resolve_error -> string

val resolve :
  ?module_name:string -> t -> string -> (Mark.resolution, resolve_error) result
(** [resolve mgr mark_id] finds the mark, dispatches to a module handling
    its type ([module_name] selects a specific one), and drives the base
    application to the element. *)

val resolve_with :
  ?module_name:string -> t -> string -> Mark.behaviour ->
  (string, resolve_error) result
(** Resolution narrowed to one viewing behaviour. *)

type drift =
  | Unchanged
  | Changed of { was : string; now : string }
  | Unresolvable of resolve_error
  | Quarantined of resolve_error
      (** Produced by {!Resilient.check_drift} for marks that stayed
          unresolvable across a whole breaker probe window; plain
          {!check_drift} never returns it. *)

val check_drift : t -> string -> (drift, resolve_error) result
(** Compare the excerpt cached at creation with the element's current
    content (§3: redundancy "is a problem … if it introduces errors during
    transcription"; this detects base-side divergence). The outer error is
    only ever [Unknown_mark]. *)

val refresh_excerpt : t -> string -> (Mark.t, resolve_error) result
(** Re-resolve and overwrite the cached excerpt. *)

(** {1 Persistence} *)

val to_xml : t -> Si_xmlk.Node.t
(** Marks only; modules are code and must be re-registered. *)

val of_xml : t -> Si_xmlk.Node.t -> (unit, string) result
(** Loads marks into an existing manager (keeping its modules).
    All-or-nothing: on any error (malformed mark, duplicate id — within
    the file or against marks already present) the manager is left
    unchanged. *)

val save : t -> string -> (unit, string) result
(** Crash-safe: temp file + rename ({!Si_io.Io.write_atomic}). *)

val load_into : t -> string -> (unit, string) result
