(** Marks: encapsulated addresses into base-layer information (paper §4.2).

    "A mark is stored and maintained in the superimposed information layer,
    but references information in the base layer. The information contained
    in a mark includes an address specific to the base-layer information.
    Each type of base-layer information has its own type of mark."

    The address is held as an opaque list of named fields — the Mark
    Manager can "generically store and retrieve all marks" without knowing
    any addressing scheme; only the mark module of the mark's type
    interprets the fields. *)

type t = {
  mark_id : string;
  mark_type : string;  (** the mark module that interprets this mark *)
  fields : (string * string) list;  (** the encapsulated address *)
  excerpt : string;
      (** content of the marked element at creation time — bundles keep
          (useful) redundant copies (§3); this lets the system detect
          drift between the bundle and the base source *)
}

val make :
  id:string -> mark_type:string -> fields:(string * string) list ->
  ?excerpt:string -> unit -> t

val field : t -> string -> string option
val field_exn : t -> string -> string

val source : t -> string
(** The base source the mark addresses: its ["fileName"] field (every
    standard module has one), or ["<type>"] for fileless mark types.
    The resilience layer keys circuit breakers on this. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Resolution results}

    One resolution carries what each of the paper's viewing styles needs
    (Fig 6 / §6 mark behaviours):
    - {e navigate} (simultaneous viewing): [context] re-establishes the
      element's surroundings in its source;
    - {e extract content}: [excerpt] is the element's current content;
    - {e display in place} (independent viewing): [display] is a
      self-contained rendering of the element. *)

type resolution = {
  res_excerpt : string;
  res_context : string;
  res_display : string;
  res_source : string;  (** human-readable source description *)
}

type behaviour = Navigate | Extract_content | Display_in_place

val apply_behaviour : behaviour -> resolution -> string

(** {1 XML encoding} *)

val to_xml : t -> Si_xmlk.Node.t
val of_xml : Si_xmlk.Node.t -> (t, string) result
