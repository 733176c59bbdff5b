(** Conformance checking of instance data against a model.

    This is the "schema-later" half of the paper's design (§3, §5):
    instance data can be created freely, and checked against a model
    after the fact. The validator reports, never rejects — SLIMPad-style
    applications stay minimally constraining. *)

type violation = {
  resource : string;       (** the offending instance *)
  predicate : string option;
  problem : string;        (** human-readable description *)
}

type report = { checked : int; violations : violation list }

val check : Model.t -> report
(** Check every instance of every construct of the model against the
    model compiled once for the call: unknown properties (no connector on
    the instance's construct or its superconstructs), range mismatches
    ({!Model.check_range}), and cardinality breaches. *)

val is_valid : Model.t -> bool
val pp_violation : Format.formatter -> violation -> unit
val report_to_string : report -> string
