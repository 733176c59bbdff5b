(** RDF/XML-style serialization of a triple store (paper §4.3).

    "Since RDF defines a serialization-syntax (in XML), we can use the
    representation for interoperability between superimposed
    applications." This is the description-grouped syntax:

    {v <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
         <rdf:Description rdf:about="bundle-1">
           <bundleName>John Smith</bundleName>
           <bundleContent rdf:resource="scrap-1"/>
         </rdf:Description>
       </rdf:RDF> v}

    in contrast to {!Trim.to_xml}'s flat triple list (the internal
    format). Both round-trip; this one is what a 2001-era RDF consumer
    would expect.

    Predicates must be valid XML element names (the metamodel's
    colon-prefixed vocabulary qualifies); serialization fails otherwise. *)

val rdf_namespace : string

val to_xml : Trim.t -> (Si_xmlk.Node.t, string) result
(** Subjects sorted, properties per subject sorted — deterministic. *)

val to_string : Trim.t -> (string, string) result
val of_xml : Si_xmlk.Node.t -> (Trim.t, string) result
val of_string : string -> (Trim.t, string) result
val save : Trim.t -> string -> (unit, string) result
val load : string -> (Trim.t, string) result
