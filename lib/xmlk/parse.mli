(** XML parser.

    A small, dependency-free, non-validating XML 1.0 parser sufficient for
    the repository's needs: elements, attributes, text, CDATA, comments,
    processing instructions, the five predefined entities plus numeric
    character references, and a skipped DOCTYPE. Namespaces are not
    interpreted (prefixed names are kept verbatim). A character
    reference must name a character of XML 1.0's [Char] production;
    [&#0;], a surrogate or [&#xFFFE;] is a parse error.

    Text and attribute values are scanned, not copied byte by byte: a
    value without entities is one substring of the input. *)

type error = { line : int; column : int; message : string }

exception Parse_error of error

val error_to_string : error -> string

val node : string -> (Node.t, error) result
(** Parse a complete document and return its root element. Leading
    prolog/comments/PIs and trailing whitespace are accepted and dropped. *)

val node_exn : string -> Node.t
(** @raise Parse_error on malformed input. *)

val file : string -> (Node.t, error) result
(** Read and parse a file. I/O failures are reported as an [error] at
    position 0:0. *)

val fragment : string -> (Node.t list, error) result
(** Parse a sequence of sibling nodes (no single-root requirement). *)
