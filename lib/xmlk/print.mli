(** XML serialization. *)

val to_string : ?decl:bool -> Node.t -> string
(** Compact, single-line serialization. [decl] (default [false]) prepends the
    [<?xml version="1.0" encoding="UTF-8"?>] declaration. Round-trips with
    {!Parse.node} up to whitespace-free input. *)

val to_string_pretty : ?decl:bool -> ?indent:int -> Node.t -> string
(** Indented serialization (default [indent] 2). Elements with mixed content
    (any text or CDATA child) are kept on one line, so re-parsing followed by
    {!Node.strip_whitespace} restores the original tree. *)

val to_file : ?pretty:bool -> string -> Node.t -> unit
(** Write a document, with declaration, to a file, in place. Stores
    that must survive a crash mid-write render with {!to_string_pretty}
    and persist through [Si_io.Io.write_atomic] instead.
    @raise Sys_error on I/O trouble, including a failed final flush. *)

val escape : string -> string
(** Escape the characters [<], [>], [&] and double quote for use in
    attribute values and text. *)
