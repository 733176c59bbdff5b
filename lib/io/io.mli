(** Whole-file I/O: the one place that reads a file in full and that
    replaces one atomically. Stdlib only.

    An atomic write goes to {!temp_path}[ path] and is renamed over
    [path], so a reader sees either the previous complete file or the
    new complete file. A crash between the two leaves a temp file,
    which every loader skips ({!is_temp}) and lint rule SL307 reports.
    Nothing here calls fsync: a power loss may still lose a renamed
    file. *)

val read_file : string -> (string, string) result
(** The whole file. Also reads a pipe or a character device. [Error]
    carries the [Sys_error] message. *)

val write_atomic : string -> string -> (unit, string) result
(** [write_atomic path contents] replaces [path] with [contents] via
    {!temp_path}. The temp is closed before the rename, so a write
    error reported at close (a full or failing disk) is an [Error]
    and never a renamed, truncated file. On any failure the temp is
    removed and the [Sys_error] message returned. Runs as a
    ["file-write"] {!Si_check.blocking} operation. *)

val temp_path : string -> string
(** [path ^ ".si-tmp"]: the in-flight file {!write_atomic} uses. *)

val is_temp : string -> bool
(** Whether a path is a (possibly torn, leftover) {!write_atomic}
    temp file. *)
