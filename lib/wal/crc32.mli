(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven, eight
    bytes per step (slicing-by-8).

    The checksum guarding every WAL record and snapshot payload. Pure
    OCaml over native [int]s (the 32-bit value occupies the low bits), so
    the log format has no dependency beyond the stdlib. *)

val digest : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** [digest s] is the CRC-32 of [s] as a non-negative int in
    [\[0, 2^32)]. [crc] (default 0, only its low 32 bits are read)
    continues a running checksum, so
    [digest ~crc:(digest a) b] = [digest (a ^ b)]. [pos]/[len] select a
    substring (default: all of [s]).
    @raise Invalid_argument when [pos]/[len] fall outside [s]. *)
