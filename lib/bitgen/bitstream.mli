(** Partial-bitstream model — the artefact of the paper's tool-flow step 7
    ("a complete configuration bitstream and partial bitstreams for each
    region under different configurations are generated").

    A bitstream is a sync word, a small header (frame address, frame
    count, identification), a frame payload and a CRC-32 trailer. Payload
    contents are synthesised deterministically from the identification —
    real mask data needs the vendor backend — but all {e sizes} are exact:
    payload bytes are [frames * 164] (UG191), which is what reconfiguration
    time and storage budgeting depend on. *)

type header = {
  design : string;  (** ≤ 64 bytes. *)
  variant : string;  (** Cluster/variant label, ≤ 64 bytes. *)
  region : int;  (** Target region id (0xFFFF for a full bitstream). *)
  far : int;  (** Frame address register value of the region origin. *)
  frames : int;
}

type t = private { header : header; payload : bytes; crc : int32 }

val far_of_origin : row:int -> major:int -> int
(** Simplified FAR encoding: configuration row in bits 15+, major column
    in bits 7+. @raise Invalid_argument on negative fields. *)

val generate : header -> t
(** Deterministic: equal headers give byte-identical bitstreams.
    @raise Invalid_argument on negative frames/region/far or oversized
    strings. *)

val serialise : t -> bytes
val size_bytes : t -> int
(** [Bytes.length (serialise t)]. *)

val payload_bytes : t -> int
(** [frames * 164]. *)

val parse : bytes -> (t, string) result
(** Validates the sync word, header sanity, length and CRC; corruption
    anywhere is detected (CRC covers header and payload). *)
