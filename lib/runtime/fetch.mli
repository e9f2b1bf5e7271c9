(** Bitstream fetch modelling.

    The paper notes that "the actual reconfiguration time also depends
    upon additional factors such as the delay in fetching partial
    bitstreams from external memory and transfer speed through the
    internal configuration interface". This module models that fetch
    path: partial bitstreams live in external memory behind a bandwidth
    plus fixed latency, with an optional on-chip cache (BRAM-backed
    buffer) holding recently or frequently used bitstreams so hot
    reconfigurations stream at full ICAP rate.

    Sizes are in frames; byte sizes follow UG191 (164 bytes/frame). *)

type memory = {
  bandwidth_bytes_per_s : float;  (** Sustained external read bandwidth. *)
  latency_s : float;  (** Fixed per-fetch setup latency. *)
}

val flash : memory
(** Slow configuration flash: 20 MB/s, 100 us setup. *)

val ddr : memory
(** DDR-class store: 800 MB/s, 1 us setup. *)

val fetch_seconds : memory -> frames:int -> float
(** Time to pull one partial bitstream from external memory (zero for
    zero frames). @raise Invalid_argument on negative frames. *)

(** {1 On-chip bitstream cache} *)

type policy = Lru | Fifo | Largest_out
(** Eviction policies: least-recently-used, first-in-first-out, or evict
    the largest resident first. *)

type cache

val create_cache : ?policy:policy -> capacity_frames:int -> unit -> cache
(** An empty cache holding at most [capacity_frames] frames of bitstream
    payload. A bitstream larger than the whole capacity is never cached.
    @raise Invalid_argument on a negative capacity. *)

val policy : cache -> policy
val capacity_frames : cache -> int
val resident_frames : cache -> int

type access = { key : int * int; frames : int; hit : bool; seconds : float }
(** One bitstream access: [key] identifies (region, partition). On a hit
    the fetch costs nothing (the ICAP streams from on-chip memory); on a
    miss the external fetch time applies and the bitstream is inserted,
    evicting according to the policy. *)

val access : cache -> memory -> key:int * int -> frames:int -> access

val invalidate : cache -> key:int * int -> unit
(** Drop a resident bitstream (no-op when absent). The resilient runtime
    uses this when a cached image turns out corrupt and must be
    re-fetched from external memory. *)

val residents : cache -> ((int * int) * int) list
(** Resident [(key, frames)] entries, eviction order first (head = next
    LRU/FIFO victim). Exposed for invariant checking and diagnostics. *)

val stats : cache -> int * int
(** [(hits, misses)] since creation. *)

(** {1 Walk-level accounting} *)

(** The fetch-path totals {!Resilient.simulate} reports for a walk when
    it is given a [memory]: every region reload fetches its bitstream
    (through the cache when one is given) before streaming it to the
    ICAP. *)
type report = {
  reconfigurations : int;
  hits : int;
  misses : int;
  icap_seconds : float;  (** Pure configuration-port time. *)
  fetch_seconds : float;  (** External-memory stall time (misses only). *)
  total_seconds : float;
}

val render : report -> string
