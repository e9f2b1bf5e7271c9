(** Deterministic fault injection for the {e serving} layer.

    Where {!Injector} models hardware reconfiguration faults inside a
    simulated runtime, this module models the failures a partitioning
    {e daemon fleet} must survive: a replica killed mid-solve or
    mid-cache-write, a cache entry torn on disk, a connection reset
    before the reply, a reply delayed past the client's patience. The
    serve layer asks at three injection points whether the next
    operation faults; answers come from a seeded PRNG plus an exact
    schedule, so a chaos run replays bit-for-bit under a fixed spec.

    This module only {e decides}; actuation (calling [exit 137], tearing
    bytes, shutting sockets down) lives in [Prserve.Chaos] so the fault
    model stays pure and unit-testable. *)

type kind =
  | Crash_solve  (** Replica exits with SIGKILL semantics mid-solve. *)
  | Crash_cache_write
      (** Replica tears the on-disk entry, then dies — the kill -9
          mid-cache-write scenario shared-cache recovery must absorb. *)
  | Torn_cache_write
      (** Entry bytes torn (truncated data under a full-content
          sidecar) but the replica lives — a media/filesystem tear. *)
  | Conn_reset  (** Connection shut down instead of delivering a reply. *)
  | Slow_reply  (** Reply delayed by [spec.slow_reply_ms]. *)

val all_kinds : kind list
(** In declaration order. *)

val kind_name : kind -> string
(** CLI token: ["kill-solve"], ["kill-cache-write"], ["torn-cache-write"],
    ["conn-reset"], ["slow-reply"]. *)

val kind_of_string : string -> kind option

type point = Solve_point | Cache_write_point | Reply_point
(** The three injection points in the serve layer. Each numbers its own
    operations independently (unlike {!Injector.op}, which shares one
    counter): a schedule entry [kill-solve@2] fires on the third solve
    no matter how many cache writes interleave. *)

val point_name : point -> string
val applies : kind -> point -> bool

type spec = {
  seed : int;
  rates : (kind * float) list;
      (** Per-operation probability of each kind, each in [0, 1]. *)
  schedule : (int * kind) list;
      (** Unconditional faults by zero-based per-point operation index. *)
  slow_reply_ms : float;  (** Delay applied by {!Slow_reply}. *)
  max_faults : int option;
      (** Total injection budget; [None] is unbounded. Keeps
          probabilistic chaos from starving a soak of successes. *)
}

val disabled : spec
(** Never fires: no rates, no schedule. *)

val validate : spec -> (unit, string) result
val active : spec -> bool

val spec_to_string : spec -> string
(** Canonical single-flag form, e.g.
    ["seed=42,kill-solve@0,conn-reset=0.05,slow-ms=120"]. *)

val spec_of_string : string -> (spec, string) result
(** Parses the {!spec_to_string} grammar: comma-separated [seed=N],
    [max-faults=N], [slow-ms=F], [kind@index] (schedule) and [kind=rate]
    tokens. Validates before returning. *)

type t
(** Live state: spec, PRNG, per-point operation counters. *)

val start : spec -> t
(** @raise Invalid_argument when {!validate} rejects the spec. *)

val spec : t -> spec

val operations : t -> point -> int
(** Operations drawn so far at [point]. *)

val faults_injected : t -> int

val draw : t -> point -> kind option
(** Ask whether the next operation at [point] faults. Consumes the
    point's operation index and one PRNG draw per applicable kind (hit
    or miss), so the fault stream is a pure function of the spec and the
    per-point operation sequence. Returns [None] once [max_faults] is
    exhausted. *)
