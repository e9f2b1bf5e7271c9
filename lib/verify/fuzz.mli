(** Differential fuzzing and seeded mutation-kill over the whole
    pipeline.

    {!run} draws random synthetic designs ({!Synth.Generator}) and, for
    each: requires the design oracle to pass, solves with [verify:true]
    (the engine's from-scratch self-check), cross-checks the
    sequential and parallel engines ([jobs = 1] vs [jobs > 1] must be
    bit-identical), compares the reported evaluation against both a
    direct {!Prcore.Cost.evaluate} and the independent
    {!Oracle.derive_evaluation}, runs the full
    {!Checker.check_outcome} oracle suite (check-after-solve), and
    repeats the seq-vs-par differential for the multilevel backend
    ([strategy = Multilevel]) with its evaluation re-derived by the
    oracle.

    {!mutation_kills} is the harness's proof that no oracle is dead
    code: each corruption class seeds exactly one violation into
    otherwise-valid pipeline artefacts and records whether the matching
    diagnostic code fires. *)

type failure = {
  seed : int;
  design : string;
  what : string;  (** Human-readable description of the divergence. *)
}

type summary = {
  designs : int;  (** Designs generated. *)
  solved : int;  (** Designs the engine could place on some device. *)
  skipped : int;  (** Designs infeasible for every catalogued device. *)
  failures : failure list;
}

val run : ?count:int -> ?seed:int -> ?jobs:int -> unit -> summary
(** [count] defaults to 200, [seed] to 2013, [jobs] to 2 (the parallel
    side of the seq-vs-par comparison). Deterministic in [seed]. *)

val render_summary : summary -> string

type kill = {
  label : string;  (** Corruption class, e.g. ["drop-covered-mode"]. *)
  expected : string;  (** The diagnostic code that must fire. *)
  killed : bool;  (** The expected code fired. *)
  precise : bool;  (** No {e other} error code fired. *)
  codes : string list;  (** Distinct error codes observed. *)
}

val mutation_kills : unit -> kill list
(** Seeded corruption classes over the video-receiver case study:
    dropping a covered mode ([V-CVR-001]), splitting a cluster into
    co-active region mates ([V-CVR-004]), overlapping two floorplan
    rectangles ([V-FLP-001]), flipping a region frame count
    ([V-CST-003]), corrupting a total ([V-CST-001]) and a worst case
    ([V-CST-002]), corrupting one CRC byte ([V-BIT-002]), shrinking the
    budget below usage ([V-CST-006]), and checking transitions against
    an empty repository ([V-TRN-001]). *)

val all_killed : kill list -> bool
(** Every kill fired its expected code, and nothing else. *)

val render_kills : kill list -> string
