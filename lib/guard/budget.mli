(** Wall-clock deadlines, cost-evaluation caps and cooperative cancellation.

    A {!t} is threaded through the solving pipeline ([Engine.solve],
    [Allocator], [Anneal], [Exact], the [Par] fan-out).  Work units call
    {!charge} as they evaluate candidate schemes and poll {!interrupted} (or
    {!exhausted}) at loop boundaries; when the budget expires the caller
    returns the best feasible answer found so far instead of running to
    completion.

    Determinism contract: an eval-cap-only budget (no deadline, no cancel
    token) expires at a deterministic point of the computation, so capped
    runs are reproducible; wall-clock deadlines and cancellation are
    inherently racy and are only consulted by {!interrupted}/{!exhausted},
    never by {!charge}. *)

type cancel
(** Cooperative cancellation token, shareable across domains. *)

val cancel_token : unit -> cancel
(** Fresh, un-cancelled token. *)

val cancel : cancel -> unit
(** Request cancellation.  Idempotent; safe from any domain. *)

(** {1 Clocks} *)

type clock = unit -> float
(** A time source, in seconds (absolute origin irrelevant — only
    differences matter).  Budgets take all their readings from one clock,
    so tests can drive deadlines deterministically with a fake. *)

val monotonic : clock
(** The default deadline clock: [Unix.gettimeofday] clamped to be
    non-decreasing (process-wide, lock-free).  NTP steps and manual clock
    changes can move the wall clock in either direction; a backward jump
    would make a deadline stop approaching and extend a job indefinitely,
    so the largest time ever observed is latched and returned until the
    wall clock catches up again.  Forward jumps at worst expire budgets
    early, which the anytime contract already tolerates. *)

(** {1 Specifications} *)

type spec = {
  deadline_ms : float option;  (** Wall-clock allowance, milliseconds. *)
  max_evals : int option;  (** Cost-evaluation cap. *)
}
(** A declarative, not-yet-started budget (as found in a ladder rung or a
    CLI invocation). *)

val spec : ?deadline_ms:float -> ?max_evals:int -> unit -> spec
val unlimited : spec

val is_unlimited : spec -> bool
val spec_to_string : spec -> string

(** {1 Live budgets} *)

type t

val make :
  ?clock:clock ->
  ?deadline_ms:float ->
  ?max_evals:int ->
  ?cancel:cancel ->
  unit ->
  t
(** Start a budget now.  Omitted limits are unlimited.  [clock] defaults
    to {!monotonic}; children created with {!child} inherit it. *)

val of_spec : ?clock:clock -> ?cancel:cancel -> spec -> t

val child : t -> spec -> t
(** [child parent spec] starts a sub-budget (e.g. one ladder rung): it
    shares the parent's cancel token, its deadline is the earlier of the
    parent's and [spec]'s, charges propagate to the parent, and eval-cap
    exhaustion considers both caps. *)

val charge : ?n:int -> t -> unit
(** Record [n] (default 1) cost evaluations against the budget (and its
    ancestors). *)

val evals_used : t -> int
val elapsed_ms : t -> float
val has_eval_cap : t -> bool

type reason =
  | Completed  (** The budget never expired. *)
  | Deadline  (** The wall-clock deadline passed. *)
  | Eval_cap  (** The cost-evaluation cap was reached. *)
  | Cancelled  (** The cancel token fired. *)

val reason_name : reason -> string

val exhausted : t -> reason option
(** [None] while the budget is still live; otherwise the (sticky) reason it
    expired, with precedence cancel > deadline > eval-cap. *)

val interrupted : t -> bool
(** Deadline/cancellation only — deliberately ignores the eval cap so that
    eval-capped runs stay deterministic.  The wall clock is probed on a
    small stride; once expired the answer is sticky. *)

(** {1 Verdicts} *)

type verdict = {
  guarded : bool;  (** A budget or ladder was in force. *)
  degraded : bool;  (** The answer is best-so-far, not a full run. *)
  reason : reason;
  rung : string option;  (** Ladder rung that produced the answer. *)
  evals_used : int;
  elapsed_ms : float;
}

val no_budget : verdict
(** The constant verdict of an unguarded run: [guarded = false],
    [degraded = false], [reason = Completed], everything else zero. *)

val verdict : ?rung:string -> t -> verdict
val render_verdict : verdict -> string
