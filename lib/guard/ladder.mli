(** Declarative graceful-degradation ladder.

    A ladder is an ordered list of solver rungs, each with its own budget
    allowance.  The engine attempts rungs in order; the first rung that runs
    to completion (within its budget) supplies the answer, and every rung's
    best-so-far result is kept as a fallback so an expired ladder still
    yields the best feasible scheme seen — in the worst case the
    single-region baseline, which is always constructible. *)

type rung_kind =
  | Exact  (** Branch-and-bound exact allocator. *)
  | Anneal  (** Simulated annealing. *)
  | Greedy  (** Agglomerative + greedy allocator (the default engine path). *)
  | Multilevel
      (** Multilevel coarsen→partition→refine backend — a ladder can
          degrade {e into} multilevel (cheap at scale) instead of only
          down to the single-region baseline. *)
  | Single_region  (** Baseline: one region hosting every module. *)

type rung = { kind : rung_kind; budget : Budget.spec }

type t = { rungs : rung list }

val rung_name : rung_kind -> string

val default : t
(** [exact] capped at 150k evaluations, then [anneal] capped at 40k, then
    unlimited [greedy], then the [single-region] baseline. *)

val of_string : string -> (t, string) result
(** Parse a ladder description like ["exact:150000,anneal:40000,greedy"]
    or ["multilevel,single-region"]. Each comma-separated rung is
    [kind] or [kind:max_evals] or [kind:max_evals:deadline_ms]; an
    empty limit slot means unlimited. *)

val to_string : t -> string

val validate : t -> (t, string) result
(** Reject empty ladders. *)
