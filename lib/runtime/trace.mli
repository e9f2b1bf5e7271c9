(** Adaptation traces: named, persistable configuration sequences.

    The paper evaluates with the all-pairs proxy because adaptive systems'
    transition orders are environment-driven; when a deployment {e can}
    log its behaviour, that log is the right workload to replay. A trace
    is the initial configuration plus the visited sequence, stored in a
    line-oriented text format:

    {v
    # prpart-trace v1
    design video-receiver
    initial c1
    c2
    c3
    ...
    v}

    Configurations are referenced by name; blank lines and [#] comments
    are ignored. *)

type t = private {
  design_name : string;
  initial : int;
  sequence : int list;  (** Configuration indices, in visit order. *)
}

val record :
  Prdesign.Design.t -> initial:int -> sequence:int list -> t
(** @raise Invalid_argument on out-of-range configuration indices. *)

val of_markov :
  Prdesign.Design.t ->
  chain:Markov.t ->
  rand:(unit -> float) ->
  steps:int ->
  initial:int ->
  t
(** Sample a trace from a Markov chain (self-transitions are kept: they
    model steps where the environment does not change).
    @raise Invalid_argument when the chain does not match the design's
    configuration count. *)

val simulate :
  ?icap:Fpga.Icap.t ->
  ?memory:Fetch.memory ->
  ?cache:Fetch.cache ->
  ?telemetry:Prtelemetry.t ->
  ?fault:Resilient.config ->
  Prcore.Scheme.t ->
  t ->
  (Resilient.outcome, Resilient.failure) result
(** Replay the trace on a scheme with {!Resilient.simulate}; the
    optional arguments are passed through (no [fault]: an inactive
    injector, so the replay cannot fail).
    @raise Invalid_argument when the trace's design name differs from
    the scheme's design. *)

val to_string : Prdesign.Design.t -> t -> string
val of_string : Prdesign.Design.t -> string -> (t, string) result
val save_file : Prdesign.Design.t -> string -> t -> unit
val load_file : Prdesign.Design.t -> string -> (t, string) result
(** [Error] covers both unreadable files ([Sys_error] is caught) and
    unparseable content. *)

val length : t -> int
