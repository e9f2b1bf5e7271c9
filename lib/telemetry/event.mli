(** One structured telemetry event. The stream a run produces is a flat
    sequence of these, ordered by [seq]; spans appear as balanced
    [Begin]/[End] pairs (nesting is reflected by the [depth] attribute
    the collector adds). *)

type kind =
  | Begin  (** A span (phase) opened. *)
  | End  (** The matching span closed; carries an [ms] attribute. *)
  | Point  (** An instantaneous event (search node, acceptance, …). *)
  | Counter  (** A counter snapshot, emitted by [Telemetry.flush]. *)
  | Gauge  (** A gauge snapshot, emitted by [Telemetry.flush]. *)

type t = {
  seq : int;  (** 1-based, strictly increasing per collector. *)
  time : float;  (** Seconds since the collector was created. *)
  kind : kind;
  name : string;  (** Dotted event name, e.g. ["engine.solve"]. *)
  attrs : (string * Json.t) list;
}

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val of_json : Json.t -> (t, string) result
(** Inverse of the {!to_jsonl} encoding (attribute order preserved). *)

val to_jsonl : t -> string
(** One JSONL line, without the trailing newline. Schema:
    [{"seq":…,"t":…,"kind":…,"name":…,"attrs":{…}}]; the [attrs] field
    is omitted when empty. *)
