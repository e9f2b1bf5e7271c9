(** Configuration-manager vocabulary: the per-step event and the walk
    statistics that {!Resilient.simulate} reports, and the random
    adaptation walk it replays. The replay tracks actual region contents
    (a region keeps its bitstream while unused, so a reconfiguration
    happens only when an incoming configuration needs a {e different}
    resident than the one physically loaded): the stateful ground truth
    against which the paper's pairwise metric is a proxy. *)

type event = {
  step : int;
  from_config : int;
  to_config : int;
  regions_reconfigured : int list;
  frames : int;
  seconds : float;
}

type stats = {
  steps : int;
  transitions : int;  (** Steps with an actual configuration change. *)
  total_frames : int;
  total_seconds : float;
  max_frames : int;
  mean_frames : float;  (** Per transition; 0 when no transitions. *)
  region_loads : int array;  (** Reconfiguration count per region. *)
}

val random_walk :
  rand:(int -> int) -> configs:int -> steps:int -> initial:int -> int list
(** A uniform random adaptation sequence avoiding self-transitions;
    [rand n] must return a uniform value in [0, n). Suitable as
    {!Resilient.simulate}'s [sequence]. @raise Invalid_argument when
    [configs < 2], [steps < 0] or [initial] is out of range. *)

val pp_stats : Format.formatter -> stats -> unit
