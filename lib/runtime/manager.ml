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
  transitions : int;
  total_frames : int;
  total_seconds : float;
  max_frames : int;
  mean_frames : float;
  region_loads : int array;
}

let random_walk ~rand ~configs ~steps ~initial =
  if configs < 2 then invalid_arg "Manager.random_walk: need >= 2 configurations";
  if steps < 0 then invalid_arg "Manager.random_walk: negative step count";
  if initial < 0 || initial >= configs then
    invalid_arg
      (Printf.sprintf
         "Manager.random_walk: initial configuration %d out of range [0, %d)"
         initial configs);
  let rec walk current n acc =
    if n = 0 then List.rev acc
    else begin
      (* Uniform over the other configurations. *)
      let pick = rand (configs - 1) in
      let next = if pick >= current then pick + 1 else pick in
      walk next (n - 1) (next :: acc)
    end
  in
  walk initial steps []

let pp_stats ppf s =
  Format.fprintf ppf
    "%d steps (%d transitions): %d frames, %.3f ms total, max %d frames, \
     mean %.1f frames/transition"
    s.steps s.transitions s.total_frames (s.total_seconds *. 1e3) s.max_frames
    s.mean_frames
