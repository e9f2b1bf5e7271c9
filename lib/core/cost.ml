module Design = Prdesign.Design
module Resource = Fpga.Resource

type evaluation = {
  region_frames : int array;
  region_conflicts : int array;
  total_frames : int;
  worst_frames : int;
  reconfigurable : Resource.t;
  static : Resource.t;
  used : Resource.t;
}

let conflicts_of_column residency_matrix r =
  let configs = Array.length residency_matrix in
  let count = ref 0 in
  for i = 0 to configs - 1 do
    for j = i + 1 to configs - 1 do
      let a = residency_matrix.(i).(r) and b = residency_matrix.(j).(r) in
      if a >= 0 && b >= 0 && a <> b then incr count
    done
  done;
  !count

let evaluate (s : Scheme.t) =
  let resid = s.resident in
  let region_frames = Array.copy s.frames in
  let region_conflicts =
    Array.init s.region_count (conflicts_of_column resid)
  in
  let total_frames =
    let acc = ref 0 in
    Array.iteri (fun r f -> acc := !acc + (f * region_conflicts.(r))) region_frames;
    !acc
  in
  let configs = Design.configuration_count s.design in
  let worst_frames =
    let worst = ref 0 in
    for i = 0 to configs - 1 do
      for j = i + 1 to configs - 1 do
        let cost = ref 0 in
        for r = 0 to s.region_count - 1 do
          let a = resid.(i).(r) and b = resid.(j).(r) in
          if a >= 0 && b >= 0 && a <> b then cost := !cost + region_frames.(r)
        done;
        if !cost > !worst then worst := !cost
      done
    done;
    !worst
  in
  let reconfigurable = Scheme.reconfigurable_resources s in
  let static = Scheme.static_resources s in
  { region_frames;
    region_conflicts;
    total_frames;
    worst_frames;
    reconfigurable;
    static;
    used = Resource.add reconfigurable static }

let fits evaluation ~budget = Resource.fits evaluation.used ~within:budget

let pairwise_frames (s : Scheme.t) i j =
  let configs = Design.configuration_count s.design in
  if i < 0 || i >= configs || j < 0 || j >= configs then
    invalid_arg "Cost.pairwise_frames: configuration index out of range";
  let cost = ref 0 in
  for r = 0 to s.region_count - 1 do
    let a = s.resident.(i).(r) and b = s.resident.(j).(r) in
    if a >= 0 && b >= 0 && a <> b then cost := !cost + s.frames.(r)
  done;
  !cost

(* Shared kernel for the all-pairs entry points: fold over the upper
   triangle only, each pair one O(regions) scan of the scheme's resident
   table and region frames. *)
let fold_pairs (s : Scheme.t) f init =
  let configs = Design.configuration_count s.design in
  let resid = s.resident in
  let region_frames = s.frames in
  let acc = ref init in
  for i = 0 to configs - 1 do
    for j = i + 1 to configs - 1 do
      let cost = ref 0 in
      for r = 0 to s.region_count - 1 do
        let a = resid.(i).(r) and b = resid.(j).(r) in
        if a >= 0 && b >= 0 && a <> b then cost := !cost + region_frames.(r)
      done;
      acc := f !acc i j !cost
    done
  done;
  !acc

let transition_matrix (s : Scheme.t) =
  let configs = Design.configuration_count s.design in
  let m = Array.make_matrix configs configs 0 in
  (* Compute the upper triangle once and mirror it — the matrix is
     symmetric by construction (pinned by the symmetry unit test). *)
  fold_pairs s
    (fun () i j c ->
      m.(i).(j) <- c;
      m.(j).(i) <- c)
    ();
  m

let weighted_total (s : Scheme.t) ~weights =
  let configs = Design.configuration_count s.design in
  if
    Array.length weights <> configs
    || Array.exists (fun row -> Array.length row <> configs) weights
  then invalid_arg "Cost.weighted_total: weight matrix shape mismatch";
  fold_pairs s
    (fun acc i j c ->
      let w = weights.(i).(j) +. weights.(j).(i) in
      if w <> 0. then acc +. (w *. float_of_int c) else acc)
    0.

(* Placement-awareness hook. The floorplan estimator lives above this
   library in the dependency order, so the penalty arrives as a closure
   over per-region demands; [Prcore] only fixes the calling convention
   (regions 0..n-1 in index order, then the static side last). The
   closure must be pure and deterministic — it is re-evaluated freely,
   including from parallel worker domains. *)
type placement = {
  placement_label : string;
  placement_cost : Fpga.Resource.t array -> int;
}

let placement_demands (s : Scheme.t) =
  Array.init (s.region_count + 1) (fun i ->
      if i < s.region_count then Scheme.region_resources s i
      else Scheme.static_resources s)

let placement_penalty p s = p.placement_cost (placement_demands s)

let equal_evaluation (a : evaluation) (b : evaluation) =
  a.total_frames = b.total_frames
  && a.worst_frames = b.worst_frames
  && a.region_frames = b.region_frames
  && a.region_conflicts = b.region_conflicts
  && Resource.equal a.reconfigurable b.reconfigurable
  && Resource.equal a.static b.static
  && Resource.equal a.used b.used

let pp_evaluation ppf e =
  Format.fprintf ppf
    "total %d frames, worst %d frames, used %a (reconfigurable %a + static %a)"
    e.total_frames e.worst_frames Resource.pp e.used Resource.pp
    e.reconfigurable Resource.pp e.static
