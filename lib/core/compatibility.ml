module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Cfgset = Prgraph.Cfgset

type t = {
  design : Design.t;
  partitions : Base_partition.t array;
  activity : Cfgset.t array;  (* per partition: its active configurations *)
  covers : bool;
}

(* Greedy best-coverage resolution of every configuration: pick the
   partition covering the most uncovered modes of the configuration
   (earliest on ties), until no partition covers anything new.

   [holders.(m)] lists the partitions holding mode [m], ascending, and is
   built once per call. Within a configuration, [count.(p)] is the number
   of still-uncovered configuration modes partition [p] holds; only the
   partitions the configuration touches can have a non-zero count, so a
   pick scans just those, and covering a mode decrements the count of
   each of its holders. Configuration modes are distinct (one mode per
   module) and so are partition modes, so the counts are exact. *)
let analyse design partitions =
  let modes = Design.mode_count design in
  Array.iter
    (fun (bp : Base_partition.t) ->
      List.iter
        (fun mode ->
          if mode < 0 || mode >= modes then
            invalid_arg "Compatibility.analyse: mode id out of range")
        bp.modes)
    partitions;
  let np = Array.length partitions in
  let holders = Array.make modes [] in
  for p = np - 1 downto 0 do
    List.iter
      (fun m -> holders.(m) <- p :: holders.(m))
      partitions.(p).Base_partition.modes
  done;
  let configs = Design.configuration_count design in
  let activity = Array.init np (fun _ -> Cfgset.create configs) in
  let count = Array.make np 0 in
  let touched = Array.make np 0 in
  let uncovered = Array.make modes false in
  let covers = ref true in
  for c = 0 to configs - 1 do
    let config_modes = Design.config_mode_ids design c in
    let ntouched = ref 0 in
    List.iter
      (fun m ->
        uncovered.(m) <- true;
        List.iter
          (fun p ->
            if count.(p) = 0 then begin
              touched.(!ntouched) <- p;
              incr ntouched
            end;
            count.(p) <- count.(p) + 1)
          holders.(m))
      config_modes;
    let continue_ = ref true in
    while !continue_ do
      let best = ref (-1) in
      for t = 0 to !ntouched - 1 do
        let p = touched.(t) in
        if
          count.(p) > 0
          && (!best < 0
             || count.(p) > count.(!best)
             || (count.(p) = count.(!best) && p < !best))
        then best := p
      done;
      if !best < 0 then continue_ := false
      else begin
        Cfgset.add activity.(!best) c;
        List.iter
          (fun m ->
            if uncovered.(m) then begin
              uncovered.(m) <- false;
              List.iter (fun q -> count.(q) <- count.(q) - 1) holders.(m)
            end)
          partitions.(!best).Base_partition.modes
      end
    done;
    List.iter
      (fun m ->
        if uncovered.(m) then begin
          covers := false;
          uncovered.(m) <- false
        end)
      config_modes;
    for t = 0 to !ntouched - 1 do
      count.(touched.(t)) <- 0
    done
  done;
  { design; partitions; activity; covers = !covers }

let covers_design t = t.covers

let check_bp t p =
  if p < 0 || p >= Array.length t.partitions then
    invalid_arg "Compatibility: partition index out of range"

let active t ~bp ~config =
  check_bp t bp;
  if config < 0 || config >= Design.configuration_count t.design then
    invalid_arg "Compatibility.active: configuration index out of range";
  Cfgset.mem t.activity.(bp) config

let activity t p =
  check_bp t p;
  t.activity.(p)
