(* Reference reconfiguration replay for the tests. The library keeps one
   simulator, [Runtime.Resilient.simulate], which reads the scheme's
   index. This module keeps the two replays it replaced — the plain
   stateful walk (formerly [Manager.simulate]) and the fetch-path walk
   on top of it (formerly [Fetch.simulate_walk]) — written against a
   from-scratch scan of the placement, so the equivalence tests can pin
   the indexed simulator to them bit for bit. *)

module Scheme = Prcore.Scheme
module Manager = Runtime.Manager
module Fetch = Runtime.Fetch

(* Naive scheme queries: every call rescans the placement. *)

let region_members (s : Scheme.t) r =
  let acc = ref [] in
  Array.iteri
    (fun p -> function
      | Scheme.Region r' when r' = r -> acc := p :: !acc
      | Scheme.Region _ | Scheme.Static -> ())
    s.placement;
  List.rev !acc

let region_frames (s : Scheme.t) r =
  Fpga.Tile.frames_of_resources
    (List.fold_left
       (fun acc p ->
         Fpga.Resource.max acc s.partitions.(p).Cluster.Base_partition.resources)
       Fpga.Resource.zero (region_members s r))

let active_partition (s : Scheme.t) ~config ~region =
  List.find_opt
    (fun p -> Prcore.Compatibility.active s.analysis ~bp:p ~config)
    (region_members s region)

let initial_resident s ~initial r =
  match active_partition s ~config:initial ~region:r with
  | Some p -> p
  | None -> List.hd (region_members s r)

(* The plain stateful replay: regions the target configuration uses are
   brought up to date, idle regions keep their bitstream. *)
let simulate ?(icap = Fpga.Icap.default) ?(trace = fun _ -> ())
    (scheme : Scheme.t) ~initial ~sequence =
  let regions = scheme.region_count in
  let resident = Array.init regions (initial_resident scheme ~initial) in
  let region_loads = Array.make regions 0 in
  let current = ref initial in
  let step = ref 0 in
  let transitions = ref 0 in
  let total_frames = ref 0 in
  let total_seconds = ref 0. in
  let max_frames = ref 0 in
  List.iter
    (fun target ->
      incr step;
      let reconfigured = ref [] in
      let frames = ref 0 in
      if target <> !current then begin
        incr transitions;
        for r = regions - 1 downto 0 do
          match active_partition scheme ~config:target ~region:r with
          | None -> ()
          | Some needed ->
            if resident.(r) <> needed then begin
              resident.(r) <- needed;
              region_loads.(r) <- region_loads.(r) + 1;
              reconfigured := r :: !reconfigured;
              frames := !frames + region_frames scheme r
            end
        done
      end;
      let seconds = Fpga.Icap.seconds_of_frames icap !frames in
      total_frames := !total_frames + !frames;
      total_seconds := !total_seconds +. seconds;
      if !frames > !max_frames then max_frames := !frames;
      trace
        { Manager.step = !step;
          from_config = !current;
          to_config = target;
          regions_reconfigured = !reconfigured;
          frames = !frames;
          seconds };
      current := target)
    sequence;
  { Manager.steps = !step;
    transitions = !transitions;
    total_frames = !total_frames;
    total_seconds = !total_seconds;
    max_frames = !max_frames;
    mean_frames =
      (if !transitions = 0 then 0.
       else float_of_int !total_frames /. float_of_int !transitions);
    region_loads }

(* The fetch-path walk: every region reload of [simulate] fetches its
   bitstream (through [cache] when given) before streaming it to the
   ICAP. *)
let simulate_walk ?(icap = Fpga.Icap.default) ?cache ~memory scheme ~initial
    ~sequence =
  let reconfigurations = ref 0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let icap_time = ref 0. in
  let fetch_time = ref 0. in
  let trace (event : Manager.event) =
    List.iter
      (fun region ->
        incr reconfigurations;
        let frames = region_frames scheme region in
        icap_time := !icap_time +. Fpga.Icap.seconds_of_frames icap frames;
        let partition =
          match
            active_partition scheme ~config:event.Manager.to_config ~region
          with
          | Some p -> p
          | None -> -1
        in
        let stall =
          match cache with
          | None ->
            incr misses;
            Fetch.fetch_seconds memory ~frames
          | Some cache ->
            let a = Fetch.access cache memory ~key:(region, partition) ~frames in
            if a.Fetch.hit then incr hits else incr misses;
            a.Fetch.seconds
        in
        fetch_time := !fetch_time +. stall)
      event.Manager.regions_reconfigured
  in
  let (_ : Manager.stats) = simulate ~icap ~trace scheme ~initial ~sequence in
  { Fetch.reconfigurations = !reconfigurations;
    hits = !hits;
    misses = !misses;
    icap_seconds = !icap_time;
    fetch_seconds = !fetch_time;
    total_seconds = !icap_time +. !fetch_time }

(* The library simulator, fault-free, checked against [simulate] on the
   same walk: returns its statistics, fails on any divergence. The
   library runs first, so its own argument checks are the ones that
   raise. *)
let pinned ?icap ?trace scheme ~initial ~sequence =
  match Runtime.Resilient.simulate ?icap ?trace scheme ~initial ~sequence with
  | Error f -> failwith (Runtime.Resilient.render_failure f)
  | Ok o ->
    let stats = o.Runtime.Resilient.stats in
    if stats <> simulate ?icap scheme ~initial ~sequence then
      failwith "Resilient.simulate diverged from the reference replay";
    stats
