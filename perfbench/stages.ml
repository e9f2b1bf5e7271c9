(* The stage mirror of the traced run.

   After a measured operation, each layer's public function is called
   again from here on the same input, inside a span named after the
   layer, in the order [Engine.solve] and [Tool_flow.run] call them.
   "Top-level" stages are the calls the engine makes itself for one
   budget attempt; their summed time, subtracted from a timed
   [Engine.solve] on the same input, is the engine's residual.
   "Nested" call sites (the compatibility pass inside [Scheme.make] and
   on entry to an allocator, the connectivity matrix inside the
   clustering and the reference schemes) are timed separately and are
   not part of that sum. *)

open Prcore

let options = Engine.default_options
let deadline_ms = 250.

(* Per-run tallies of what the spans cannot carry. *)
type tally = {
  mutable solves : int;
  mutable residual_ms : float;
  mutable cost_evaluations : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable escalations : int;
  mutable sets : int;
  mutable allocations : int;
  mutable feasible : int;
  mutable trials : int;
  mutable moves : int;
  mutable bytes : int;
  mutable overshoot_ms : float list;
  mutable deadline_ratios : float list;
  mutable hit_ms : float list;
  mutable miss_ms : float list;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable checks : int;
  mutable failures : string list;
}

let tally () =
  { solves = 0; residual_ms = 0.; cost_evaluations = 0; memo_hits = 0;
    memo_misses = 0; escalations = 0; sets = 0; allocations = 0;
    feasible = 0; trials = 0; moves = 0; bytes = 0; overshoot_ms = [];
    deadline_ratios = []; hit_ms = []; miss_ms = []; cache_hits = 0;
    cache_lookups = 0; checks = 0; failures = [] }

let fail t fmt = Printf.ksprintf (fun m -> t.failures <- m :: t.failures) fmt

(* One oracle check: counted, and recorded as a failure when it fails. *)
let expect t ok fmt =
  t.checks <- t.checks + 1;
  Printf.ksprintf (fun m -> if not ok then t.failures <- m :: t.failures) fmt

let modular_frames design =
  (Cost.evaluate (Scheme.one_module_per_region design)).Cost.total_frames

(* Proposed over one-module-per-region frames; undefined when the
   modular scheme never reconfigures. Averaged arithmetically over
   designs: a design whose proposed scheme fits fully static has zero
   frames, which a geometric mean cannot carry. *)
let frames_ratio ~modular total =
  if modular = 0 then None else Some (float_of_int total /. float_of_int modular)

let assignment (s : Scheme.t) =
  List.mapi (fun p bp -> (bp, s.Scheme.placement.(p))) (Array.to_list s.Scheme.partitions)

(* The budgets [Engine.solve] attempts: under [Auto], the smallest
   device fitting the single-region lower bound and each next larger
   one, [escalations + 1] in all. *)
let attempted_budgets (o : Engine.outcome) = function
  | Engine.Budget b -> [ b ]
  | Engine.Fixed d -> [ Fpga.Device.resources d ]
  | Engine.Auto ->
    let design = o.Engine.design in
    let lower_bound =
      Fpga.Resource.add
        (Fpga.Tile.quantize (Prdesign.Design.min_region_requirement design))
        design.Prdesign.Design.static_overhead
    in
    let rec chain device k =
      if k = 0 then [ device ]
      else
        match Fpga.Device.next_larger device with
        | Some next -> device :: chain next (k - 1)
        | None -> [ device ]
    in
    (match Fpga.Device.smallest_fitting lower_bound with
     | None -> []
     | Some first ->
       List.map Fpga.Device.resources (chain first o.Engine.escalations))

(* One budget attempt along the greedy path: single-region baseline,
   clustering, covering, fully-static baseline, then the allocator on
   every candidate set. Returns the summed top-level stage time. *)
let greedy_attempt tr t ~budget design =
  let top = ref 0. in
  let stage name f =
    let r, ms = Trace.timed tr name f in
    top := !top +. ms;
    r
  in
  let single = stage "scheme.single_region" (fun () -> Scheme.single_region design) in
  let single_eval = stage "cost.evaluate" (fun () -> Cost.evaluate single) in
  if Cost.fits single_eval ~budget then begin
    let partitions =
      stage "cluster.agglomerate" (fun () ->
          Cluster.Agglomerative.run ~freq_rule:options.Engine.freq_rule
            ~clique_limit:options.Engine.clique_limit design)
    in
    let sets =
      stage "covering.candidate_sets" (fun () ->
          Covering.candidate_sets ~max_sets:options.Engine.max_candidate_sets
            design partitions)
    in
    t.sets <- t.sets + List.length sets;
    let static = stage "scheme.fully_static" (fun () -> Scheme.fully_static design) in
    ignore (stage "cost.evaluate" (fun () -> Cost.evaluate static));
    ignore
      (Trace.span tr "compatibility.analyse" (fun () ->
           Compatibility.analyse design static.Scheme.partitions));
    List.iter
      (fun set ->
        ignore
          (Trace.span tr "compatibility.analyse" (fun () ->
               Compatibility.analyse design (Array.of_list set)));
        let scheme =
          stage "allocator.allocate" (fun () ->
              Allocator.allocate ~options:options.Engine.allocator ~budget
                design set)
        in
        t.allocations <- t.allocations + 1;
        if Option.is_some scheme then t.feasible <- t.feasible + 1)
      sets
  end;
  !top

(* The greedy layers on a design too large for them to finish, as a
   deadline-bound greedy solve meets them: clustering, covering and the
   allocator on the first candidate set, each under its own fresh
   deadline so that every stage runs. *)
let greedy_under_deadline tr t ~budget design =
  let stop () =
    let g = Prguard.Budget.make ~deadline_ms () in
    fun () -> Prguard.Budget.interrupted g
  in
  let partitions =
    Trace.span tr "cluster.agglomerate" (fun () ->
        Cluster.Agglomerative.run ~freq_rule:options.Engine.freq_rule
          ~clique_limit:options.Engine.clique_limit ~stop:(stop ()) design)
  in
  let sets =
    Trace.span tr "covering.candidate_sets" (fun () ->
        Covering.candidate_sets ~max_sets:options.Engine.max_candidate_sets
          ~stop:(stop ()) design partitions)
  in
  t.sets <- t.sets + List.length sets;
  match sets with
  | [] -> ()
  | first :: _ ->
    let guard = Prguard.Budget.make ~deadline_ms () in
    let scheme =
      Trace.span tr "allocator.allocate" (fun () ->
          Allocator.allocate ~options:options.Engine.allocator ~guard ~budget
            design first)
    in
    t.allocations <- t.allocations + 1;
    if Option.is_some scheme then t.feasible <- t.feasible + 1

let multilevel_options =
  { Multilevel.default_options with
    Multilevel.promote_static = options.Engine.allocator.Allocator.promote_static }

(* One multilevel V-cycle run through [stage] (a span); its statistics
   are tallied. *)
let multilevel_allocate ~stage t ~budget design nodes =
  let scheme, stats =
    stage "multilevel.allocate" (fun () ->
        Multilevel.allocate_stats ~options:multilevel_options ~budget design
          nodes)
  in
  t.trials <- t.trials + stats.Multilevel.trials;
  t.moves <- t.moves + stats.Multilevel.moves;
  scheme

(* One budget attempt along the multilevel path: single-region and
   fully-static baselines, the mode-level node set, one V-cycle and the
   evaluation it stores for the engine. *)
let multilevel_attempt tr t ~budget design =
  let top = ref 0. in
  let stage name f =
    let r, ms = Trace.timed tr name f in
    top := !top +. ms;
    r
  in
  let single = stage "scheme.single_region" (fun () -> Scheme.single_region design) in
  let single_eval = stage "cost.evaluate" (fun () -> Cost.evaluate single) in
  if Cost.fits single_eval ~budget then begin
    let nodes = stage "multilevel.nodes" (fun () -> Multilevel.nodes design) in
    let static = stage "scheme.fully_static" (fun () -> Scheme.fully_static design) in
    ignore (stage "cost.evaluate" (fun () -> Cost.evaluate static));
    ignore
      (Trace.span tr "compatibility.analyse" (fun () ->
           Compatibility.analyse design static.Scheme.partitions));
    ignore
      (Trace.span tr "compatibility.analyse" (fun () ->
           Compatibility.analyse design (Array.of_list nodes)));
    match multilevel_allocate ~stage t ~budget design nodes with
    | None -> ()
    | Some s ->
      ignore (stage "cost.evaluate" (fun () -> Cost.evaluate s));
      ignore
        (Trace.span tr "compatibility.analyse" (fun () ->
             Compatibility.analyse design s.Scheme.partitions))
  end;
  !top

type path = Greedy | Multilevel_path

let strategy_of = function
  | Greedy -> Strategy.Greedy
  | Multilevel_path -> Strategy.Multilevel

(* [Engine.solve] on the input, then its stages one by one. *)
let solve tr t ~path ~target design =
  let result, solve_ms =
    Trace.timed tr "engine.solve" (fun () ->
        Engine.solve ~strategy:(strategy_of path) ~target design)
  in
  match result with
  | Error m ->
    fail t "%s: %s" design.Prdesign.Design.name m;
    None
  | Ok o ->
    let top =
      List.fold_left
        (fun acc budget ->
          acc
          +.
          match path with
          | Greedy -> greedy_attempt tr t ~budget design
          | Multilevel_path -> multilevel_attempt tr t ~budget design)
        0.
        (attempted_budgets o target)
    in
    ignore
      (Trace.span tr "prgraph.conn_matrix" (fun () ->
           Prgraph.Conn_matrix.make design));
    ignore
      (Trace.span tr "scheme.make" (fun () ->
           Scheme.make design (assignment o.Engine.scheme)));
    t.solves <- t.solves + 1;
    t.residual_ms <- t.residual_ms +. (solve_ms -. top);
    t.cost_evaluations <- t.cost_evaluations + o.Engine.cost_evaluations;
    t.memo_hits <- t.memo_hits + o.Engine.search.Engine.memo_hits;
    t.memo_misses <- t.memo_misses + o.Engine.search.Engine.memo_misses;
    t.escalations <- t.escalations + o.Engine.escalations;
    Some o

let largest_device () =
  List.fold_left
    (fun best d -> if Fpga.Device.compare_capacity d best > 0 then d else best)
    (List.hd Fpga.Device.catalogue) Fpga.Device.catalogue

(* The implementation stages of [Tool_flow.run] on a solved outcome:
   placement, placeability estimate, bitstreams, the fault-injected
   adaptation walk, and the outcome oracle. *)
let implement tr t ~walk_seed (o : Engine.outcome) =
  let scheme = o.Engine.scheme in
  let device =
    match o.Engine.device with
    | Some d -> d
    | None ->
      (match Fpga.Device.smallest_fitting o.Engine.evaluation.Cost.used with
       | Some d -> d
       | None -> largest_device ())
  in
  let layout = Floorplan.Layout.make device in
  let regions = scheme.Scheme.region_count in
  let demands =
    Array.init (regions + 1) (fun i ->
        Floorplan.Placer.demand_of_resources
          (if i < regions then Scheme.region_resources scheme i
           else Scheme.static_resources scheme))
  in
  let placement =
    Trace.span tr "floorplan.place" (fun () -> Floorplan.Placer.place layout demands)
  in
  ignore
    (Trace.span tr "floorplan.assess" (fun () ->
         Floorplan.Estimate.assess (Floorplan.Estimate.create layout)
           (Cost.placement_demands scheme)));
  let repository =
    Trace.span tr "bitgen.build" (fun () ->
        Bitgen.Repository.build ~placement:placement.Floorplan.Placer.placements
          ~device scheme)
  in
  t.bytes <- t.bytes + Bitgen.Repository.total_bytes repository;
  let configs = Prdesign.Design.configuration_count o.Engine.design in
  if configs >= 2 then begin
    let r = Flow.Tool_flow.default_resilience in
    let rng = Synth.Rng.make walk_seed in
    let sequence =
      Runtime.Manager.random_walk
        ~rand:(fun n -> Synth.Rng.int rng n)
        ~configs ~steps:r.Flow.Tool_flow.walk_steps ~initial:0
    in
    ignore
      (Trace.span tr "runtime.simulate" (fun () ->
           Runtime.Resilient.simulate ~icap:Fpga.Icap.default
             ~memory:r.Flow.Tool_flow.memory ~fault:r.Flow.Tool_flow.fault
             scheme ~initial:0 ~sequence))
  end;
  let diagnostics =
    Trace.span tr "verify.check" (fun () -> Prverify.Checker.check_outcome o)
  in
  expect t (Prverify.Checker.ok diagnostics) "oracle rejects %s"
    o.Engine.design.Prdesign.Design.name

(* A solve by each strategy under one wall-clock deadline. *)
let deadline_solves tr t ~target ~modular design =
  List.iter
    (fun strategy ->
      let guard = Prguard.Budget.make ~deadline_ms () in
      let result, ms =
        Trace.timed tr "guard.deadline_solve" (fun () ->
            Engine.solve ~strategy ~budget:guard ~target design)
      in
      t.overshoot_ms <- (ms -. deadline_ms) :: t.overshoot_ms;
      match result with
      | Error m ->
        fail t "%s under a deadline (%s): %s" design.Prdesign.Design.name
          (Strategy.to_string strategy) m
      | Ok o ->
        Option.iter
          (fun r -> t.deadline_ratios <- r :: t.deadline_ratios)
          (frames_ratio ~modular o.Engine.evaluation.Cost.total_frames);
        expect t
          (Prverify.Checker.ok (Prverify.Checker.check_outcome o))
          "oracle rejects %s under a deadline (%s)" design.Prdesign.Design.name
          (Strategy.to_string strategy))
    Strategy.all

let design_line design =
  String.map
    (fun c -> if c = '\n' || c = '\r' then ' ' else c)
    (Prdesign.Design_xml.to_string design)

let solve_line ~client design =
  Printf.sprintf "SOLVE client=%s inline:%s" client (design_line design)

(* Shedding would degrade answers and keep them out of the cache, so the
   thresholds sit far above any queue wait two clients can cause. *)
let serve_config ~jobs ~target ~strategy =
  { (Prserve.Server.default_config ()) with
    Prserve.Server.target;
    strategy;
    jobs;
    cache_capacity = 1 lsl 16;
    shed_thresholds_ms = [| 5_000.; 20_000.; 60_000. |] }

(* Split serve replies into hits and misses; anything but an OK reply is
   a failure. *)
let classify t reply ms =
  match Prserve.Protocol.parse_reply reply with
  | Ok (Prserve.Protocol.R_solved s) ->
    if s.Prserve.Protocol.cached then t.hit_ms <- ms :: t.hit_ms
    else t.miss_ms <- ms :: t.miss_ms;
    Some s
  | Ok _ | Error _ ->
    fail t "serve answered %s" reply;
    None

(* The design through a fresh in-process server twice: a miss, then a
   hit that must carry the same scheme. *)
let serve_twice tr t ~target ~strategy design =
  match Prserve.Server.create (serve_config ~jobs:1 ~target ~strategy) with
  | Error m -> fail t "serve: %s" m
  | Ok server ->
    let line = solve_line ~client:"probe" design in
    let ask () =
      let reply, ms =
        Trace.timed tr "serve.request" (fun () ->
            Prserve.Server.handle_line server line)
      in
      classify t reply ms
    in
    let first = ask () in
    let second = ask () in
    (match (first, second) with
     | Some a, Some b ->
       expect t
         (a.Prserve.Protocol.signature = b.Prserve.Protocol.signature
          && b.Prserve.Protocol.cached)
         "serve repeat of %s differs" design.Prdesign.Design.name
     | _ -> ());
    let cache = Prserve.Server.cache server in
    t.cache_hits <- t.cache_hits + Prserve.Cache.hits cache;
    t.cache_lookups <-
      t.cache_lookups + Prserve.Cache.hits cache + Prserve.Cache.misses cache;
    Prserve.Server.drain server
