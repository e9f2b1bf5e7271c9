(* Tests for the runtime substrate: transition tables and the stateful
   reconfiguration simulator ([Resilient.simulate], fault-free, pinned to
   the reference replay in [Reference_runtime] on every call). *)

module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Transition = Runtime.Transition
module Manager = Runtime.Manager

let example = Design_library.running_example
let modular = Scheme.one_module_per_region example
let single = Scheme.single_region example

let transition_tests =
  [ Alcotest.test_case "matrix agrees with the cost model" `Quick (fun () ->
        let t = Transition.make modular in
        let configs = Design.configuration_count example in
        for i = 0 to configs - 1 do
          for j = 0 to configs - 1 do
            Alcotest.(check int) "entry"
              (if i = j then 0 else Cost.pairwise_frames modular i j)
              (Transition.frames t i j)
          done
        done);
    Alcotest.test_case "total matches evaluation" `Quick (fun () ->
        let t = Transition.make modular in
        Alcotest.(check int) "total"
          (Cost.evaluate modular).Cost.total_frames
          (Transition.total_frames t));
    Alcotest.test_case "worst matches evaluation" `Quick (fun () ->
        let t = Transition.make modular in
        match Transition.worst t with
        | Some (_, _, frames) ->
          Alcotest.(check int) "worst"
            (Cost.evaluate modular).Cost.worst_frames frames
        | None -> Alcotest.fail "expected a worst transition");
    Alcotest.test_case "seconds consistent with icap model" `Quick (fun () ->
        let icap = Fpga.Icap.default in
        let t = Transition.make ~icap modular in
        Alcotest.(check (float 1e-12)) "seconds"
          (Fpga.Icap.seconds_of_frames icap (Transition.frames t 0 1))
          (Transition.seconds t 0 1));
    Alcotest.test_case "index range checked" `Quick (fun () ->
        let t = Transition.make modular in
        match Transition.frames t 0 99 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

let simulate = Reference_runtime.pinned

let manager_tests =
  [ Alcotest.test_case "empty sequence has zero stats" `Quick (fun () ->
        let stats = simulate modular ~initial:0 ~sequence:[] in
        Alcotest.(check int) "steps" 0 stats.Manager.steps;
        Alcotest.(check int) "frames" 0 stats.total_frames);
    Alcotest.test_case "self-transition costs nothing" `Quick (fun () ->
        let stats = simulate modular ~initial:0 ~sequence:[ 0; 0; 0 ] in
        Alcotest.(check int) "steps" 3 stats.Manager.steps;
        Alcotest.(check int) "transitions" 0 stats.transitions;
        Alcotest.(check int) "frames" 0 stats.total_frames);
    Alcotest.test_case "single hop equals the pairwise cost" `Quick (fun () ->
        (* From a fresh initial configuration, one hop writes exactly the
           pairwise transition frames. *)
        let stats = simulate modular ~initial:0 ~sequence:[ 1 ] in
        Alcotest.(check int) "frames" (Cost.pairwise_frames modular 0 1)
          stats.Manager.total_frames);
    Alcotest.test_case "don't-care regions retain content" `Quick (fun () ->
        (* Montone design: hopping between the two disjoint configurations
           never reconfigures a one-module-per-region layout. *)
        let d = Design_library.montone_example in
        let s = Scheme.one_module_per_region d in
        let stats =
          simulate s ~initial:0 ~sequence:[ 1; 0; 1; 0; 1 ]
        in
        Alcotest.(check int) "zero frames" 0 stats.Manager.total_frames);
    Alcotest.test_case "single region reconfigures on every change" `Quick
      (fun () ->
        let frames = Scheme.region_frames single 0 in
        let stats =
          simulate single ~initial:0 ~sequence:[ 1; 2; 3; 4; 0 ]
        in
        Alcotest.(check int) "5 reloads" (5 * frames) stats.Manager.total_frames;
        Alcotest.(check int) "region loads" 5 stats.region_loads.(0));
    Alcotest.test_case "walk cost never exceeds pairwise proxy" `Quick
      (fun () ->
        (* Holds for the running example because every module is present
           in every configuration, so regions are never idle and the
           symmetric pairwise rule equals the directional one. For designs
           with absent modules only the directional rule is an upper
           bound (see test_properties.ml). *)
        let rng = Synth.Rng.make 5 in
        let sequence =
          Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:(Design.configuration_count example)
            ~steps:500 ~initial:0
        in
        let stats = simulate modular ~initial:0 ~sequence in
        let proxy = ref 0 in
        let prev = ref 0 in
        List.iter
          (fun c ->
            proxy := !proxy + Cost.pairwise_frames modular !prev c;
            prev := c)
          sequence;
        Alcotest.(check bool) "simulated <= proxy" true
          (stats.Manager.total_frames <= !proxy));
    Alcotest.test_case "max and mean are consistent" `Quick (fun () ->
        let stats =
          simulate modular ~initial:0 ~sequence:[ 1; 2; 3; 0; 4 ]
        in
        Alcotest.(check bool) "mean <= max" true
          (stats.Manager.mean_frames <= float_of_int stats.max_frames);
        Alcotest.(check bool) "total = sum" true
          (stats.total_frames
           <= stats.transitions * stats.max_frames));
    Alcotest.test_case "trace observes every step" `Quick (fun () ->
        let events = ref [] in
        let (_ : Manager.stats) =
          simulate modular ~initial:0 ~sequence:[ 1; 1; 2 ]
            ~trace:(fun e -> events := e :: !events)
        in
        Alcotest.(check int) "three events" 3 (List.length !events);
        let steps = List.rev_map (fun e -> e.Manager.step) !events in
        Alcotest.(check (list int)) "numbered" [ 1; 2; 3 ] steps);
    Alcotest.test_case "icap overhead counted per reconfiguration" `Quick
      (fun () ->
        let icap = Fpga.Icap.make ~overhead_s:1e-3 () in
        let stats =
          simulate ~icap single ~initial:0 ~sequence:[ 1; 2 ]
        in
        Alcotest.(check bool) "at least 2 ms of overhead" true
          (stats.Manager.total_seconds >= 2e-3));
    Alcotest.test_case "out-of-range configuration rejected" `Quick (fun () ->
        match simulate modular ~initial:0 ~sequence:[ 99 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

let walk_tests =
  [ Alcotest.test_case "random_walk length and range" `Quick (fun () ->
        let rng = Synth.Rng.make 9 in
        let walk =
          Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:5 ~steps:200 ~initial:0
        in
        Alcotest.(check int) "length" 200 (List.length walk);
        Alcotest.(check bool) "range" true
          (List.for_all (fun c -> c >= 0 && c < 5) walk));
    Alcotest.test_case "random_walk avoids self transitions" `Quick (fun () ->
        let rng = Synth.Rng.make 10 in
        let walk =
          Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:3 ~steps:100 ~initial:0
        in
        let rec no_repeat prev = function
          | [] -> true
          | c :: rest -> c <> prev && no_repeat c rest
        in
        Alcotest.(check bool) "no self hop" true (no_repeat 0 walk));
    Alcotest.test_case "random_walk needs two configurations" `Quick
      (fun () ->
        match
          Manager.random_walk ~rand:(fun _ -> 0) ~configs:1 ~steps:5 ~initial:0
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

(* Property: simulated walks on engine outputs are cheaper than on the
   single-region scheme (whole-region reloads dominate). *)
let prop_walk_proposed_beats_single =
  QCheck2.Test.make ~name:"walk: proposed <= single region" ~count:25
    QCheck2.Gen.(0 -- 2_000)
    (fun seed ->
      let d =
        Synth.Generator.generate (Synth.Rng.make seed)
          Synth.Generator.Logic_intensive ~index:seed
      in
      if Design.configuration_count d < 2 then true
      else
        match Prcore.Engine.solve ~target:Prcore.Engine.Auto d with
        | Error _ -> QCheck2.assume_fail ()
        | Ok o ->
          let rng = Synth.Rng.make (seed + 1) in
          let sequence =
            Manager.random_walk
              ~rand:(fun n -> Synth.Rng.int rng n)
              ~configs:(Design.configuration_count d)
              ~steps:300 ~initial:0
          in
          let proposed =
            (simulate o.Prcore.Engine.scheme ~initial:0 ~sequence)
              .Manager.total_frames
          in
          let single =
            (simulate (Scheme.single_region d) ~initial:0 ~sequence)
              .Manager.total_frames
          in
          proposed <= single)


let markov_tests =
  [ Alcotest.test_case "uniform chain is row-stochastic, no self loops" `Quick
      (fun () ->
        let chain = Runtime.Markov.uniform ~configs:4 in
        for i = 0 to 3 do
          let sum = ref 0. in
          for j = 0 to 3 do
            sum := !sum +. Runtime.Markov.probability chain ~from:i ~into:j
          done;
          Alcotest.(check (float 1e-9)) "row sum" 1. !sum;
          Alcotest.(check (float 1e-12)) "diagonal" 0.
            (Runtime.Markov.probability chain ~from:i ~into:i)
        done);
    Alcotest.test_case "make validates" `Quick (fun () ->
        Alcotest.(check bool) "bad sum" true
          (Result.is_error (Runtime.Markov.make [| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |]));
        Alcotest.(check bool) "negative" true
          (Result.is_error (Runtime.Markov.make [| [| 1.5; -0.5 |]; [| 0.5; 0.5 |] |]));
        Alcotest.(check bool) "ragged" true
          (Result.is_error (Runtime.Markov.make [| [| 1. |]; [| 0.5; 0.5 |] |]));
        Alcotest.(check bool) "good" true
          (Result.is_ok (Runtime.Markov.make [| [| 0.; 1. |]; [| 1.; 0. |] |])));
    Alcotest.test_case "stationary of uniform chain is uniform" `Quick
      (fun () ->
        let pi = Runtime.Markov.stationary (Runtime.Markov.uniform ~configs:5) in
        Array.iter
          (fun p -> Alcotest.(check (float 1e-9)) "1/5" 0.2 p)
          pi);
    Alcotest.test_case "stationary of a biased chain favours the sink" `Quick
      (fun () ->
        let chain =
          Runtime.Markov.make_exn
            [| [| 0.; 1. |]; [| 0.9; 0.1 |] |]
        in
        let pi = Runtime.Markov.stationary chain in
        (* Solves pi = pi P: pi0 = 0.9 pi1 / (pi0+pi1=1). *)
        Alcotest.(check bool) "state 1 heavier" true (pi.(1) > pi.(0)));
    Alcotest.test_case "edge rates sum to the change probability" `Quick
      (fun () ->
        let rng = Synth.Rng.make 4 in
        let chain =
          Runtime.Markov.random ~rand:(fun () -> Synth.Rng.float rng)
            ~configs:6 ()
        in
        let rates = Runtime.Markov.edge_rates chain in
        let total = Array.fold_left (Array.fold_left ( +. )) 0. rates in
        (* No self transitions in random chains: every step changes. *)
        Alcotest.(check (float 1e-6)) "sums to 1" 1. total);
    Alcotest.test_case "expected frames match a long simulated walk" `Quick
      (fun () ->
        let scheme = modular in
        let configs = Design.configuration_count example in
        let chain = Runtime.Markov.uniform ~configs in
        let transition = Runtime.Transition.make scheme in
        let expected =
          Runtime.Markov.expected_frames_per_step chain
            ~frames:(Runtime.Transition.frames transition)
        in
        let rng = Synth.Rng.make 123 in
        let sequence =
          Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs ~steps:30_000 ~initial:0
        in
        let stats = simulate scheme ~initial:0 ~sequence in
        let measured =
          float_of_int stats.Manager.total_frames /. 30_000.
        in
        (* The stateful walk can only do better or equal; for this scheme
           the two agree within a few percent. *)
        Alcotest.(check bool) "within 10%" true
          (Float.abs (measured -. expected) /. expected < 0.10));
    Alcotest.test_case "random chain is deterministic in its stream" `Quick
      (fun () ->
        let make seed =
          let rng = Synth.Rng.make seed in
          Runtime.Markov.random ~rand:(fun () -> Synth.Rng.float rng)
            ~configs:4 ()
        in
        let a = make 9 and b = make 9 in
        for i = 0 to 3 do
          for j = 0 to 3 do
            Alcotest.(check (float 0.)) "equal"
              (Runtime.Markov.probability a ~from:i ~into:j)
              (Runtime.Markov.probability b ~from:i ~into:j)
          done
        done) ]


module Fetch = Runtime.Fetch

(* The fault-free fetch-path report of a walk. *)
let fetch_walk ?cache ~memory scheme ~initial ~sequence =
  match Runtime.Resilient.simulate ?cache ~memory scheme ~initial ~sequence with
  | Ok { Runtime.Resilient.fetch = Some report; _ } -> report
  | Ok _ | Error _ -> Alcotest.fail "expected a fault-free fetch report"

let fetch_tests =
  [ Alcotest.test_case "fetch time = latency + bytes/bandwidth" `Quick
      (fun () ->
        let memory =
          { Fetch.bandwidth_bytes_per_s = 164_000.; latency_s = 0.5 }
        in
        (* 10 frames = 1640 bytes at 164 kB/s = 10 ms, plus latency. *)
        Alcotest.(check (float 1e-9)) "time" 0.51
          (Fetch.fetch_seconds memory ~frames:10));
    Alcotest.test_case "zero frames fetch for free" `Quick (fun () ->
        Alcotest.(check (float 0.)) "free" 0.
          (Fetch.fetch_seconds Fetch.flash ~frames:0));
    Alcotest.test_case "flash slower than ddr" `Quick (fun () ->
        Alcotest.(check bool) "slower" true
          (Fetch.fetch_seconds Fetch.flash ~frames:100
           > Fetch.fetch_seconds Fetch.ddr ~frames:100));
    Alcotest.test_case "cache hit after miss" `Quick (fun () ->
        let cache = Fetch.create_cache ~capacity_frames:100 () in
        let miss = Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:50 in
        Alcotest.(check bool) "miss first" false miss.Fetch.hit;
        Alcotest.(check bool) "miss costs" true (miss.Fetch.seconds > 0.);
        let hit = Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:50 in
        Alcotest.(check bool) "hit second" true hit.Fetch.hit;
        Alcotest.(check (float 0.)) "hit free" 0. hit.Fetch.seconds;
        Alcotest.(check (pair int int)) "stats" (1, 1) (Fetch.stats cache));
    Alcotest.test_case "oversized bitstream never cached" `Quick (fun () ->
        let cache = Fetch.create_cache ~capacity_frames:10 () in
        let a = Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:20 in
        let b = Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:20 in
        Alcotest.(check bool) "both miss" true
          ((not a.Fetch.hit) && not b.Fetch.hit);
        Alcotest.(check int) "nothing resident" 0 (Fetch.resident_frames cache));
    Alcotest.test_case "lru evicts the cold entry" `Quick (fun () ->
        let cache = Fetch.create_cache ~policy:Fetch.Lru ~capacity_frames:100 () in
        ignore (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:50);
        (* Touch (0,0) so (0,1) becomes the LRU victim. *)
        ignore (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 2) ~frames:50);
        Alcotest.(check bool) "(0,0) still hot" true
          (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50).Fetch.hit;
        Alcotest.(check bool) "(0,1) evicted" false
          (Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:50).Fetch.hit);
    Alcotest.test_case "fifo ignores recency" `Quick (fun () ->
        let cache = Fetch.create_cache ~policy:Fetch.Fifo ~capacity_frames:100 () in
        ignore (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:50);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 2) ~frames:50);
        (* FIFO evicted the oldest insert, (0,0), despite the recent touch. *)
        Alcotest.(check bool) "(0,0) evicted" false
          (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:50).Fetch.hit);
    Alcotest.test_case "largest-out keeps small residents" `Quick (fun () ->
        let cache =
          Fetch.create_cache ~policy:Fetch.Largest_out ~capacity_frames:100 ()
        in
        ignore (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:80);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:10);
        ignore (Fetch.access cache Fetch.flash ~key:(0, 2) ~frames:30);
        Alcotest.(check bool) "small survives" true
          (Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:10).Fetch.hit;
        Alcotest.(check bool) "big evicted" false
          (Fetch.access cache Fetch.flash ~key:(0, 0) ~frames:80).Fetch.hit);
    Alcotest.test_case "walk report: cache only helps" `Quick (fun () ->
        let rng = Synth.Rng.make 77 in
        let sequence =
          Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:(Design.configuration_count example)
            ~steps:400 ~initial:0
        in
        let plain =
          fetch_walk ~memory:Fetch.flash modular ~initial:0 ~sequence
        in
        let cached =
          fetch_walk
            ~cache:(Fetch.create_cache ~capacity_frames:10_000 ())
            ~memory:Fetch.flash modular ~initial:0 ~sequence
        in
        Alcotest.(check int) "same reload count" plain.Fetch.reconfigurations
          cached.Fetch.reconfigurations;
        Alcotest.(check (float 1e-9)) "same icap time" plain.Fetch.icap_seconds
          cached.Fetch.icap_seconds;
        Alcotest.(check bool) "cache saves fetch time" true
          (cached.Fetch.fetch_seconds <= plain.Fetch.fetch_seconds));
    Alcotest.test_case "walk report totals add up" `Quick (fun () ->
        let report =
          fetch_walk ~memory:Fetch.ddr modular ~initial:0
            ~sequence:[ 1; 2; 3; 0 ]
        in
        Alcotest.(check (float 1e-9)) "sum" report.Fetch.total_seconds
          (report.Fetch.icap_seconds +. report.Fetch.fetch_seconds)) ]


module Trace = Runtime.Trace

let trace_tests =
  [ Alcotest.test_case "record validates indices" `Quick (fun () ->
        match Trace.record example ~initial:0 ~sequence:[ 99 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "text round trip" `Quick (fun () ->
        let t = Trace.record example ~initial:0 ~sequence:[ 1; 2; 0; 4 ] in
        match Trace.of_string example (Trace.to_string example t) with
        | Ok t' ->
          Alcotest.(check int) "initial" t.Trace.initial t'.Trace.initial;
          Alcotest.(check (list int)) "sequence" t.Trace.sequence
            t'.Trace.sequence
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "comments and blanks ignored" `Quick (fun () ->
        let text =
          "# prpart-trace v1\n\ndesign running-example\n# hi\ninitial \
           conf1\n\nconf2\n"
        in
        match Trace.of_string example text with
        | Ok t -> Alcotest.(check (list int)) "sequence" [ 1 ] t.Trace.sequence
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "wrong design name rejected" `Quick (fun () ->
        let t = Trace.record example ~initial:0 ~sequence:[ 1 ] in
        let text = Trace.to_string example t in
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Trace.of_string Design_library.video_receiver text)));
    Alcotest.test_case "unknown configuration rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Trace.of_string example "initial confX\n")));
    Alcotest.test_case "missing initial rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error (Trace.of_string example "conf1\n")));
    Alcotest.test_case "simulate equals manager on the same walk" `Quick
      (fun () ->
        let t = Trace.record example ~initial:0 ~sequence:[ 1; 2; 3; 4; 0 ] in
        let via_trace =
          match Trace.simulate modular t with
          | Ok o -> o.Runtime.Resilient.stats
          | Error f -> Alcotest.fail (Runtime.Resilient.render_failure f)
        in
        let direct =
          Reference_runtime.simulate modular ~initial:0
            ~sequence:[ 1; 2; 3; 4; 0 ]
        in
        Alcotest.(check bool) "same stats" true (direct = via_trace));
    Alcotest.test_case "simulate rejects foreign schemes" `Quick (fun () ->
        let t = Trace.record example ~initial:0 ~sequence:[ 1 ] in
        let other =
          Scheme.one_module_per_region Design_library.video_receiver
        in
        match Trace.simulate other t with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "of_markov sampling follows the chain" `Quick
      (fun () ->
        let configs = Design.configuration_count example in
        let chain = Runtime.Markov.uniform ~configs in
        let rng = Synth.Rng.make 17 in
        let t =
          Trace.of_markov example ~chain
            ~rand:(fun () -> Synth.Rng.float rng)
            ~steps:2000 ~initial:0
        in
        Alcotest.(check int) "length" 2000 (Trace.length t);
        (* Uniform chain: each configuration visited a reasonable share. *)
        let counts = Array.make configs 0 in
        List.iter (fun c -> counts.(c) <- counts.(c) + 1) t.Trace.sequence;
        Array.iter
          (fun n -> Alcotest.(check bool) "visited enough" true (n > 200))
          counts);
    Alcotest.test_case "of_markov checks the chain size" `Quick (fun () ->
        let chain = Runtime.Markov.uniform ~configs:3 in
        match
          Trace.of_markov example ~chain ~rand:(fun () -> 0.5) ~steps:1
            ~initial:0
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let path = Filename.temp_file "trace" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let t = Trace.record example ~initial:2 ~sequence:[ 0; 1 ] in
            Trace.save_file example path t;
            match Trace.load_file example path with
            | Ok t' ->
              Alcotest.(check int) "initial" 2 t'.Trace.initial;
              Alcotest.(check (list int)) "sequence" [ 0; 1 ] t'.Trace.sequence
            | Error e -> Alcotest.fail e)) ]

let () =
  Alcotest.run "runtime"
    [ ("transition", transition_tests);
      ("manager", manager_tests);
      ("walk", walk_tests);
      ("markov", markov_tests);
      ("fetch", fetch_tests);
      ("trace", trace_tests);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_walk_proposed_beats_single ] ) ]
