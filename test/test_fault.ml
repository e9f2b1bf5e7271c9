(* Fault injection and the resilient reconfiguration runtime: injector
   determinism, recovery backoff, the bit-for-bit fault-free equivalence
   guarantee, policy semantics, and the CLI surface. *)

module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Engine = Prcore.Engine
module Injector = Prfault.Injector
module Recovery = Prfault.Recovery
module Reliability = Prfault.Reliability
module Manager = Runtime.Manager
module Fetch = Runtime.Fetch
module Resilient = Runtime.Resilient

(* ------------------------------------------------------------ fixtures *)

let case_study_scheme =
  lazy
    (match
       Engine.solve
         ~target:(Engine.Budget Design_library.case_study_budget)
         Design_library.video_receiver
     with
     | Ok o -> o.Engine.scheme
     | Error m -> Alcotest.fail ("case-study solve: " ^ m))

let walk ?(seed = 5) ?(steps = 120) design =
  let rng = Synth.Rng.make seed in
  Manager.random_walk
    ~rand:(fun n -> Synth.Rng.int rng n)
    ~configs:(Design.configuration_count design)
    ~steps ~initial:0

let receiver_walk = lazy (walk Design_library.video_receiver)

(* ------------------------------------------------------------ injector *)

let draw_pattern spec ops =
  let t = Injector.start spec in
  List.map (fun op -> Injector.draw t op) ops

let alternating n =
  List.concat (List.init n (fun _ -> [ Injector.Fetch_op; Injector.Program_op ]))

let injector_tests =
  [ Alcotest.test_case "disabled spec never fires" `Quick (fun () ->
        let t = Injector.start Injector.disabled in
        List.iter
          (fun op -> Alcotest.(check bool) "no fault" true (Injector.draw t op = None))
          (alternating 100);
        Alcotest.(check int) "count" 0 (Injector.faults_injected t);
        Alcotest.(check int) "ops" 200 (Injector.operations t));
    Alcotest.test_case "active flags rate and schedule specs" `Quick (fun () ->
        Alcotest.(check bool) "disabled" false (Injector.active Injector.disabled);
        Alcotest.(check bool) "rated" true
          (Injector.active (Injector.uniform ~rate:0.1 ()));
        Alcotest.(check bool) "zero rate" false
          (Injector.active (Injector.uniform ~rate:0. ()));
        Alcotest.(check bool) "scheduled" true
          (Injector.active
             { Injector.disabled with
               schedule = [ (3, Injector.Seu_upset) ] }));
    Alcotest.test_case "same seed replays the identical fault stream" `Quick
      (fun () ->
        let spec = Injector.uniform ~seed:11 ~rate:0.2 () in
        let ops = alternating 200 in
        Alcotest.(check bool) "streams equal" true
          (draw_pattern spec ops = draw_pattern spec ops));
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let ops = alternating 300 in
        Alcotest.(check bool) "streams differ" true
          (draw_pattern (Injector.uniform ~seed:1 ~rate:0.2 ()) ops
          <> draw_pattern (Injector.uniform ~seed:2 ~rate:0.2 ()) ops));
    Alcotest.test_case "jitter draws never perturb the fault stream" `Quick
      (fun () ->
        let spec = Injector.uniform ~seed:11 ~rate:0.2 () in
        let plain = draw_pattern spec (alternating 100) in
        let t = Injector.start spec in
        let interleaved =
          List.map
            (fun op ->
              let j = Injector.jitter t in
              Alcotest.(check bool) "jitter in [0, 1)" true (j >= 0. && j < 1.);
              Injector.draw t op)
            (alternating 100)
        in
        Alcotest.(check bool) "same faults" true (plain = interleaved));
    Alcotest.test_case "rate 1 faults every applicable operation" `Quick
      (fun () ->
        let t = Injector.start (Injector.uniform ~rate:1.0 ()) in
        List.iter
          (fun op ->
            match Injector.draw t op with
            | Some kind -> Alcotest.(check bool) "class" true (Injector.applies kind op)
            | None -> Alcotest.fail "rate 1 must fire")
          (alternating 50));
    Alcotest.test_case "schedule fires exactly at matching indices" `Quick
      (fun () ->
        let spec =
          { Injector.disabled with
            schedule =
              [ (0, Injector.Fetch_timeout); (3, Injector.Device_busy) ] }
        in
        (* ops: 0 fetch, 1 program, 2 fetch, 3 program, 4 fetch, ... *)
        let pattern = draw_pattern spec (alternating 3) in
        Alcotest.(check bool) "exact" true
          (pattern
          = [ Some Injector.Fetch_timeout; None; None;
              Some Injector.Device_busy; None; None ]));
    Alcotest.test_case "scheduled fault of the wrong class is skipped" `Quick
      (fun () ->
        let spec =
          { Injector.disabled with
            schedule = [ (0, Injector.Icap_crc_error) ] }
        in
        (* Index 0 is a fetch operation: a programming fault cannot
           apply there, and its index is consumed. *)
        Alcotest.(check bool) "skipped" true
          (draw_pattern spec (alternating 2) = [ None; None; None; None ]));
    Alcotest.test_case "burst faults arrive in runs" `Quick (fun () ->
        let spec =
          { Injector.disabled with
            seed = 3;
            rates = [ (Injector.Seu_upset, 0.15) ];
            burst = Some { Injector.start_probability = 1.0; length = 3 } }
        in
        let t = Injector.start spec in
        let fired =
          List.init 300 (fun _ -> Injector.draw t Injector.Program_op <> None)
        in
        Alcotest.(check bool) "some faults" true (List.mem true fired);
        (* Every maximal run of faults is >= the burst length (bursts may
           chain when the closing probabilistic draw fires again), except
           a run truncated by the end of the operation stream. *)
        let rec runs acc current = function
          | [] -> if current > 0 then `Truncated current :: acc else acc
          | true :: rest -> runs acc (current + 1) rest
          | false :: rest ->
            runs (if current > 0 then `Complete current :: acc else acc) 0 rest
        in
        List.iter
          (function
            | `Complete n ->
              if n < 3 then
                Alcotest.failf "maximal fault run of %d < burst length 3" n
            | `Truncated _ -> ())
          (runs [] 0 fired));
    Alcotest.test_case "kind names round-trip" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool) "round trip" true
              (Injector.kind_of_string (Injector.kind_name k) = Some k))
          Injector.all_kinds;
        Alcotest.(check bool) "unknown" true
          (Injector.kind_of_string "melted" = None));
    Alcotest.test_case "validate rejects malformed specs" `Quick (fun () ->
        let bad spec = Result.is_error (Injector.validate spec) in
        Alcotest.(check bool) "rate" true
          (bad { Injector.disabled with rates = [ (Injector.Seu_upset, 1.5) ] });
        Alcotest.(check bool) "negative index" true
          (bad
             { Injector.disabled with schedule = [ (-1, Injector.Seu_upset) ] });
        Alcotest.(check bool) "burst" true
          (bad
             { Injector.disabled with
               burst = Some { Injector.start_probability = 0.5; length = 0 } });
        Alcotest.check_raises "uniform out of range"
          (Invalid_argument "Injector.uniform: rate outside [0, 1]") (fun () ->
            ignore (Injector.uniform ~rate:2.0 ()))) ]

(* ------------------------------------------------------------ recovery *)

let recovery_tests =
  [ Alcotest.test_case "backoff grows exponentially and caps" `Quick (fun () ->
        let r =
          { Recovery.default_retry with
            base_backoff_s = 1e-4;
            backoff_multiplier = 2.;
            max_backoff_s = 4e-4;
            jitter = 0. }
        in
        let b attempt = Recovery.backoff_seconds r ~attempt ~unit_jitter:0. in
        Alcotest.(check (float 0.)) "attempt 1" 1e-4 (b 1);
        Alcotest.(check (float 0.)) "attempt 2" 2e-4 (b 2);
        Alcotest.(check (float 0.)) "attempt 3" 4e-4 (b 3);
        Alcotest.(check (float 0.)) "capped" 4e-4 (b 7));
    Alcotest.test_case "jitter scales the backoff" `Quick (fun () ->
        let r = { Recovery.default_retry with jitter = 0.2 } in
        let base = Recovery.backoff_seconds r ~attempt:1 ~unit_jitter:0. in
        Alcotest.(check (float 1e-12)) "full jitter" (base *. 1.2)
          (Recovery.backoff_seconds r ~attempt:1 ~unit_jitter:1.));
    Alcotest.test_case "backoff validates its arguments" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Recovery.backoff_seconds Recovery.default_retry ~attempt:0
                  ~unit_jitter:0.);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "policy names round-trip" `Quick (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check bool) "round trip" true
              (Recovery.policy_of_string (Recovery.policy_name p) = Some p))
          Recovery.all_policies;
        Alcotest.(check bool) "unknown" true
          (Recovery.policy_of_string "pray" = None));
    Alcotest.test_case "validate_retry rejects bad parameters" `Quick
      (fun () ->
        let bad r = Result.is_error (Recovery.validate_retry r) in
        Alcotest.(check bool) "attempts" true
          (bad { Recovery.default_retry with max_attempts = 0 });
        Alcotest.(check bool) "jitter" true
          (bad { Recovery.default_retry with jitter = 1.5 });
        Alcotest.(check bool) "multiplier" true
          (bad { Recovery.default_retry with backoff_multiplier = 0.5 });
        Alcotest.(check bool) "budget" true
          (bad
             { Recovery.default_retry with transition_budget_s = Some (-1.) });
        Alcotest.(check bool) "default ok" true
          (Result.is_ok (Recovery.validate_retry Recovery.default_retry))) ]

(* ------------------------------------------------- fault-free equality *)

let check_stats_equal label (a : Manager.stats) (b : Manager.stats) =
  Alcotest.(check int) (label ^ " steps") a.Manager.steps b.Manager.steps;
  Alcotest.(check int)
    (label ^ " transitions")
    a.Manager.transitions b.Manager.transitions;
  Alcotest.(check int)
    (label ^ " total frames")
    a.Manager.total_frames b.Manager.total_frames;
  Alcotest.(check (float 0.))
    (label ^ " total seconds")
    a.Manager.total_seconds b.Manager.total_seconds;
  Alcotest.(check int) (label ^ " max frames") a.Manager.max_frames
    b.Manager.max_frames;
  Alcotest.(check (float 0.))
    (label ^ " mean frames")
    a.Manager.mean_frames b.Manager.mean_frames;
  Alcotest.(check (array int))
    (label ^ " region loads")
    a.Manager.region_loads b.Manager.region_loads

let check_reports_equal label (a : Fetch.report) (b : Fetch.report) =
  Alcotest.(check int)
    (label ^ " reconfigurations")
    a.Fetch.reconfigurations b.Fetch.reconfigurations;
  Alcotest.(check int) (label ^ " hits") a.Fetch.hits b.Fetch.hits;
  Alcotest.(check int) (label ^ " misses") a.Fetch.misses b.Fetch.misses;
  Alcotest.(check (float 0.))
    (label ^ " icap seconds")
    a.Fetch.icap_seconds b.Fetch.icap_seconds;
  Alcotest.(check (float 0.))
    (label ^ " fetch seconds")
    a.Fetch.fetch_seconds b.Fetch.fetch_seconds;
  Alcotest.(check (float 0.))
    (label ^ " total seconds")
    a.Fetch.total_seconds b.Fetch.total_seconds

let resilient_ok = function
  | Ok (o : Resilient.outcome) -> o
  | Error f -> Alcotest.fail (Resilient.render_failure f)

(* The references are the replays the library kept before it had one
   simulator, the former [Manager.simulate] and [Fetch.simulate_walk]
   (see reference_runtime.ml). *)
let equivalence_tests =
  [ Alcotest.test_case "inactive injector matches Manager.simulate bit-for-bit"
      `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let plain = Reference_runtime.simulate scheme ~initial:0 ~sequence in
        let o = resilient_ok (Resilient.simulate scheme ~initial:0 ~sequence) in
        check_stats_equal "stats" plain o.Resilient.stats;
        Alcotest.(check bool) "no fetch report" true (o.Resilient.fetch = None);
        (* Operation indices advance even for an inactive injector (they
           are the denominator a rate applies to), but nothing fires. *)
        Alcotest.(check bool) "operations counted" true
          (o.Resilient.operations > 0);
        Alcotest.(check int) "no faults" 0
          o.Resilient.reliability.Reliability.total_faults;
        Alcotest.(check (float 0.)) "no added latency" 0.
          o.Resilient.reliability.Reliability.added_seconds);
    Alcotest.test_case "rate 0 equals an inactive injector" `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let plain = Reference_runtime.simulate scheme ~initial:0 ~sequence in
        let fault =
          { Resilient.default_config with
            spec = Injector.uniform ~seed:9 ~rate:0. () }
        in
        let o =
          resilient_ok (Resilient.simulate ~fault scheme ~initial:0 ~sequence)
        in
        check_stats_equal "stats" plain o.Resilient.stats);
    Alcotest.test_case "fault-free fetch path matches Fetch.simulate_walk"
      `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let walk_report =
          Reference_runtime.simulate_walk ~memory:Fetch.flash scheme ~initial:0
            ~sequence
        in
        let o =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash scheme ~initial:0 ~sequence)
        in
        (match o.Resilient.fetch with
         | Some report -> check_reports_equal "flash" walk_report report
         | None -> Alcotest.fail "expected a fetch report"));
    Alcotest.test_case "fault-free cached fetch path matches too" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let capacity_frames = 6000 in
        let walk_report =
          Reference_runtime.simulate_walk
            ~cache:(Fetch.create_cache ~capacity_frames ())
            ~memory:Fetch.flash scheme ~initial:0 ~sequence
        in
        let o =
          resilient_ok
            (Resilient.simulate
               ~cache:(Fetch.create_cache ~capacity_frames ())
               ~memory:Fetch.flash scheme ~initial:0 ~sequence)
        in
        (match o.Resilient.fetch with
         | Some report -> check_reports_equal "cached" walk_report report
         | None -> Alcotest.fail "expected a fetch report")) ]

(* ----------------------------------------------- determinism & policies *)

let fault_config ?(seed = 17) ?(rate = 0.05) ?safe_config ?retry policy =
  { Resilient.spec = Injector.uniform ~seed ~rate ();
    policy;
    retry = (match retry with Some r -> r | None -> Recovery.default_retry);
    safe_config }

let resilience_tests =
  [ Alcotest.test_case "same seed produces identical reliability reports"
      `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let run () =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash
               ~fault:(fault_config Recovery.Fallback_safe_config)
               scheme ~initial:0 ~sequence)
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "summaries equal" true
          (Reliability.equal a.Resilient.reliability b.Resilient.reliability);
        Alcotest.(check string) "renders equal"
          (Reliability.render a.Resilient.reliability)
          (Reliability.render b.Resilient.reliability);
        check_stats_equal "stats" a.Resilient.stats b.Resilient.stats);
    Alcotest.test_case "abort fails where fallback completes" `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let run policy =
          Resilient.simulate ~memory:Fetch.flash ~fault:(fault_config policy)
            scheme ~initial:0 ~sequence
        in
        (match run Recovery.Abort with
         | Error f ->
           Alcotest.(check bool) "incomplete" false
             f.Resilient.reliability.Reliability.completed;
           Alcotest.(check bool) "names the fault" true
             (String.length (Resilient.render_failure f) > 0)
         | Ok _ -> Alcotest.fail "abort must fail under a 5% fault rate");
        match run Recovery.Fallback_safe_config with
        | Ok o ->
          Alcotest.(check bool) "completed" true
            o.Resilient.reliability.Reliability.completed;
          Alcotest.(check bool) "recovered something" true
            (o.Resilient.reliability.Reliability.recovered_loads > 0)
        | Error f -> Alcotest.fail (Resilient.render_failure f));
    Alcotest.test_case "retry-then-fail recovers transient faults" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let o =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash
               ~fault:(fault_config ~rate:0.01 Recovery.Retry_then_fail)
               scheme ~initial:0 ~sequence)
        in
        let r = o.Resilient.reliability in
        Alcotest.(check bool) "faults happened" true
          (r.Reliability.total_faults > 0);
        Alcotest.(check bool) "recovered" true
          (r.Reliability.recovered_loads > 0);
        Alcotest.(check int) "nothing abandoned" 0 r.Reliability.failed_loads;
        Alcotest.(check bool) "latency added" true
          (r.Reliability.added_seconds > 0.);
        Alcotest.(check bool) "mttr positive" true
          (r.Reliability.mttr_seconds > 0.));
    Alcotest.test_case "skip drops transitions when retries exhaust" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let retry = { Recovery.default_retry with max_attempts = 1 } in
        let o =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash
               ~fault:(fault_config ~retry Recovery.Skip_transition)
               scheme ~initial:0 ~sequence)
        in
        let r = o.Resilient.reliability in
        Alcotest.(check bool) "dropped transitions" true
          (r.Reliability.dropped_transitions > 0);
        Alcotest.(check int) "no retries with one attempt" 0
          r.Reliability.retries;
        Alcotest.(check bool) "completed" true r.Reliability.completed);
    Alcotest.test_case "fallback lands on the designated safe configuration"
      `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let retry = { Recovery.default_retry with max_attempts = 1 } in
        let o =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash
               ~fault:
                 (fault_config ~retry ~safe_config:1
                    Recovery.Fallback_safe_config)
               scheme ~initial:0 ~sequence)
        in
        Alcotest.(check bool) "fell back" true
          (o.Resilient.reliability.Reliability.fallbacks > 0);
        Alcotest.(check bool) "completed" true
          o.Resilient.reliability.Reliability.completed);
    Alcotest.test_case "transition budget forfeits remaining retries" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        let retry =
          { Recovery.default_retry with transition_budget_s = Some 1e-9 }
        in
        let o =
          resilient_ok
            (Resilient.simulate ~memory:Fetch.flash
               ~fault:(fault_config ~retry Recovery.Fallback_safe_config)
               scheme ~initial:0 ~sequence)
        in
        Alcotest.(check bool) "budget exhausted" true
          (o.Resilient.reliability.Reliability.budget_exhausted > 0));
    Alcotest.test_case "corrupt fetches invalidate the cache" `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let sequence = Lazy.force receiver_walk in
        (* A cache large enough to hold the whole repertoire: every miss
           is a cold miss, so a clean run misses exactly once per
           distinct bitstream. Scheduling a corruption on the very first
           fetch must invalidate the cached copy and cost exactly one
           extra miss on the re-fetch. *)
        let run fault =
          let cache = Fetch.create_cache ~capacity_frames:100_000 () in
          let o =
            resilient_ok
              (Resilient.simulate ~cache ~memory:Fetch.flash ?fault scheme
                 ~initial:0 ~sequence)
          in
          match o.Resilient.fetch with
          | Some report -> (o, report)
          | None -> Alcotest.fail "expected a fetch report"
        in
        let _, clean = run None in
        let corrupted =
          { Resilient.default_config with
            spec =
              { Injector.disabled with
                schedule = [ (0, Injector.Corrupt_bitstream) ] } }
        in
        let o, faulted = run (Some corrupted) in
        Alcotest.(check int) "one corruption"
          1
          (List.assoc Injector.Corrupt_bitstream
             o.Resilient.reliability.Reliability.faults_by_kind);
        Alcotest.(check int) "exactly one extra miss"
          (clean.Fetch.misses + 1) faulted.Fetch.misses;
        Alcotest.(check int) "same successful loads"
          clean.Fetch.reconfigurations faulted.Fetch.reconfigurations;
        Alcotest.(check int) "same hits" clean.Fetch.hits faulted.Fetch.hits);
    Alcotest.test_case "invalid configurations are rejected up front" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        Alcotest.(check bool) "bad safe config" true
          (try
             ignore
               (Resilient.simulate
                  ~fault:
                    (fault_config ~safe_config:99 Recovery.Fallback_safe_config)
                  scheme ~initial:0 ~sequence:[ 1 ]);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "bad retry" true
          (try
             ignore
               (Resilient.simulate
                  ~fault:
                    (fault_config
                       ~retry:{ Recovery.default_retry with max_attempts = 0 }
                       Recovery.Abort)
                  scheme ~initial:0 ~sequence:[ 1 ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "trace replay guards the design name" `Quick (fun () ->
        let scheme = Lazy.force case_study_scheme in
        let other = Design_library.running_example in
        let trace = Runtime.Trace.record other ~initial:0 ~sequence:[ 1; 0 ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Runtime.Trace.simulate scheme trace);
             false
           with Invalid_argument _ -> true)) ]

(* ------------------------------------------------- hardened satellites *)

let satellite_tests =
  [ Alcotest.test_case "manager names the offending configuration" `Quick
      (fun () ->
        let scheme = Lazy.force case_study_scheme in
        List.iter
          (fun (initial, sequence) ->
            Alcotest.(check bool) "raises descriptively" true
              (try
                 ignore (Resilient.simulate scheme ~initial ~sequence);
                 false
               with Invalid_argument m ->
                 (* A named, ranged message rather than a bare index
                    failure. *)
                 String.length m > String.length "Resilient.simulate"
                 && String.sub m 0 (String.length "Resilient.simulate")
                    = "Resilient.simulate"))
          [ (99, [ 0 ]); (0, [ 99 ]); (-1, [ 0 ]) ]);
    Alcotest.test_case "random_walk validates its initial" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Manager.random_walk
                  ~rand:(fun _ -> 0)
                  ~configs:3 ~steps:5 ~initial:7);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "cache invalidate forces a re-fetch" `Quick (fun () ->
        let cache = Fetch.create_cache ~capacity_frames:1000 () in
        let access () =
          Fetch.access cache Fetch.flash ~key:(0, 1) ~frames:100
        in
        Alcotest.(check bool) "first is a miss" false (access ()).Fetch.hit;
        Alcotest.(check bool) "second is a hit" true (access ()).Fetch.hit;
        Alcotest.(check int) "resident" 100 (Fetch.resident_frames cache);
        Fetch.invalidate cache ~key:(0, 1);
        Alcotest.(check int) "emptied" 0 (Fetch.resident_frames cache);
        Alcotest.(check bool) "re-fetch misses" false (access ()).Fetch.hit;
        (* Invalidating an absent key is a no-op. *)
        Fetch.invalidate cache ~key:(9, 9);
        Alcotest.(check int) "unchanged" 100 (Fetch.resident_frames cache));
    Alcotest.test_case "LRU refresh keeps eviction order correct" `Quick
      (fun () ->
        let cache =
          Fetch.create_cache ~policy:Fetch.Lru ~capacity_frames:300 ()
        in
        let touch key =
          ignore (Fetch.access cache Fetch.flash ~key ~frames:100)
        in
        touch (0, 0);
        touch (0, 1);
        touch (0, 2);
        (* Refreshing the oldest key must move it to the back... *)
        touch (0, 0);
        Alcotest.(check bool) "refreshed to MRU" true
          (match Fetch.residents cache with
           | ((0, 1), _) :: _ -> true
           | _ -> false);
        (* ...so the next insertion evicts (0,1), not (0,0). *)
        touch (1, 0);
        let keys = List.map fst (Fetch.residents cache) in
        Alcotest.(check bool) "victim was (0,1)" true
          (List.mem (0, 0) keys && not (List.mem (0, 1) keys))) ]

(* ------------------------------------------------------------------ CLI *)

let prpart =
  let candidates =
    [ Filename.concat (Filename.concat ".." "bin") "prpart.exe";
      Filename.concat
        (Filename.concat (Filename.concat "_build" "default") "bin")
        "prpart.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_prpart args =
  let out = Filename.temp_file "prpart" ".out" in
  let err = Filename.temp_file "prpart" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let status =
        Sys.command (Filename.quote_command prpart ~stdout:out ~stderr:err args)
      in
      (status, read_file out, read_file err))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || scan (i + 1)
  in
  scan 0

let simulate_args rest =
  [ "simulate"; "video-receiver"; "--budget"; "6900,62,150"; "--steps"; "80";
    "--seed"; "5" ]
  @ rest

let cli_tests =
  [ Alcotest.test_case "simulate --fault-rate reports reliability" `Quick
      (fun () ->
        let status, out, _ =
          run_prpart
            (simulate_args
               [ "--fault-rate"; "0.05"; "--fault-seed"; "7"; "--fault-policy";
                 "fallback" ])
        in
        Alcotest.(check int) "exit" 0 status;
        Alcotest.(check bool) "report" true (contains out "Reliability report");
        Alcotest.(check bool) "completed" true (contains out "run completed"));
    Alcotest.test_case "fixed fault seed replays identically" `Quick (fun () ->
        let args =
          simulate_args
            [ "--fault-rate"; "0.05"; "--fault-seed"; "21"; "--fault-policy";
              "fallback" ]
        in
        let _, a, _ = run_prpart args in
        let _, b, _ = run_prpart args in
        Alcotest.(check string) "identical output" a b);
    Alcotest.test_case "abort policy fails the run" `Quick (fun () ->
        let status, _, err =
          run_prpart
            (simulate_args
               [ "--fault-rate"; "0.05"; "--fault-seed"; "7"; "--fault-policy";
                 "abort" ])
        in
        Alcotest.(check bool) "non-zero exit" true (status <> 0);
        Alcotest.(check bool) "names the failure" true
          (contains err "reconfiguration failed"));
    Alcotest.test_case "safe config accepts a name and rejects unknowns"
      `Quick (fun () ->
        let status, out, _ =
          run_prpart
            (simulate_args
               [ "--fault-rate"; "0.05"; "--fault-policy"; "fallback";
                 "--safe-config"; "c1" ])
        in
        Alcotest.(check int) "named ok" 0 status;
        Alcotest.(check bool) "report" true (contains out "Reliability report");
        let status, _, err =
          run_prpart
            (simulate_args
               [ "--fault-rate"; "0.05"; "--safe-config"; "nonesuch" ])
        in
        Alcotest.(check bool) "unknown rejected" true (status <> 0);
        Alcotest.(check bool) "mentions the name" true
          (contains err "nonesuch"));
    Alcotest.test_case "out-of-range fault rate is rejected" `Quick (fun () ->
        let status, _, _ = run_prpart (simulate_args [ "--fault-rate"; "1.5" ]) in
        Alcotest.(check bool) "rejected" true (status <> 0)) ]

(* -------------------------------------------------------- flow resilience *)

let flow_tests =
  [ Alcotest.test_case "tool flow appends the resilience assessment" `Quick
      (fun () ->
        let options =
          { Flow.Tool_flow.default_options with
            resilience =
              Some
                { Flow.Tool_flow.default_resilience with walk_steps = 60 } }
        in
        match
          Flow.Tool_flow.run ~options
            ~target:(Engine.Budget Design_library.case_study_budget)
            Design_library.video_receiver
        with
        | Error m -> Alcotest.fail m
        | Ok report ->
          Alcotest.(check bool) "assessment present" true
            (report.Flow.Tool_flow.resilience <> None);
          let summary = Flow.Tool_flow.render_summary report in
          Alcotest.(check bool) "summary section" true
            (contains summary "resilience assessment");
          Alcotest.(check bool) "reliability rendered" true
            (contains summary "Reliability report")) ]

let () =
  Alcotest.run "fault"
    [ ("injector", injector_tests);
      ("recovery", recovery_tests);
      ("equivalence", equivalence_tests);
      ("resilience", resilience_tests);
      ("satellites", satellite_tests);
      ("cli", cli_tests);
      ("flow", flow_tests) ]
