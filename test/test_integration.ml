(* End-to-end integration tests: the full pipeline from an XML design
   description through clustering, covering, allocation, floorplanning and
   runtime simulation — plus cross-module invariants on synthetic
   populations. *)

module Design = Prdesign.Design
module Design_xml = Prdesign.Design_xml
module Design_library = Prdesign.Design_library
module Engine = Prcore.Engine
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Resource = Fpga.Resource

let radio_xml =
  {|<design name="radio">
      <static clb="90" bram="8"/>
      <module name="SEN">
        <mode name="energy" clb="450" bram="4" dsp="8"/>
        <mode name="cyclo" clb="1800" bram="12" dsp="36"/>
      </module>
      <module name="MOD">
        <mode name="bpsk" clb="300" dsp="4"/>
        <mode name="qam" clb="980" dsp="24"/>
      </module>
      <module name="COD">
        <mode name="conv" clb="350" bram="2"/>
        <mode name="ldpc" clb="1400" bram="18" dsp="6"/>
      </module>
      <configurations>
        <configuration name="sense">
          <use module="SEN" mode="energy"/>
        </configuration>
        <configuration name="sense-deep">
          <use module="SEN" mode="cyclo"/>
        </configuration>
        <configuration name="tx-lo">
          <use module="MOD" mode="bpsk"/><use module="COD" mode="conv"/>
        </configuration>
        <configuration name="tx-hi">
          <use module="MOD" mode="qam"/><use module="COD" mode="ldpc"/>
        </configuration>
      </configurations>
    </design>|}

let pipeline_tests =
  [ Alcotest.test_case "xml -> partition -> floorplan -> simulate" `Quick
      (fun () ->
        let design = Design_xml.load_string radio_xml in
        (* 1. Partition on an automatically selected device. *)
        let outcome =
          match Engine.solve ~target:Engine.Auto design with
          | Ok o -> o
          | Error m -> Alcotest.fail m
        in
        let scheme = outcome.Engine.scheme in
        Alcotest.(check bool) "fits" true
          (Cost.fits outcome.Engine.evaluation ~budget:outcome.Engine.budget);
        (* 2. Floorplan, escalating past devices where the rectangles do
           not fit (the paper's feedback loop). *)
        let demands =
          Array.init
            (scheme.Scheme.region_count + 1)
            (fun i ->
              if i < scheme.Scheme.region_count then
                Floorplan.Placer.demand_of_resources
                  (Scheme.region_resources scheme i)
              else
                Floorplan.Placer.demand_of_resources
                  (Scheme.static_resources scheme))
        in
        (match Floorplan.Placer.fit_on_sweep demands with
         | Some (_, placement) ->
           Alcotest.(check (list int)) "floorplan feasible" [] placement.failed
         | None -> Alcotest.fail "no device can floorplan the scheme");
        (* 3. Simulate an adaptation walk and convert to wall-clock. *)
        let rng = Synth.Rng.make 1 in
        let sequence =
          Runtime.Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:(Design.configuration_count design)
            ~steps:500 ~initial:0
        in
        let stats = Reference_runtime.pinned scheme ~initial:0 ~sequence in
        Alcotest.(check bool) "simulation ran" true
          (stats.Runtime.Manager.steps = 500);
        Alcotest.(check bool) "wall clock accumulates" true
          (stats.total_seconds >= 0.));
    Alcotest.test_case "sensing/transmission split promotes sharing" `Quick
      (fun () ->
        (* The radio's sensing and transmission configurations are
           disjoint, so sensing and tx modules can share regions - the
           engine must beat one-module-per-region's area. *)
        let design = Design_xml.load_string radio_xml in
        match Engine.solve ~target:Engine.Auto design with
        | Ok o ->
          let modular = Baselines.Schemes.one_module_per_region design in
          Alcotest.(check bool) "beats modular on total" true
            (o.Engine.evaluation.Cost.total_frames
             <= modular.evaluation.Cost.total_frames)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "designs saved by the CLI path reload identically"
      `Quick (fun () ->
        let dir = Filename.temp_file "prpart" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir)
          (fun () ->
            List.iter
              (fun (_, d) ->
                let path =
                  Filename.concat dir (d.Design.name ^ ".xml")
                in
                Design_xml.save_file path d;
                let d' = Design_xml.load_file path in
                Alcotest.(check int)
                  (d.Design.name ^ " configs")
                  (Design.configuration_count d)
                  (Design.configuration_count d'))
              (Synth.Generator.batch ~seed:5 ~count:6 ()))) ]

let paper_flow_tests =
  [ Alcotest.test_case "Fig. 6 feasibility gate: reject before clustering"
      `Quick (fun () ->
        (* The flow chart checks the largest configuration against the
           device before anything else. *)
        let design = Design_library.video_receiver in
        match
          Engine.solve ~target:(Engine.Budget (Resource.make 1000)) design
        with
        | Error message ->
          Alcotest.(check bool) "mentions single region" true
            (String.length message > 0)
        | Ok _ -> Alcotest.fail "expected infeasibility");
    Alcotest.test_case "montone special case solves with zero time" `Quick
      (fun () ->
        (* §IV-D: disjoint configurations mean one region per module never
           reconfigures; with enough area the engine should find zero. *)
        let design = Design_library.montone_example in
        match Engine.solve ~target:Engine.Auto design with
        | Ok o ->
          Alcotest.(check int) "zero total" 0
            o.Engine.evaluation.Cost.total_frames
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "escalation happens and terminates" `Quick (fun () ->
        (* A design whose single-region bound fits LX20T but that cannot be
           partitioned better there should escalate, not loop. *)
        let seeds = List.init 30 Fun.id in
        let escalated =
          List.exists
            (fun seed ->
              let d =
                Synth.Generator.generate (Synth.Rng.make seed)
                  Synth.Generator.Logic_intensive ~index:seed
              in
              match Engine.solve ~target:Engine.Auto d with
              | Ok o -> o.Engine.escalations > 0
              | Error _ -> false)
            seeds
        in
        Alcotest.(check bool) "some design escalated" true escalated) ]

let cross_checks =
  [ Alcotest.test_case "evaluation resources equal scheme resources" `Quick
      (fun () ->
        List.iter
          (fun (_, d) ->
            match Engine.solve ~target:Engine.Auto d with
            | Error _ -> ()
            | Ok o ->
              let s = o.Engine.scheme in
              Alcotest.(check bool) "used = total_resources" true
                (Resource.equal o.Engine.evaluation.Cost.used
                   (Scheme.total_resources s)))
          (Synth.Generator.batch ~seed:77 ~count:10 ()));
    Alcotest.test_case "transition table symmetric for engine schemes" `Quick
      (fun () ->
        List.iter
          (fun (_, d) ->
            match Engine.solve ~target:Engine.Auto d with
            | Error _ -> ()
            | Ok o ->
              let t = Runtime.Transition.make o.Engine.scheme in
              let n = Design.configuration_count d in
              for i = 0 to n - 1 do
                for j = 0 to n - 1 do
                  Alcotest.(check int) "sym"
                    (Runtime.Transition.frames t i j)
                    (Runtime.Transition.frames t j i)
                done
              done)
          (Synth.Generator.batch ~seed:78 ~count:5 ()));
    Alcotest.test_case "every region hosts at least one partition" `Quick
      (fun () ->
        List.iter
          (fun (_, d) ->
            match Engine.solve ~target:Engine.Auto d with
            | Error _ -> ()
            | Ok o ->
              let s = o.Engine.scheme in
              for r = 0 to s.Scheme.region_count - 1 do
                Alcotest.(check bool) "non-empty" true
                  (Scheme.region_members s r <> [])
              done)
          (Synth.Generator.batch ~seed:79 ~count:10 ())) ]

(* ------------------------------------------------------------------- CLI *)

(* Under `dune runtest` the binary runs from _build/default/test, and
   test/dune depends on ../bin/prpart.exe, so the CLI is always fresh;
   the fallbacks cover a `dune exec` from the project root. *)
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

let cli_tests =
  [ Alcotest.test_case "all CLI failure modes share one exit code" `Quick
      (fun () ->
        (* Unknown design, unknown device, infeasible budget and an
           unwritable --save-scheme path must all fail identically: a
           message on stderr and the same Cmdliner error status. *)
        let bad_design, out1, err1 =
          run_prpart [ "partition"; "no-such-design" ]
        in
        Alcotest.(check bool) "nonzero exit" true (bad_design <> 0);
        Alcotest.(check bool) "error on stderr" true (String.length err1 > 0);
        Alcotest.(check string) "nothing on stdout" "" out1;
        List.iter
          (fun (label, args) ->
            let status, _, err = run_prpart args in
            Alcotest.(check int) (label ^ " exit code") bad_design status;
            Alcotest.(check bool) (label ^ " stderr") true
              (String.length err > 0))
          [ ( "unknown device",
              [ "partition"; "running-example"; "--device"; "NOPE" ] );
            ( "infeasible budget",
              [ "partition"; "running-example"; "--budget"; "10" ] );
            ( "unwritable save-scheme",
              [ "partition"; "running-example"; "--save-scheme";
                "/no-such-dir/x/y.xml" ] );
            ("flow bad design", [ "flow"; "no-such-design" ]);
            ("baselines bad design", [ "baselines"; "no-such-design" ]);
            ( "simulate bad replay",
              [ "simulate"; "running-example"; "--replay"; "/no/such/trace" ]
            ) ]);
    Alcotest.test_case "--trace writes valid, balanced JSONL and --stats \
                        prints tables" `Quick (fun () ->
        let trace = Filename.temp_file "prpart" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
          (fun () ->
            let status, out, err =
              run_prpart
                [ "partition"; "video-receiver"; "--budget"; "6800,50,150";
                  "--trace"; trace; "--stats" ]
            in
            Alcotest.(check int) "exit 0" 0 status;
            Alcotest.(check string) "stderr empty" "" err;
            Alcotest.(check bool) "stats table" true
              (contains out "phase timings");
            Alcotest.(check bool) "cost evaluations line" true
              (contains out "cost evaluations:");
            (* Every line parses; span begin/end pairs balance. *)
            let lines =
              List.filter
                (fun l -> String.trim l <> "")
                (String.split_on_char '\n' (read_file trace))
            in
            Alcotest.(check bool) "trace nonempty" true (lines <> []);
            let events =
              List.map
                (fun line ->
                  match Prtelemetry.Json.of_string line with
                  | Error m ->
                    Alcotest.fail
                      (Printf.sprintf "line %S is not JSON: %s" line m)
                  | Ok v -> (
                    match Prtelemetry.Event.of_json v with
                    | Ok e -> e
                    | Error m -> Alcotest.fail ("bad event: " ^ m)))
                lines
            in
            let depth =
              List.fold_left
                (fun depth (e : Prtelemetry.Event.t) ->
                  match e.kind with
                  | Prtelemetry.Event.Begin -> depth + 1
                  | Prtelemetry.Event.End ->
                    Alcotest.(check bool) "never negative" true (depth > 0);
                    depth - 1
                  | _ -> depth)
                0 events
            in
            Alcotest.(check int) "begin/end balanced" 0 depth;
            Alcotest.(check bool) "has engine.solve" true
              (List.exists
                 (fun (e : Prtelemetry.Event.t) -> e.name = "engine.solve")
                 events)));
    Alcotest.test_case "no flags means no telemetry output" `Quick (fun () ->
        let status, out, err =
          run_prpart
            [ "partition"; "video-receiver"; "--budget"; "6800,50,150" ]
        in
        Alcotest.(check int) "exit 0" 0 status;
        Alcotest.(check string) "stderr empty" "" err;
        Alcotest.(check bool) "no stats table" false
          (contains out "phase timings");
        Alcotest.(check bool) "no cost evaluations" false
          (contains out "cost evaluations:"));
    Alcotest.test_case "simulate records and replays via --replay" `Quick
      (fun () ->
        let walk = Filename.temp_file "prpart" ".trace" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists walk then Sys.remove walk)
          (fun () ->
            let status, _, err =
              run_prpart
                [ "simulate"; "running-example"; "--steps"; "50";
                  "--save-trace"; walk ]
            in
            Alcotest.(check string) "record stderr" "" err;
            Alcotest.(check int) "record ok" 0 status;
            let status, out, _ =
              run_prpart
                [ "simulate"; "running-example"; "--replay"; walk; "--stats" ]
            in
            Alcotest.(check int) "replay ok" 0 status;
            Alcotest.(check bool) "replay simulated" true
              (contains out "50 steps");
            Alcotest.(check bool) "runtime counters" true
              (contains out "runtime.steps"))) ]

let () =
  Alcotest.run "integration"
    [ ("pipeline", pipeline_tests);
      ("paper-flow", paper_flow_tests);
      ("cross-checks", cross_checks);
      ("cli", cli_tests) ]
