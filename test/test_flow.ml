(* Tests for the end-to-end tool flow (paper Fig. 2). *)

module Tool_flow = Flow.Tool_flow
module Engine = Prcore.Engine
module Scheme = Prcore.Scheme
module Design_library = Prdesign.Design_library

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || scan (i + 1)
  in
  scan 0

let receiver_report =
  lazy
    (match
       Tool_flow.run
         ~target:(Engine.Budget Design_library.case_study_budget)
         Design_library.video_receiver
     with
     | Ok r -> r
     | Error m -> failwith m)

let flow_tests =
  [ Alcotest.test_case "case study flows end to end" `Quick (fun () ->
        let r = Lazy.force receiver_report in
        Alcotest.(check bool) "wrappers" true (List.length r.wrappers > 0);
        Alcotest.(check (list int)) "fully placed" []
          r.placement.Floorplan.Placer.failed;
        Alcotest.(check bool) "bitstreams" true
          (List.length r.repository.Bitgen.Repository.entries > 0));
    Alcotest.test_case "placement covers regions plus static" `Quick
      (fun () ->
        let r = Lazy.force receiver_report in
        Alcotest.(check int) "demand count"
          (r.outcome.Engine.scheme.Scheme.region_count + 1)
          (Array.length r.placement.Floorplan.Placer.placements));
    Alcotest.test_case "bitstream count = hosted clusters" `Quick (fun () ->
        let r = Lazy.force receiver_report in
        let scheme = r.outcome.Engine.scheme in
        let hosted =
          List.length
            (List.concat
               (List.init scheme.Scheme.region_count
                  (Scheme.region_members scheme)))
        in
        Alcotest.(check int) "entries" hosted
          (List.length r.repository.Bitgen.Repository.entries));
    Alcotest.test_case "summary mentions the device and storage" `Quick
      (fun () ->
        let r = Lazy.force receiver_report in
        let s = Tool_flow.render_summary r in
        Alcotest.(check bool) "device" true
          (contains s r.device.Fpga.Device.name);
        Alcotest.(check bool) "storage" true (contains s "total storage"));
    Alcotest.test_case "auto target flows too" `Quick (fun () ->
        match Tool_flow.run ~target:Engine.Auto Design_library.running_example with
        | Ok r ->
          Alcotest.(check (list int)) "placed" []
            r.placement.Floorplan.Placer.failed
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "infeasible budget is a clean error" `Quick (fun () ->
        match
          Tool_flow.run
            ~target:(Engine.Budget (Fpga.Resource.make 10))
            Design_library.running_example
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "feedback disabled turns placement failure into error"
      `Quick (fun () ->
        (* A fragmentation case: region X (200 CLB tiles on a 4x63 LX30)
           must swallow both BRAM columns, leaving region Y's BRAM tile
           unplaceable even though the resource totals fit. The paper
           flags exactly this ("at the time of floorplanning we may find
           ... this [is not] feasible") and proposes the feedback loop. *)
        let res = Fpga.Resource.make in
        let single name r =
          Prdesign.Pmodule.make name [ Prdesign.Mode.make (name ^ "1") r ]
        in
        let fragmented =
          (* Static total (5000 CLBs) exceeds the LX30, so the engine must
             keep X in its own region and merge Y and W into a second
             one; X's rectangle swallows the BRAM columns. *)
          Prdesign.Design.create_exn ~name:"frag"
            ~modules:
              [ single "X" (res 4000);
                single "Y" (res 600 ~bram:1);
                single "W" (res 400) ]
            ~configurations:
              [ Prdesign.Configuration.make "c1" [ (0, 0) ];
                Prdesign.Configuration.make "c2" [ (1, 0) ];
                Prdesign.Configuration.make "c3" [ (2, 0) ] ]
            ()
        in
        let lx30 = Fpga.Device.find_exn "LX30" in
        let options =
          { Tool_flow.default_options with floorplan_feedback = false }
        in
        let target = Engine.Fixed lx30 in
        (match Tool_flow.run ~options ~target fragmented with
         | Error message ->
           Alcotest.(check bool) "mentions floorplan" true
             (contains message "floorplan")
         | Ok _ -> Alcotest.fail "expected a placement failure");
        match Tool_flow.run ~target fragmented with
        | Ok r ->
          Alcotest.(check bool) "escalated" true (r.floorplan_escalations > 0);
          Alcotest.(check bool) "bigger device" true
            (Fpga.Device.compare_capacity r.device lx30 > 0)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "write_outputs produces the artefacts" `Quick
      (fun () ->
        let dir = Filename.temp_file "prflow" "" in
        Sys.remove dir;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir
            end)
          (fun () ->
            let r = Lazy.force receiver_report in
            let written =
              match Tool_flow.write_outputs ~dir r with
              | Ok written -> written
              | Error m -> Alcotest.fail m
            in
            Alcotest.(check bool) "files written" true (List.length written > 10);
            List.iter
              (fun path ->
                Alcotest.(check bool) (path ^ " exists") true
                  (Sys.file_exists path))
              written;
            (* Bitstreams on disk parse back. *)
            let bit =
              List.find (fun p -> Filename.check_suffix p "full.bit") written
            in
            let ic = open_in_bin bit in
            let content =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Alcotest.(check bool) "full.bit parses" true
              (Result.is_ok (Bitgen.Bitstream.parse (Bytes.of_string content)));
            (* The design XML reloads. *)
            let xml =
              List.find (fun p -> Filename.check_suffix p "design.xml") written
            in
            let reloaded = Prdesign.Design_xml.load_file xml in
            Alcotest.(check string) "same design" "video-receiver"
              reloaded.Prdesign.Design.name));
    Alcotest.test_case "write_outputs reports unwritable directories" `Quick
      (fun () ->
        (* A path under a regular file cannot be created: the Sys_error
           must come back as an Error, not an exception. *)
        let file = Filename.temp_file "prflow" ".blocker" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            let r = Lazy.force receiver_report in
            match Tool_flow.write_outputs ~dir:(Filename.concat file "out") r with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected an error for an unwritable dir"));
    Alcotest.test_case "live telemetry adds stats and trace artefacts" `Quick
      (fun () ->
        let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
        let options = { Tool_flow.default_options with telemetry } in
        match
          Tool_flow.run ~options
            ~target:(Engine.Budget Design_library.case_study_budget)
            Design_library.video_receiver
        with
        | Error m -> Alcotest.fail m
        | Ok r ->
          let s = Tool_flow.render_summary r in
          Alcotest.(check bool) "summary has cost evaluations" true
            (contains s "cost evaluations");
          let dir = Filename.temp_file "prflowtele" "" in
          Sys.remove dir;
          Fun.protect
            ~finally:(fun () ->
              if Sys.file_exists dir then begin
                Array.iter
                  (fun f -> Sys.remove (Filename.concat dir f))
                  (Sys.readdir dir);
                Sys.rmdir dir
              end)
            (fun () ->
              match Tool_flow.write_outputs ~dir r with
              | Error m -> Alcotest.fail m
              | Ok written ->
                let wrote name =
                  List.exists (fun p -> Filename.basename p = name) written
                in
                Alcotest.(check bool) "stats.txt" true (wrote "stats.txt");
                Alcotest.(check bool) "trace.jsonl" true (wrote "trace.jsonl")))
  ]

(* ------------------------------------------------------------------ *)
(* Device escalation: the report field and the telemetry counter must
   come from the same choke point, for every target kind. (They used to
   be maintained separately and could drift.) *)

let escalations_with ~target () =
  let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
  let options = { Tool_flow.default_options with telemetry } in
  match Tool_flow.run ~options ~target Design_library.fragmented_filter with
  | Error m -> Alcotest.fail m
  | Ok r ->
    (r.Tool_flow.floorplan_escalations,
     Prtelemetry.counter_value telemetry "flow.floorplan_escalations")

let parity_case name target ~expect_some =
  Alcotest.test_case name `Quick (fun () ->
      let reported, counted = escalations_with ~target () in
      Alcotest.(check int) "report equals counter" counted reported;
      if expect_some then
        Alcotest.(check bool) "escalated at least once" true (reported > 0))

let escalation_tests =
  let lx30 = Fpga.Device.find_exn "LX30" in
  [ parity_case "fixed target: report matches telemetry"
      (Engine.Fixed lx30) ~expect_some:true;
    parity_case "budget target: report matches telemetry"
      (Engine.Budget (Fpga.Device.resources lx30)) ~expect_some:true;
    parity_case "auto target: report matches telemetry" Engine.Auto
      ~expect_some:false ]

(* ------------------------------------------------------------------ *)
(* Placement-aware search: on the fragmentation stress design the aware
   flow lands on the device the unaware flow escalates away from, the
   result is oracle-clean and bit-identical across worker counts. *)

let aware_report ~jobs () =
  let lx30 = Fpga.Device.find_exn "LX30" in
  let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
  let options =
    { Tool_flow.default_options with
      placement_aware = true;
      verify = true;
      telemetry;
      jobs }
  in
  match
    Tool_flow.run ~options ~target:(Engine.Fixed lx30)
      Design_library.fragmented_filter
  with
  | Error m -> Alcotest.fail m
  | Ok r -> r

let placement_aware_tests =
  [ Alcotest.test_case "aware flow avoids the escalation" `Quick (fun () ->
        let unaware, _ =
          escalations_with ~target:(Engine.Fixed (Fpga.Device.find_exn "LX30")) ()
        in
        Alcotest.(check bool) "unaware escalates" true (unaware > 0);
        let r = aware_report ~jobs:1 () in
        Alcotest.(check string) "stays on the fixed device" "XC5VLX30"
          r.Tool_flow.device.Fpga.Device.name;
        Alcotest.(check int) "no escalations" 0 r.Tool_flow.floorplan_escalations;
        Alcotest.(check (list int)) "fully placed" []
          r.Tool_flow.placement.Floorplan.Placer.failed;
        (match r.Tool_flow.diagnostics with
         | Some diags ->
           Alcotest.(check bool) "oracle-clean" true
             (Prverify.Diagnostic.ok diags)
         | None -> Alcotest.fail "verify was requested");
        (match r.Tool_flow.outcome.Engine.placement_penalty with
         | Some p -> Alcotest.(check bool) "penalty below crowded band" true
                       (p >= 0 && p < 1 lsl 22)
         | None -> Alcotest.fail "aware outcome must report a penalty");
        Alcotest.(check bool) "aware runs counted" true
          (Prtelemetry.counter_value r.Tool_flow.telemetry
             "flow.placement_aware_runs"
           > 0);
        Alcotest.(check bool) "penalty evaluations counted" true
          (Prtelemetry.counter_value r.Tool_flow.telemetry
             "core.placement_evals"
           > 0));
    Alcotest.test_case "aware flow is identical across jobs" `Quick
      (fun () ->
        let runs = List.map (fun jobs -> aware_report ~jobs ()) [ 1; 2; 4 ] in
        match runs with
        | base :: rest ->
          let describe (r : Tool_flow.report) =
            (Scheme.describe r.outcome.Engine.scheme,
             r.outcome.Engine.evaluation.Prcore.Cost.total_frames,
             r.outcome.Engine.placement_penalty,
             r.device.Fpga.Device.name,
             r.floorplan_escalations)
          in
          List.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs run %d matches" (i + 2))
                true
                (describe r = describe base))
            rest
        | [] -> assert false) ]

(* The library never writes to standard output: a front end that prints
   a result line last (the CLI, the benchmark harness) relies on it.
   Text left in a [Format.std_formatter] or [stdout] buffer would be
   flushed at exit, after that line. *)
let stdout_tests =
  [ Alcotest.test_case "traced solves and a verified flow print nothing"
      `Quick (fun () ->
        Format.pp_print_flush Format.std_formatter ();
        flush stdout;
        let path = Filename.temp_file "prpart-stdout" ".txt" in
        let capture =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
        in
        let saved = Unix.dup Unix.stdout in
        Unix.dup2 capture Unix.stdout;
        let restore () =
          Format.pp_print_flush Format.std_formatter ();
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved;
          Unix.close capture
        in
        let outcome =
          try
            List.iter
              (fun strategy ->
                let telemetry =
                  Prtelemetry.create (Prtelemetry.Sink.memory ())
                in
                match
                  Engine.solve ~telemetry ~strategy
                    ~target:(Engine.Budget Design_library.case_study_budget)
                    Design_library.video_receiver
                with
                | Ok _ -> ()
                | Error m -> failwith m)
              [ Prcore.Strategy.Greedy; Prcore.Strategy.Multilevel ];
            (match
               Tool_flow.run
                 ~options:
                   { Tool_flow.default_options with
                     verify = true;
                     telemetry =
                       Prtelemetry.create (Prtelemetry.Sink.memory ()) }
                 ~target:(Engine.Budget Design_library.case_study_budget)
                 Design_library.video_receiver
             with
             | Ok _ -> ()
             | Error m -> failwith m);
            Ok ()
          with e -> Error e
        in
        restore ();
        let written = (Unix.stat path).Unix.st_size in
        let text = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        (match outcome with Ok () -> () | Error e -> raise e);
        Alcotest.(check string) "nothing on stdout" "" text;
        Alcotest.(check int) "zero bytes" 0 written) ]

let () =
  Alcotest.run "flow"
    [ ("tool-flow", flow_tests);
      ("escalation-parity", escalation_tests);
      ("placement-aware", placement_aware_tests);
      ("stdout", stdout_tests) ]
