module Scheme = Prcore.Scheme
module Design = Prdesign.Design
module Injector = Prfault.Injector
module Recovery = Prfault.Recovery
module Reliability = Prfault.Reliability

type config = {
  spec : Injector.spec;
  policy : Recovery.policy;
  retry : Recovery.retry;
  safe_config : int option;
}

let default_config =
  { spec = Injector.disabled;
    policy = Recovery.Fallback_safe_config;
    retry = Recovery.default_retry;
    safe_config = None }

type outcome = {
  stats : Manager.stats;
  fetch : Fetch.report option;
  reliability : Reliability.summary;
  final_config : int;
  operations : int;
}

type failure = {
  failed_step : int;
  failed_region : int;
  kind : Injector.kind;
  reliability : Reliability.summary;
}

let render_failure f =
  Printf.sprintf "reconfiguration failed at step %d (PRR%d, %s)" f.failed_step
    (f.failed_region + 1)
    (Injector.kind_name f.kind)

(* Internal unwind for the Abort / Retry_then_fail policies. *)
exception Abort_run of int * int * Injector.kind  (* step, region, kind *)

(* A region's content after an aborted programming pass or an SEU is
   garbage: no valid partition. Any future need forces a reload. *)
let corrupt = -1

let simulate ?(icap = Fpga.Icap.default) ?memory ?cache ?(trace = fun _ -> ())
    ?(telemetry = Prtelemetry.null) ?(fault = default_config)
    (scheme : Scheme.t) ~initial ~sequence =
  (match Recovery.validate_retry fault.retry with
   | Ok () -> ()
   | Error message -> invalid_arg ("Resilient.simulate: " ^ message));
  let configs = Design.configuration_count scheme.Scheme.design in
  let check what c =
    if c < 0 || c >= configs then
      invalid_arg
        (Printf.sprintf
           "Resilient.simulate: %s configuration %d out of range [0, %d)"
           what c configs)
  in
  check "initial" initial;
  List.iter (check "sequence") sequence;
  let safe =
    match fault.safe_config with
    | Some c ->
      check "safe" c;
      c
    | None -> initial
  in
  let injector = Injector.start fault.spec in
  Prtelemetry.with_span telemetry "runtime.simulate"
    ~attrs:
      [ ("design", Prtelemetry.Json.String scheme.Scheme.design.Design.name);
        ("steps", Prtelemetry.Json.Int (List.length sequence));
        ( "policy",
          Prtelemetry.Json.String (Recovery.policy_name fault.policy) ) ]
  @@ fun () ->
  let step_c = Prtelemetry.counter telemetry "runtime.steps" in
  let transition_c = Prtelemetry.counter telemetry "runtime.transitions" in
  let frame_c = Prtelemetry.counter telemetry "runtime.frames" in
  let injected_c = Prtelemetry.counter telemetry "fault.injected" in
  let retries_c = Prtelemetry.counter telemetry "fault.retries" in
  let recovered_c = Prtelemetry.counter telemetry "fault.recovered" in
  let dropped_c = Prtelemetry.counter telemetry "fault.dropped_transitions" in
  let fallback_c = Prtelemetry.counter telemetry "fault.fallbacks" in
  let regions = scheme.Scheme.region_count in
  let region_frames = scheme.Scheme.frames in
  let resident = Array.init regions (Scheme.initial_resident scheme ~initial) in
  let rel = Reliability.create ~regions in
  (* Logical accounting: each successful region load counted once. *)
  let region_loads = Array.make regions 0 in
  let current = ref initial in
  let step = ref 0 in
  let transitions = ref 0 in
  let total_frames = ref 0 in
  let total_seconds = ref 0. in
  let max_frames = ref 0 in
  (* Physical accounting: fetch stalls and ICAP time, failed attempts
     included. *)
  let reconfigurations = ref 0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let icap_time = ref 0. in
  let fetch_time = ref 0. in
  (* One fetch through the cache/memory hierarchy. Returns the stall and
     whether the bitstream crossed the external bus (cache hits stream
     from on-chip BRAM, so external-fetch faults cannot apply). *)
  let fetch_stall key frames =
    match memory with
    | None -> (0., false)
    | Some mem -> (
      match cache with
      | None ->
        incr misses;
        (Fetch.fetch_seconds mem ~frames, true)
      | Some c ->
        let a = Fetch.access c mem ~key ~frames in
        if a.Fetch.hit then incr hits else incr misses;
        (a.Fetch.seconds, not a.Fetch.hit))
  in
  let budget_blown elapsed =
    match fault.retry.transition_budget_s with
    | None -> false
    | Some b -> !elapsed >= b
  in
  let on_fault ~step ~region ~attempt kind =
    Reliability.record_fault rel kind ~region;
    Prtelemetry.Counter.incr injected_c;
    if Prtelemetry.tracing telemetry then
      Prtelemetry.point telemetry "fault.inject"
        ~attrs:
          [ ("step", Prtelemetry.Json.Int step);
            ("region", Prtelemetry.Json.Int region);
            ("kind", Prtelemetry.Json.String (Injector.kind_name kind));
            ("attempt", Prtelemetry.Json.Int attempt) ];
    if fault.policy = Recovery.Abort then
      raise (Abort_run (step, region, kind))
  in
  (* After a faulted attempt [n]: give up, or back off and signal a
     retry. *)
  let retry_or_give_up ~elapsed n kind =
    if n >= fault.retry.max_attempts then `Gave_up kind
    else if budget_blown elapsed then begin
      Reliability.record_budget_exhausted rel;
      `Gave_up kind
    end
    else begin
      Reliability.record_retry rel;
      Prtelemetry.Counter.incr retries_c;
      let backoff =
        Recovery.backoff_seconds fault.retry ~attempt:n
          ~unit_jitter:(Injector.jitter injector)
      in
      Reliability.record_backoff rel backoff;
      elapsed := !elapsed +. backoff;
      `Retry
    end
  in
  (* The resilient load loop for one region: fetch, program, recover. *)
  let load_region ~step r needed ~elapsed =
    let frames = region_frames.(r) in
    let key = (r, needed) in
    let rec attempt n ~faulted =
      let stall, external_fetch = fetch_stall key frames in
      fetch_time := !fetch_time +. stall;
      elapsed := !elapsed +. stall;
      let fetch_fault =
        if external_fetch then Injector.draw injector Injector.Fetch_op
        else None
      in
      match fetch_fault with
      | Some kind ->
        (* Nothing usable arrived: a timed-out fetch delivered nothing,
           a corrupt image fails its CRC. Either way the cache copy
           inserted by the miss is invalid. *)
        on_fault ~step ~region:r ~attempt:n kind;
        (match cache with
         | Some c -> Fetch.invalidate c ~key
         | None -> ());
        Reliability.record_wasted rel stall;
        (match retry_or_give_up ~elapsed n kind with
         | `Gave_up kind -> `Gave_up kind
         | `Retry -> attempt (n + 1) ~faulted:true)
      | None -> (
        match Injector.draw injector Injector.Program_op with
        | None ->
          let icap_s = Fpga.Icap.seconds_of_frames icap frames in
          icap_time := !icap_time +. icap_s;
          elapsed := !elapsed +. icap_s;
          incr reconfigurations;
          if faulted then begin
            Reliability.record_recovered rel;
            Prtelemetry.Counter.incr recovered_c
          end;
          `Loaded
        | Some Injector.Device_busy ->
          (* Port busy: nothing streamed, no ICAP time burnt. *)
          on_fault ~step ~region:r ~attempt:n Injector.Device_busy;
          (match retry_or_give_up ~elapsed n Injector.Device_busy with
           | `Gave_up kind -> `Gave_up kind
           | `Retry -> attempt (n + 1) ~faulted:true)
        | Some ((Injector.Icap_crc_error | Injector.Seu_upset) as kind) ->
          (* Programming started (or completed, then was upset): the
             ICAP time is burnt and the region now holds garbage. *)
          let icap_s = Fpga.Icap.seconds_of_frames icap frames in
          icap_time := !icap_time +. icap_s;
          elapsed := !elapsed +. icap_s;
          resident.(r) <- corrupt;
          on_fault ~step ~region:r ~attempt:n kind;
          Reliability.record_wasted rel icap_s;
          (match retry_or_give_up ~elapsed n kind with
           | `Gave_up kind -> `Gave_up kind
           | `Retry -> attempt (n + 1) ~faulted:true)
        | Some ((Injector.Fetch_timeout | Injector.Corrupt_bitstream) as k) ->
          (* The injector never answers a Program_op with a fetch kind. *)
          invalid_arg
            (Printf.sprintf
               "Resilient.simulate: injector returned %s for a program \
                operation"
               (Injector.kind_name k)))
    in
    attempt 1 ~faulted:false
  in
  let run () =
    List.iter
      (fun target ->
        incr step;
        Prtelemetry.Counter.incr step_c;
        let from = !current in
        let elapsed = ref 0. in
        let reconfigured = ref [] in
        let step_frames = ref 0 in
        let loaded r needed =
          resident.(r) <- needed;
          region_loads.(r) <- region_loads.(r) + 1;
          reconfigured := r :: !reconfigured;
          step_frames := !step_frames + region_frames.(r)
        in
        if target <> !current then begin
          incr transitions;
          Prtelemetry.Counter.incr transition_c;
          (* Bring every region the target uses up to date, in ascending
             order. An idle region keeps its old bitstream. *)
          let wanted = scheme.Scheme.resident.(target) in
          let rec go r =
            if r >= regions then `Done
            else
              let needed = wanted.(r) in
              if needed < 0 || resident.(r) = needed then go (r + 1)
              else (
                match load_region ~step:!step r needed ~elapsed with
                | `Loaded ->
                  loaded r needed;
                  go (r + 1)
                | `Gave_up kind ->
                  Reliability.record_failed_load rel;
                  (match fault.policy with
                   | Recovery.Abort | Recovery.Retry_then_fail ->
                     raise (Abort_run (!step, r, kind))
                   | Recovery.Skip_transition -> `Skipped
                   | Recovery.Fallback_safe_config -> `Fallback))
          in
          match go 0 with
          | `Done -> current := target
          | `Skipped ->
            (* Drop the adaptation step: stay in the old configuration.
               Regions already reprogrammed keep their new content, as
               on real fabric. *)
            Reliability.record_dropped_transition rel;
            Prtelemetry.Counter.incr dropped_c
          | `Fallback ->
            (* Degrade to the safe configuration, best effort: a region
               whose safe load also fails is left garbage and will be
               reloaded whenever next needed. *)
            Reliability.record_fallback rel;
            Prtelemetry.Counter.incr fallback_c;
            let wanted = scheme.Scheme.resident.(safe) in
            for r = 0 to regions - 1 do
              let needed = wanted.(r) in
              if needed >= 0 && resident.(r) <> needed then
                match load_region ~step:!step r needed ~elapsed with
                | `Loaded -> loaded r needed
                | `Gave_up _ ->
                  Reliability.record_failed_load rel;
                  resident.(r) <- corrupt
            done;
            current := safe
        end;
        let seconds = Fpga.Icap.seconds_of_frames icap !step_frames in
        total_frames := !total_frames + !step_frames;
        total_seconds := !total_seconds +. seconds;
        if !step_frames > !max_frames then max_frames := !step_frames;
        Prtelemetry.Counter.incr frame_c ~by:!step_frames;
        if Prtelemetry.tracing telemetry && target <> from then
          Prtelemetry.point telemetry "runtime.transition"
            ~attrs:
              [ ("step", Prtelemetry.Json.Int !step);
                ("from", Prtelemetry.Json.Int from);
                ("to", Prtelemetry.Json.Int target);
                ( "regions",
                  Prtelemetry.Json.Int (List.length !reconfigured) );
                ("frames", Prtelemetry.Json.Int !step_frames) ];
        trace
          { Manager.step = !step;
            from_config = from;
            to_config = target;
            regions_reconfigured = List.rev !reconfigured;
            frames = !step_frames;
            seconds })
      sequence
  in
  let aborted =
    match run () with
    | () -> None
    | exception Abort_run (s, r, kind) ->
      Reliability.mark_incomplete rel;
      Some (s, r, kind)
  in
  let summary = Reliability.snapshot rel in
  Prtelemetry.set_gauge telemetry "runtime.total_seconds" !total_seconds;
  Prtelemetry.set_gauge telemetry "fault.added_seconds"
    summary.Reliability.added_seconds;
  Prtelemetry.set_gauge telemetry "fault.mttr_seconds"
    summary.Reliability.mttr_seconds;
  match aborted with
  | Some (failed_step, failed_region, kind) ->
    Error { failed_step; failed_region; kind; reliability = summary }
  | None ->
    let stats =
      { Manager.steps = !step;
        transitions = !transitions;
        total_frames = !total_frames;
        total_seconds = !total_seconds;
        max_frames = !max_frames;
        mean_frames =
          (if !transitions = 0 then 0.
           else float_of_int !total_frames /. float_of_int !transitions);
        region_loads }
    in
    let fetch =
      match memory with
      | None -> None
      | Some _ ->
        Some
          { Fetch.reconfigurations = !reconfigurations;
            hits = !hits;
            misses = !misses;
            icap_seconds = !icap_time;
            fetch_seconds = !fetch_time;
            total_seconds = !icap_time +. !fetch_time }
    in
    Ok
      { stats;
        fetch;
        reliability = summary;
        final_config = !current;
        operations = Injector.operations injector }
