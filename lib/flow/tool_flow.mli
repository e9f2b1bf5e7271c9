(** The proposed PR tool flow of the paper's Fig. 2, end to end:

    1. take a validated design description (resource requirements stand in
       for the XST synthesis results),
    2. run the partitioning algorithm ({!Prcore.Engine}),
    3. create wrapper modules for the combined modes ({!Hdl.Wrapper}),
    4. floorplan the regions ({!Floorplan.Placer}) — with the
       feedback-driven device escalation the paper leaves to future work:
       when the rectangles do not fit, the next larger device is selected
       and partitioning re-runs against it,
    5. generate the full and partial bitstreams ({!Bitgen.Repository}).

    The result bundles every artefact a downstream build would consume. *)

type resilience = {
  fault : Runtime.Resilient.config;  (** What faults and how to recover. *)
  walk_steps : int;  (** Length of the assessment walk. *)
  walk_seed : int;  (** Seed of the random adaptation walk. *)
  memory : Runtime.Fetch.memory;  (** Bitstream store to fetch from. *)
}
(** Post-build stress test: replay a seeded random adaptation walk over
    the final scheme under fault injection ({!Runtime.Resilient}) and
    report how the deployment would degrade. *)

val default_resilience : resilience
(** 1% uniform fault rate, safe-config fallback, 1000 steps from
    configuration flash, seed 1. *)

type options = {
  engine : Prcore.Engine.options;
  strategy : Prcore.Strategy.t;
      (** Search backend for the partitioning engine (default
          {!Prcore.Strategy.default}, the historical greedy pipeline;
          see {!Prcore.Engine.solve}'s [strategy]). *)
  icap : Fpga.Icap.t;
  floorplan_feedback : bool;
      (** Escalate and re-partition when placement fails (default
          [true]). With [false] a placement failure is an error. *)
  placement_aware : bool;
      (** Feed floorplan feasibility into the partition search itself
          (default [false], bit-identical to the placement-unaware
          flow): the target device's column layout is handed to the
          engine as a {!Prcore.Cost.placement} penalty hook built on
          {!Floorplan.Estimate}, so the search avoids schemes the
          floorplanner cannot realise {e before} the post-hoc feedback
          loop has to escalate devices. [Fixed] targets use the named
          device; a [Budget] uses the smallest catalogued device
          fitting it; [Auto]'s first attempt runs unaware (its device
          is unknown) and every feedback re-partition is aware. Counted
          under ["flow.placement_aware_runs"], with the winning
          scheme's penalty in the ["flow.placement_penalty"] gauge and
          [outcome.placement_penalty]. *)
  telemetry : Prtelemetry.t;
      (** Telemetry handle threaded through every stage (default
          {!Prtelemetry.null}, free). A live handle collects a
          ["flow.run"] span over the full engine / floorplan / bitgen
          instrumentation, a ["flow.floorplan_escalations"] counter and
          ["flow.escalate"] trace points, and makes {!render_summary}
          append a telemetry section and {!write_outputs} emit
          [stats.txt] (plus [trace.jsonl] when the handle traces). *)
  resilience : resilience option;
      (** When set, {!run} appends a fault-injected walk assessment to
          the report (default [None]; skipped for designs with fewer
          than two configurations). *)
  jobs : int;
      (** Worker domains for the engine's candidate-set fan-out
          (default 1, sequential); results are bit-identical for any
          value (see {!Prcore.Engine.solve}). *)
  verify : bool;
      (** Run the independent-oracle suite over the finished
          implementation (default [false]). Arms the engine's
          from-scratch self-check ({!Prcore.Engine.solve}'s [verify])
          and records {!Prverify.Checker.check_implementation}'s
          diagnostics in the report — {!render_summary} then appends a
          verification section and {!write_outputs} emits [verify.txt].
          Counted under the ["verify.*"] telemetry keys. *)
  budget : Prguard.Budget.spec option;
      (** Wall-clock / evaluation budget for the partition search
          (default [None], unlimited — bit-identical to the unguarded
          flow). One live {!Prguard.Budget.t} is created per {!run} and
          shared across floorplan-feedback re-partitioning rounds, so
          the deadline bounds the {e whole} flow, not each attempt.
          When the search degrades, {!render_summary} adds a [guard:]
          line and [outcome.degraded] carries the verdict. *)
  ladder : Prguard.Ladder.t option;
      (** Graceful-degradation ladder for the per-candidate-set
          allocation (default [None]; see {!Prcore.Engine.solve}). *)
}

val default_options : options

val placement_hook : Fpga.Device.t -> Prcore.Cost.placement
(** The {!Floorplan.Estimate} placeability penalty over [device]'s
    column layout, packaged in the engine's {!Prcore.Cost.placement}
    convention — what the flow installs when [placement_aware] is set,
    exposed so the CLI's [partition] command (and tests) can build the
    same hook for a resolved target device. *)

type report = {
  design : Prdesign.Design.t;
  outcome : Prcore.Engine.outcome;
  device : Fpga.Device.t;  (** Device the design was implemented on. *)
  layout : Floorplan.Layout.t;
  placement : Floorplan.Placer.outcome;
      (** Rectangles for each region, then the static area. *)
  floorplan_escalations : int;
      (** Devices rejected by the placement feedback loop. *)
  wrappers : (string * string) list;  (** Verilog files, step 3/4. *)
  repository : Bitgen.Repository.t;  (** Bitstreams, step 7. *)
  telemetry : Prtelemetry.t;
      (** The handle the flow ran with — {!Prtelemetry.null} unless the
          caller opted in via {!options}. *)
  resilience :
    (Runtime.Resilient.outcome, Runtime.Resilient.failure) result option;
      (** The fault-injected walk assessment when
          [options.resilience] was set — [Error] when the configured
          recovery policy let the walk abort. *)
  diagnostics : Prverify.Diagnostic.t list option;
      (** The independent-oracle verdict over the implementation when
          [options.verify] was set: [Some []] (or warnings only) is a
          clean bill of health; errors mean an invariant of the
          pipeline's own artefacts was violated. *)
}

val run :
  ?options:options ->
  target:Prcore.Engine.target ->
  Prdesign.Design.t ->
  (report, string) result
(** For a [Budget] target the partitioning is solved once and only the
    floorplan device escalates; for [Fixed]/[Auto] targets the feedback
    loop re-partitions on each larger device. *)

val render_summary : report -> string

val write_outputs :
  ?fsync:bool -> dir:string -> report -> (string list, string) result
(** Write every artefact under [dir] (created with its missing ancestors):
    the wrapper [.v] files, one [.bit] per bitstream, the design
    description [design.xml] and a [report.txt]; with live telemetry also
    a [stats.txt] summary and (when tracing) the [trace.jsonl] event
    stream; with [options.verify] also the [verify.txt] oracle report.

    Every file is written {e crash-safely} through
    {!Prguard.Atomic_io.write} (temp in the destination directory + fsync
    + rename) with a CRC32 checksum sidecar ([<file>.crc32]), so an
    interrupted run leaves either the previous artefact or the complete
    new one — and {!Prguard.recover} detects anything in between.
    Temporary files are cleaned up on failure paths.

    Returns the written paths (data files and their sidecars), or
    [Error message] when the directory cannot be created or a file cannot
    be written (no exception escapes to the caller). [fsync] (default
    [true]) can be disabled for tests. *)
