(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index), plus ablations
   and a Bechamel performance suite.

   Usage: main.exe [experiment ...]
   where experiment is one of: table1 table2 table3 table4 table5 fig7
   fig8 fig9 stats ablate proxy serve perf bench-json bench-compare all
   (default: all). bench-json appends its metrics to
   BENCH_history.jsonl; bench-compare diffs the two most recent entries
   and exits non-zero on a regression (`make perf-compare`).

   The synthetic sweep honours PRPART_SWEEP_COUNT (default 1000) and
   PRPART_SWEEP_SEED (default 2013) so CI can run a reduced population. *)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let sweep_count () =
  match Sys.getenv_opt "PRPART_SWEEP_COUNT" with
  | Some v -> (match int_of_string_opt v with Some n when n > 0 -> n | _ -> 1000)
  | None -> 1000

let sweep_seed () =
  match Sys.getenv_opt "PRPART_SWEEP_SEED" with
  | Some v -> (match int_of_string_opt v with Some n -> n | None -> 2013)
  | None -> 2013

(* The sweep feeds Figs. 7-9 and the stats block; run it once, lazily. *)
let sweep_rows =
  lazy
    (let count = sweep_count () and seed = sweep_seed () in
     Printf.printf "[sweep: %d synthetic designs, seed %d]\n%!" count seed;
     let t0 = Sys.time () in
     let rows = Experiments.Sweep.run ~count ~seed () in
     Printf.printf "[sweep finished in %.1fs CPU]\n%!" (Sys.time () -. t0);
     (rows, count - List.length rows))

let table1 () =
  section "Table I: base partitions of the running example";
  let t = Experiments.Case_study.Table1.run () in
  print_string (Experiments.Case_study.Table1.render t)

let table2 () =
  section "Table II: video receiver resource utilisation";
  let d = Experiments.Case_study.Table2.run () in
  print_string (Experiments.Case_study.Table2.render d)

let table3_4 = lazy (Experiments.Case_study.Table3_4.run ())

let table3 () =
  section "Table III: partitions determined by the algorithm";
  print_string
    (Experiments.Case_study.Table3_4.render_partitions (Lazy.force table3_4))

let table4 () =
  section "Table IV: properties of the partitioning schemes";
  print_string
    (Experiments.Case_study.Table3_4.render_comparison (Lazy.force table3_4))

let table5 () =
  section "Table V: partitions for the modified configurations";
  print_string (Experiments.Case_study.Table5.render (Experiments.Case_study.Table5.run ()))

let fig7 () =
  section "Fig. 7: total reconfiguration time by target FPGA";
  let rows, _ = Lazy.force sweep_rows in
  print_string (Experiments.Sweep.render_fig ~metric:`Total rows)

let fig8 () =
  section "Fig. 8: worst-case reconfiguration time by target FPGA";
  let rows, _ = Lazy.force sweep_rows in
  print_string (Experiments.Sweep.render_fig ~metric:`Worst rows)

let fig9 () =
  section "Fig. 9: percentage-change histograms";
  let rows, _ = Lazy.force sweep_rows in
  print_string (Experiments.Sweep.render_fig9 rows)

let stats () =
  section "Headline statistics (paper Section V)";
  let rows, skipped = Lazy.force sweep_rows in
  print_string
    (Experiments.Sweep.render_summary (Experiments.Sweep.summarise ~skipped rows))

let ablate () =
  section "Ablation: frequency-weight rule";
  print_string
    (Experiments.Ablation.render_variants ~header:"support vs min-edge"
       (Experiments.Ablation.frequency_rule ()));
  section "Ablation: static promotion";
  print_string
    (Experiments.Ablation.render_variants ~header:"promotion on vs off"
       (Experiments.Ablation.static_promotion ()));
  section "Ablation: allocator restart budget";
  print_string
    (Experiments.Ablation.render_variants ~header:"restart budget"
       (Experiments.Ablation.restart_budget ()))

let proxy () =
  section "Ablation: pairwise metric vs runtime simulation";
  print_string
    (Experiments.Ablation.render_proxy
       (Experiments.Ablation.proxy_vs_simulation ()))

let sensitivity () =
  section "Sensitivity: workload-recipe parameters";
  print_string
    (Experiments.Sensitivity.render ~title:"absence probability"
       (Experiments.Sensitivity.absence_probability ()));
  print_newline ();
  print_string
    (Experiments.Sensitivity.render ~title:"design size"
       (Experiments.Sensitivity.design_size ()));
  print_newline ();
  print_string
    (Experiments.Sensitivity.render ~title:"configuration count"
       (Experiments.Sensitivity.configuration_count ()))

let cache () =
  section "Ablation: bitstream fetch path and on-chip cache";
  print_string
    (Experiments.Ablation.render_cache (Experiments.Ablation.fetch_cache ()))

let arch () =
  section "What-if: neighbouring architecture generations";
  print_string
    (Experiments.Ablation.render_arch
       (Experiments.Ablation.cross_architecture ()))

let gap () =
  section "Ablation: greedy vs exact allocation (optimality gap)";
  print_string
    (Experiments.Ablation.render_gap (Experiments.Ablation.optimality_gap ()))

let weighted () =
  section "Extension: transition-probability-weighted objective";
  print_string
    (Experiments.Ablation.render_weighted
       (Experiments.Ablation.weighted_objective ()))

let faults () =
  section "Robustness: fault-injection sweep over the reference schemes";
  print_string (Experiments.Faults.render_sweep (Experiments.Faults.sweep ()));
  print_newline ();
  print_string
    (Experiments.Faults.render_policies (Experiments.Faults.policies ()))

(* Fault-injection smoke for the test suite (--quick): a scripted fault
   schedule with a fixed seed must (1) leave the fault-free statistics
   of the seed-5 40-step case-study walk bit-for-bit equal to golden
   values (integers and the floats' exact bits), (2) inject exactly the
   scheduled faults and recover them all, and (3) replay to an
   identical reliability report. Exits 1 on any mismatch. *)
let fault_smoke () =
  section "Fault smoke: scripted schedule, fixed seed, golden report";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "FAULT SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let receiver = Prdesign.Design_library.video_receiver in
  let scheme =
    match
      Prcore.Engine.solve
        ~target:(Prcore.Engine.Budget Prdesign.Design_library.case_study_budget)
        receiver
    with
    | Ok o -> o.Prcore.Engine.scheme
    | Error message -> fail "case-study solve: %s" message
  in
  let rng = Synth.Rng.make 5 in
  let sequence =
    Runtime.Manager.random_walk
      ~rand:(fun n -> Synth.Rng.int rng n)
      ~configs:(Prdesign.Design.configuration_count receiver)
      ~steps:40 ~initial:0
  in
  (* (1) Inactive injector: bit-for-bit equal to the golden replay. *)
  let golden =
    { Runtime.Manager.steps = 40;
      transitions = 40;
      total_frames = 337746;
      total_seconds = 0x1.1b993b4fe2409p-3;
      max_frames = 12662;
      mean_frames = 0x1.07dd333333333p+13;
      region_loads = [| 7; 19; 29; 27 |] }
  in
  (match Runtime.Resilient.simulate scheme ~initial:0 ~sequence with
   | Error _ -> fail "inactive injector must not fail"
   | Ok o ->
     if o.Runtime.Resilient.stats <> golden then
       fail "inactive injector diverged from the golden replay");
  (* (2) Scripted schedule: exactly these operations fault, all recover. *)
  (* Operations alternate fetch/program per load attempt and a faulted
     attempt replays both, so with a fault-free prefix in mind:
     op 0 fetch (timeout) -> 1 fetch, 2 program; 3 fetch, 4 program
     (CRC) -> 5 fetch, 6 program; 7 fetch (corrupt) -> 8 fetch,
     9 program; 10 fetch, 11 program (SEU) -> 12 fetch, 13 program;
     14 fetch, 15 program (busy) -> 16 fetch, 17 program. *)
  let schedule =
    [ (0, Prfault.Injector.Fetch_timeout);
      (4, Prfault.Injector.Icap_crc_error);
      (7, Prfault.Injector.Corrupt_bitstream);
      (11, Prfault.Injector.Seu_upset);
      (15, Prfault.Injector.Device_busy) ]
  in
  let fault =
    { Runtime.Resilient.default_config with
      spec = { Prfault.Injector.disabled with seed = 42; schedule } }
  in
  let run () =
    match
      Runtime.Resilient.simulate ~memory:Runtime.Fetch.flash ~fault scheme
        ~initial:0 ~sequence
    with
    | Ok o -> o
    | Error f ->
      fail "scheduled faults must recover: %s"
        (Runtime.Resilient.render_failure f)
  in
  let o = run () in
  let r = o.Runtime.Resilient.reliability in
  if r.Prfault.Reliability.total_faults <> List.length schedule then
    fail "expected %d faults, saw %d" (List.length schedule)
      r.Prfault.Reliability.total_faults;
  List.iter
    (fun (kind, expected) ->
      let seen = List.assoc kind r.Prfault.Reliability.faults_by_kind in
      if seen <> expected then
        fail "expected %d %s faults, saw %d" expected
          (Prfault.Injector.kind_name kind)
          seen)
    [ (Prfault.Injector.Fetch_timeout, 1);
      (Prfault.Injector.Corrupt_bitstream, 1);
      (Prfault.Injector.Icap_crc_error, 1);
      (Prfault.Injector.Seu_upset, 1);
      (Prfault.Injector.Device_busy, 1) ];
  if r.Prfault.Reliability.recovered_loads <> List.length schedule then
    fail "expected every scheduled fault recovered";
  if
    r.Prfault.Reliability.failed_loads <> 0
    || r.Prfault.Reliability.dropped_transitions <> 0
    || not r.Prfault.Reliability.completed
  then fail "scheduled run must complete without degradation";
  if r.Prfault.Reliability.added_seconds <= 0. then
    fail "recovery must add latency";
  (* (3) Determinism: the golden report replays identically. *)
  let r' = (run ()).Runtime.Resilient.reliability in
  if not (Prfault.Reliability.equal r r') then
    fail "two runs of the same seed produced different reliability reports";
  print_string (Prfault.Reliability.render r);
  Printf.printf "fault smoke OK (%d ops, %d faults, deterministic)\n"
    o.Runtime.Resilient.operations r.Prfault.Reliability.total_faults

(* Telemetry: per-phase timings of the case-study solve, plus the
   overhead of the three handle operating points (dead null handle,
   counting-only over the null sink, full tracing over a memory sink). *)
let telemetry ?(quick = false) () =
  section "Telemetry: per-phase timings of the case-study solve";
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  let tele = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
  (match Prcore.Engine.solve ~telemetry:tele ~target receiver with
   | Ok outcome ->
     Printf.printf "cost evaluations: %d\n" outcome.Prcore.Engine.cost_evaluations
   | Error message -> Printf.printf "solve failed: %s\n" message);
  Prtelemetry.flush tele;
  Printf.printf "trace events: %d\n" (List.length (Prtelemetry.events tele));
  print_string (Prtelemetry.summary tele);
  let reps = if quick then 2 else 25 in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    Sys.time () -. t0
  in
  let solve tele () =
    ignore (Prcore.Engine.solve ~telemetry:tele ~target receiver)
  in
  (* Warm up allocators and caches before the comparison. *)
  solve Prtelemetry.null ();
  let base = time (solve Prtelemetry.null) in
  let counting =
    time (fun () -> solve (Prtelemetry.create Prtelemetry.Sink.null) ())
  in
  let tracing =
    time (fun () ->
        solve (Prtelemetry.create (Prtelemetry.Sink.memory ())) ())
  in
  let pct x = if base > 0. then 100. *. (x -. base) /. base else 0. in
  Printf.printf "handle overhead over %d case-study solves:\n" reps;
  Printf.printf "  null handle           %8.3fs (baseline)\n" base;
  Printf.printf "  counting (null sink)  %8.3fs (%+.1f%%)\n" counting
    (pct counting);
  Printf.printf "  tracing (memory sink) %8.3fs (%+.1f%%)\n" tracing
    (pct tracing)

(* Shared Bechamel harness: OLS ns/run estimate of one staged thunk. *)
let bechamel_ns test =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ])
  in
  let analysed = Analyze.all ols (List.hd instances) results in
  let estimate = ref nan in
  Hashtbl.iter
    (fun _ r ->
      match Analyze.OLS.estimates r with
      | Some [ v ] -> estimate := v
      | Some _ | None -> ())
    analysed;
  !estimate

(* Prspeed smoke (runs under --quick, so `dune runtest` gates on it):
   (1) a tiny sweep with --jobs 2 must be bit-identical to the
   sequential one, (2) the parallel case-study solve must equal the
   sequential solve, and (3) the case-study solve must exercise the
   delta kernels (perf.delta_evals > 0). Exits 1 on any violation. *)
let prspeed_smoke () =
  section "Prspeed smoke: parallel determinism + delta kernels";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRSPEED SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let sweep_n = 6 in
  let seq = Experiments.Sweep.run ~count:sweep_n ~jobs:1 () in
  let par = Experiments.Sweep.run ~count:sweep_n ~jobs:2 () in
  if seq <> par then fail "parallel sweep diverged from the sequential one";
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  let tele = Prtelemetry.create Prtelemetry.Sink.null in
  let solve ?telemetry ?jobs () =
    match Prcore.Engine.solve ?telemetry ?jobs ~target receiver with
    | Ok o -> o
    | Error m -> fail "case-study solve: %s" m
  in
  let a = solve ~telemetry:tele () in
  let b = solve ~jobs:2 () in
  if
    Prcore.Memo.scheme_signature a.Prcore.Engine.scheme
    <> Prcore.Memo.scheme_signature b.Prcore.Engine.scheme
    || a.Prcore.Engine.evaluation <> b.Prcore.Engine.evaluation
    || a.Prcore.Engine.cost_evaluations <> b.Prcore.Engine.cost_evaluations
  then fail "parallel case-study solve diverged from the sequential one";
  let deltas = Prtelemetry.counter_value tele "perf.delta_evals" in
  if deltas <= 0 then fail "case-study solve recorded no delta evaluations";
  Printf.printf
    "prspeed smoke OK (%d-design sweep and case-study solve identical \
     across jobs; %d delta evals)\n"
    sweep_n deltas

(* Prverify smoke (runs under --quick, so `dune runtest` gates on it):
   (1) every library design passes the independent design oracle,
   (2) the case-study solve passes check-after-solve with zero errors,
   (3) every seeded mutation is killed by exactly its expected
   diagnostic code, and (4) a small differential fuzz run is clean.
   Exits 1 on any violation. *)
let verify_smoke () =
  section "Prverify smoke: oracles, mutation kills, differential fuzz";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRVERIFY SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  List.iter
    (fun (name, design) ->
      let diagnostics = Prverify.Checker.check_design design in
      if not (Prverify.Diagnostic.ok diagnostics) then
        fail "design oracle rejected %s:\n%s" name
          (Prverify.Checker.render_report diagnostics))
    Prdesign.Design_library.all;
  let receiver = Prdesign.Design_library.video_receiver in
  let outcome =
    match
      Prcore.Engine.solve ~verify:true
        ~target:(Prcore.Engine.Budget Prdesign.Design_library.case_study_budget)
        receiver
    with
    | Ok o -> o
    | Error m -> fail "verified case-study solve: %s" m
  in
  let diagnostics = Prverify.Checker.check_outcome outcome in
  if not (Prverify.Diagnostic.ok diagnostics) then
    fail "check-after-solve rejected the case study:\n%s"
      (Prverify.Checker.render_report diagnostics);
  let kills = Prverify.Fuzz.mutation_kills () in
  if not (Prverify.Fuzz.all_killed kills) then
    fail "a seeded mutation survived:\n%s" (Prverify.Fuzz.render_kills kills);
  let fuzz = Prverify.Fuzz.run ~count:25 ~seed:41 () in
  if fuzz.Prverify.Fuzz.failures <> [] then
    fail "differential fuzz diverged:\n%s"
      (Prverify.Fuzz.render_summary fuzz);
  Printf.printf
    "prverify smoke OK (%d library designs, case-study %s, %d/%d \
     mutations killed, %d-design fuzz clean)\n"
    (List.length Prdesign.Design_library.all)
    (String.trim (Prverify.Checker.summary_line diagnostics))
    (List.length kills) (List.length kills) fuzz.Prverify.Fuzz.designs

(* The full verification experiment: oracle pass over the library, the
   seeded mutation-kill matrix, and a larger differential fuzz run. *)
let verify () =
  section "Prverify: mutation-kill matrix and differential fuzz";
  let kills = Prverify.Fuzz.mutation_kills () in
  print_string (Prverify.Fuzz.render_kills kills);
  print_newline ();
  let fuzz = Prverify.Fuzz.run ~count:150 ~seed:2013 () in
  print_string (Prverify.Fuzz.render_summary fuzz)

(* Fresh scratch directory for the crash-recovery exercises. *)
let guard_scratch_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prguard-bench-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  (match Prguard.Atomic_io.mkdir_p dir with
  | Ok () -> ()
  | Error m ->
    Printf.printf "cannot create scratch dir %s: %s\n" dir m;
    exit 1);
  dir

(* Write an artefact with a sidecar, tear it with a raw overwrite, and
   check that [Prguard.recover] quarantines it and that a second pass is
   clean.  Returns [true] on a full round trip. *)
let guard_recovery_roundtrip () =
  let checksum = Bitgen.Crc32.hex_digest in
  let dir = guard_scratch_dir () in
  let path = Filename.concat dir "artefact.bit" in
  let ok =
    match Prguard.Atomic_io.write ~checksum ~path "frame-data-0123456789" with
    | Error _ -> false
    | Ok () -> (
      (* Torn write: clobber the payload behind the sidecar's back. *)
      let oc = open_out path in
      output_string oc "torn";
      close_out oc;
      match Prguard.recover ~checksum ~dir () with
      | Error _ -> false
      | Ok first -> (
        (not (Prguard.Atomic_io.clean first))
        && List.length first.Prguard.Atomic_io.quarantined = 2
        &&
        match Prguard.recover ~checksum ~dir () with
        | Error _ -> false
        | Ok second -> Prguard.Atomic_io.clean second))
  in
  ok

(* Prguard smoke (runs under --quick, so `dune runtest` gates on it):
   (1) an eval-capped case-study solve must degrade gracefully — still
   feasible, flagged as guarded+degraded, and bit-reproducible across
   runs, (2) a generous cap must coincide with the uncapped solve whose
   verdict must be unguarded, and (3) a torn artefact must be detected
   and quarantined by [Prguard.recover].  Exits 1 on any violation. *)
let guard_smoke () =
  section "Prguard smoke: anytime degradation + crash recovery";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRGUARD SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  let solve ?budget () =
    match Prcore.Engine.solve ?budget ~target receiver with
    | Ok o -> o
    | Error m -> fail "case-study solve: %s" m
  in
  let capped () = solve ~budget:(Prguard.Budget.make ~max_evals:400 ()) () in
  let a = capped () in
  let v = a.Prcore.Engine.degraded in
  if not (v.Prguard.Budget.guarded && v.Prguard.Budget.degraded) then
    fail "eval-capped solve did not report a guarded, degraded verdict";
  if v.Prguard.Budget.reason <> Prguard.Budget.Eval_cap then
    fail "eval-capped solve expired for %s, not the eval cap"
      (Prguard.Budget.reason_name v.Prguard.Budget.reason);
  if
    not
      (Prcore.Cost.fits a.Prcore.Engine.evaluation
         ~budget:a.Prcore.Engine.budget)
  then fail "eval-capped solve returned an infeasible scheme";
  let b = capped () in
  if
    a.Prcore.Engine.evaluation <> b.Prcore.Engine.evaluation
    || a.Prcore.Engine.cost_evaluations <> b.Prcore.Engine.cost_evaluations
  then fail "eval-capped solve is not reproducible";
  let unlimited = solve () in
  if unlimited.Prcore.Engine.degraded.Prguard.Budget.guarded then
    fail "unguarded solve reported a guarded verdict";
  let huge = solve ~budget:(Prguard.Budget.make ~max_evals:100_000_000 ()) () in
  if
    Prcore.Memo.scheme_signature huge.Prcore.Engine.scheme
    <> Prcore.Memo.scheme_signature unlimited.Prcore.Engine.scheme
    || huge.Prcore.Engine.evaluation <> unlimited.Prcore.Engine.evaluation
  then fail "a generous eval cap changed the uncapped answer";
  if not (guard_recovery_roundtrip ()) then
    fail "torn-artefact recovery round trip failed";
  Printf.printf
    "prguard smoke OK (capped solve feasible+reproducible at %d evals, \
     generous cap bit-identical, torn artefact quarantined)\n"
    v.Prguard.Budget.evals_used

(* The full guard experiment: anytime quality under shrinking evaluation
   caps, the default degradation ladder, and a short wall-clock
   deadline — the robustness analogue of the paper's quality tables. *)
let guard () =
  section "Prguard: anytime quality under budgets";
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  let solve ?budget ?ladder () =
    match Prcore.Engine.solve ?budget ?ladder ~target receiver with
    | Ok o -> Some o
    | Error m ->
      Printf.printf "  solve failed: %s\n" m;
      None
  in
  let describe label = function
    | None -> ()
    | Some o ->
      Printf.printf "%-14s %6d frames  %7d evals  %s\n" label
        o.Prcore.Engine.evaluation.Prcore.Cost.total_frames
        o.Prcore.Engine.cost_evaluations
        (Prguard.Budget.render_verdict o.Prcore.Engine.degraded)
  in
  Printf.printf "case study (video receiver), eval-cap sweep:\n";
  List.iter
    (fun cap ->
      describe
        (Printf.sprintf "cap %d" cap)
        (solve ~budget:(Prguard.Budget.make ~max_evals:cap ()) ()))
    [ 100; 300; 1000; 3000; 10000 ];
  describe "uncapped" (solve ());
  Printf.printf "\ndegradation ladder and wall-clock deadline:\n";
  describe "ladder" (solve ~ladder:Prguard.Ladder.default ());
  describe "deadline 50ms"
    (solve ~budget:(Prguard.Budget.make ~deadline_ms:50. ()) ());
  Printf.printf "\ntorn-artefact recovery round trip: %s\n"
    (if guard_recovery_roundtrip () then "ok" else "FAILED")

(* ------------------------------------------------------------------ *)
(* Prscale: the multilevel backend on huge designs (DESIGN.md §12).
   Shared by the [multilevel] experiment, the bench-json "multilevel"
   section and the --quick smoke. *)

(* A feasible-but-tight resource budget for a synthetic design,
   anchored on the one-module-per-region reference: that is the usage
   floor of mode-granular partitioning (each region sized for its
   module's largest mode), so [headroom] times it is satisfiable by a
   well-packed scheme while still forcing real partitioning
   decisions. *)
let huge_budget ?(headroom = 1.3) design =
  let used =
    (Prcore.Cost.evaluate (Prcore.Scheme.one_module_per_region design))
      .Prcore.Cost.used
  in
  let scale v = int_of_float (Float.ceil (headroom *. float_of_int v)) in
  Fpga.Resource.make
    ~bram:(scale used.Fpga.Resource.bram)
    ~dsp:(scale used.Fpga.Resource.dsp)
    (scale used.Fpga.Resource.clb)

let huge_seed = 2013
let huge_modules = 200

let huge_design =
  lazy (Synth.Generator.huge ~seed:huge_seed ~modules:huge_modules ())

type ml_report = {
  mr_ms : float;  (* end-to-end Engine.solve wall time, best of three *)
  mr_total : int;
  mr_feasible : bool;
  mr_oracle_clean : bool;
  mr_stats : Prcore.Multilevel.stats;
}

let best_ms reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    best := Float.min !best (1000. *. (Unix.gettimeofday () -. t0));
    result := Some r
  done;
  (!best, Option.get !result)

(* The headline Prscale run: the seeded 200-module huge design solved
   end-to-end through the engine with [strategy = Multilevel], timed as
   the best of three like the size curve so one slow round on a loaded
   host does not trip the regression rule, checked feasible and
   oracle-clean, plus one direct [allocate_stats] pass for the V-cycle
   statistics (deterministic, so both runs see the same search). *)
let multilevel_huge_run () =
  let design = Lazy.force huge_design in
  let budget = huge_budget design in
  let ms, outcome =
    best_ms 3 (fun () ->
        Prcore.Engine.solve ~strategy:Prcore.Strategy.Multilevel
          ~target:(Prcore.Engine.Budget budget) design)
  in
  let outcome =
    match outcome with
    | Ok o -> o
    | Error m ->
      Printf.printf "BENCH FAILED: multilevel huge solve: %s\n" m;
      exit 1
  in
  let feasible =
    Prcore.Cost.fits outcome.Prcore.Engine.evaluation
      ~budget:outcome.Prcore.Engine.budget
  in
  let oracle_clean =
    Prverify.Checker.ok (Prverify.Checker.check_outcome outcome)
  in
  let _, stats =
    Prcore.Multilevel.allocate_stats ~budget design
      (Prcore.Multilevel.nodes design)
  in
  { mr_ms = ms;
    mr_total = outcome.Prcore.Engine.evaluation.Prcore.Cost.total_frames;
    mr_feasible = feasible;
    mr_oracle_clean = oracle_clean;
    mr_stats = stats }

(* Design-size curve of the multilevel path: at each size, the
   compatibility analysis of the mode singletons (best of twenty calls:
   it is sub-millisecond below 200 modules), the unguarded engine
   solve (best of three) and the V-cycle's stages, so a stage that grows
   faster than linear shows as a steepening curve and the [ms_per_run]
   regression rule catches its return. *)
let multilevel_curve_sizes = [ 50; 100; 200; 400 ]

type ml_size = {
  ms_modules : int;
  ms_analyse_ms : float;
  ms_solve_ms : float;
  ms_total : int;
  ms_stage_ms : float array;  (* coarsen, partners, refine *)
  ms_stats : Prcore.Multilevel.stats;
}

let vcycle_stages = [ "coarsen"; "partners"; "refine" ]

(* Three [allocate_stats] runs on a memory-sink telemetry handle: each
   stage's time summed over its [multilevel.*] spans in a run (partners
   and refine have one span per level), best of the three runs, and the
   run's statistics (deterministic, so any run's). *)
let vcycle_stage_run ~budget design =
  let nodes = Prcore.Multilevel.nodes design in
  let run () =
    let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
    let _, stats =
      Prcore.Multilevel.allocate_stats ~telemetry ~budget design nodes
    in
    let spans = Prtelemetry.span_list telemetry in
    let stage_ms stage =
      List.fold_left
        (fun acc (sp : Prtelemetry.span_stats) ->
          if sp.span_name = "multilevel." ^ stage then
            acc +. (1000. *. sp.total_s)
          else acc)
        0. spans
    in
    (Array.of_list (List.map stage_ms vcycle_stages), stats)
  in
  let runs = List.init 3 (fun _ -> run ()) in
  let best k =
    List.fold_left (fun acc (ms, _) -> Float.min acc ms.(k)) infinity runs
  in
  (Array.init (List.length vcycle_stages) best, snd (List.hd runs))

let multilevel_size_curve () =
  List.map
    (fun modules ->
      let design = Synth.Generator.huge ~seed:huge_seed ~modules () in
      let nodes = Array.of_list (Prcore.Multilevel.nodes design) in
      let analyse_ms, _ =
        best_ms 20 (fun () -> Prcore.Compatibility.analyse design nodes)
      in
      let budget = huge_budget design in
      let target = Prcore.Engine.Budget budget in
      let solve_ms, outcome =
        best_ms 3 (fun () ->
            Prcore.Engine.solve ~strategy:Prcore.Strategy.Multilevel ~target
              design)
      in
      let stage_ms, stats = vcycle_stage_run ~budget design in
      match outcome with
      | Error m ->
        Printf.printf "BENCH FAILED: multilevel %d-module solve: %s\n" modules m;
        exit 1
      | Ok o ->
        { ms_modules = modules;
          ms_analyse_ms = analyse_ms;
          ms_solve_ms = solve_ms;
          ms_total = o.Prcore.Engine.evaluation.Prcore.Cost.total_frames;
          ms_stage_ms = stage_ms;
          ms_stats = stats })
    multilevel_curve_sizes

(* Design-size curve of the implementation stages that run per region:
   at 50/100/200 modules, the multilevel scheme under [huge_budget] is
   replayed on the fault-injected 1 000-step [Tool_flow] walk by the
   reconfiguration simulator, and placed by [Placer.place] on the
   smallest catalogue device that fits it (the largest when none does),
   best of five each. A simulator or placer step that grows faster than
   the region count shows as a steepening curve. *)
let runtime_curve_sizes = [ 50; 100; 200 ]

type rt_size = {
  rt_modules : int;
  rt_regions : int;
  rt_simulate_ms : float;
  rt_place_ms : float;
}

let runtime_size_curve () =
  List.map
    (fun modules ->
      let design = Synth.Generator.huge ~seed:huge_seed ~modules () in
      let target = Prcore.Engine.Budget (huge_budget design) in
      match
        Prcore.Engine.solve ~strategy:Prcore.Strategy.Multilevel ~target design
      with
      | Error m ->
        Printf.printf "BENCH FAILED: runtime %d-module solve: %s\n" modules m;
        exit 1
      | Ok o ->
        let scheme = o.Prcore.Engine.scheme in
        let r = Flow.Tool_flow.default_resilience in
        let rng = Synth.Rng.make r.Flow.Tool_flow.walk_seed in
        let sequence =
          Runtime.Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:(Prdesign.Design.configuration_count design)
            ~steps:r.Flow.Tool_flow.walk_steps ~initial:0
        in
        let simulate_ms, _ =
          best_ms 5 (fun () ->
              Runtime.Resilient.simulate ~memory:r.Flow.Tool_flow.memory
                ~fault:r.Flow.Tool_flow.fault scheme ~initial:0 ~sequence)
        in
        let device =
          match
            Fpga.Device.smallest_fitting ~within:Fpga.Device.catalogue
              o.Prcore.Engine.evaluation.Prcore.Cost.used
          with
          | Some d -> d
          | None ->
            List.fold_left
              (fun best d ->
                if Fpga.Device.compare_capacity d best > 0 then d else best)
              (List.hd Fpga.Device.catalogue) Fpga.Device.catalogue
        in
        let layout = Floorplan.Layout.make device in
        let demands =
          Array.map Floorplan.Placer.demand_of_resources
            (Prcore.Cost.placement_demands scheme)
        in
        let place_ms, _ =
          best_ms 5 (fun () -> Floorplan.Placer.place layout demands)
        in
        { rt_modules = modules;
          rt_regions = scheme.Prcore.Scheme.region_count;
          rt_simulate_ms = simulate_ms;
          rt_place_ms = place_ms })
    runtime_curve_sizes

(* Design-size curve of the greedy allocator itself: [Allocator.allocate]
   on the multilevel node set (one singleton per used mode) of huge-class
   designs at 10/20/40 modules, under [huge_budget], best of three, with
   the moves its descents evaluated and the total frames of the scheme
   it returned (both deterministic). The descent step is
   a scan of the pair table, so a step that grows faster than the
   table's n^2 shows as a steepening curve. *)
let greedy_curve_sizes = [ 10; 20; 40 ]

type greedy_size = {
  gs_modules : int;
  gs_nodes : int;
  gs_ms : float;
  gs_moves : int;
  gs_total : int option;  (* total frames of the greedy scheme *)
}

let greedy_size_curve () =
  List.map
    (fun modules ->
      let design = Synth.Generator.huge ~seed:huge_seed ~modules () in
      let nodes = Prcore.Multilevel.nodes design in
      let budget = huge_budget design in
      let tele = Prtelemetry.create Prtelemetry.Sink.null in
      let scheme =
        Prcore.Allocator.allocate ~telemetry:tele ~budget design nodes
      in
      let ms, _ =
        best_ms 3 (fun () -> Prcore.Allocator.allocate ~budget design nodes)
      in
      { gs_modules = modules;
        gs_nodes = List.length nodes;
        gs_ms = ms;
        gs_moves = Prtelemetry.counter_value tele "alloc.moves_evaluated";
        gs_total =
          Option.map
            (fun s -> (Prcore.Cost.evaluate s).Prcore.Cost.total_frames)
            scheme })
    greedy_curve_sizes

(* Quality gap of the multilevel scheme against an eval-capped anneal
   on a small huge-class design — the largest size where the default
   pipeline's clustering front-end still terminates un-deadlined, so
   the comparison is apples-to-apples and the eval cap keeps it
   deterministic. Positive = multilevel is worse. *)
let multilevel_gap_vs_anneal () =
  let design = Synth.Generator.huge ~seed:huge_seed ~modules:14 () in
  let target = Prcore.Engine.Budget (huge_budget design) in
  let solve strategy budget =
    match Prcore.Engine.solve ~strategy ?budget ~target design with
    | Ok o -> Some o.Prcore.Engine.evaluation.Prcore.Cost.total_frames
    | Error _ -> None
  in
  let ml = solve Prcore.Strategy.Multilevel None in
  let anneal =
    solve Prcore.Strategy.Anneal
      (Some (Prguard.Budget.make ~max_evals:50_000 ()))
  in
  match (ml, anneal) with
  | Some ml, Some anneal when anneal > 0 ->
    Some (100. *. float_of_int (ml - anneal) /. float_of_int anneal)
  | _ -> None

(* The [multilevel] experiment: the scaling story in one table — on the
   200-module design, exact and anneal expire a 2 s deadline while the
   multilevel backend finishes well inside the 10 s acceptance bound,
   feasible and oracle-clean. *)
let multilevel_experiment () =
  section "Prscale: multilevel backend on 50-500-module designs";
  let design = Lazy.force huge_design in
  let budget = huge_budget design in
  let target = Prcore.Engine.Budget budget in
  Printf.printf "design: %s (%d modules, %d configurations)\n"
    design.Prdesign.Design.name
    (Prdesign.Design.module_count design)
    (Prdesign.Design.configuration_count design);
  let timed_solve label strategy guard =
    let t0 = Unix.gettimeofday () in
    let result = Prcore.Engine.solve ~strategy ?budget:guard ~target design in
    let ms = 1000. *. (Unix.gettimeofday () -. t0) in
    (match result with
     | Ok o ->
       Printf.printf "%-24s %8.0f ms  %7d frames  %s\n" label ms
         o.Prcore.Engine.evaluation.Prcore.Cost.total_frames
         (Prguard.Budget.render_verdict o.Prcore.Engine.degraded)
     | Error m ->
       Printf.printf "%-24s %8.0f ms  no feasible scheme (%s)\n" label ms
         (String.concat " " (String.split_on_char '\n' m)));
    result
  in
  let deadline () = Prguard.Budget.make ~deadline_ms:2000. () in
  ignore (timed_solve "exact (2s deadline)" Prcore.Strategy.Exact
            (Some (deadline ())));
  ignore (timed_solve "anneal (2s deadline)" Prcore.Strategy.Anneal
            (Some (deadline ())));
  let r = multilevel_huge_run () in
  Printf.printf "%-24s %8.0f ms  %7d frames  feasible=%b oracle=%s\n"
    "multilevel (unguarded)" r.mr_ms r.mr_total r.mr_feasible
    (if r.mr_oracle_clean then "clean" else "VIOLATED");
  Printf.printf
    "v-cycle: %d levels, %d merges, %d refinement passes, %d moves \
     (%d trials)\n"
    r.mr_stats.Prcore.Multilevel.levels r.mr_stats.Prcore.Multilevel.merges
    r.mr_stats.Prcore.Multilevel.passes r.mr_stats.Prcore.Multilevel.moves
    r.mr_stats.Prcore.Multilevel.trials;
  (match
     ( r.mr_stats.Prcore.Multilevel.first_feasible_total,
       r.mr_stats.Prcore.Multilevel.final_total )
   with
   | Some first, Some final ->
     Printf.printf "refinement: %d -> %d frames (monotone: %b)\n" first final
       (final <= first)
   | _ -> ());
  Printf.printf "\nsize curve (seed %d):\n%8s %12s %12s %10s\n" huge_seed
    "modules" "analyse ms" "solve ms" "frames";
  List.iter
    (fun r ->
      Printf.printf "%8d %12.2f %12.1f %10d\n" r.ms_modules r.ms_analyse_ms
        r.ms_solve_ms r.ms_total)
    (multilevel_size_curve ());
  (match multilevel_gap_vs_anneal () with
   | Some gap ->
     Printf.printf "gap vs eval-capped anneal (14 modules): %+.1f%%\n" gap
   | None -> Printf.printf "gap vs anneal: not comparable\n");
  if not (r.mr_feasible && r.mr_oracle_clean) then begin
    Printf.printf "BENCH FAILED: multilevel huge solve invariants violated\n";
    exit 1
  end

(* Prscale smoke (runs under --quick, so `dune runtest` gates on it): a
   tiny huge-class design must be solved by every strategy, each
   outcome oracle-clean, and the multilevel backend bit-identical
   across jobs 1/2/4. Exits 1 on violation. *)
let multilevel_smoke () =
  section "Prscale smoke: every strategy on a tiny huge-class design";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRSCALE SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let design = Synth.Generator.huge ~seed:7 ~modules:12 () in
  let target = Prcore.Engine.Budget (huge_budget design) in
  (* Eval-capped so the exhaustive backends truncate deterministically
     instead of dominating the smoke's wall clock. *)
  let capped () = Prguard.Budget.make ~max_evals:50_000 () in
  let outcomes =
    List.map
      (fun strategy ->
        match Prcore.Engine.solve ~strategy ~budget:(capped ()) ~target design with
        | Ok o -> (strategy, o)
        | Error m ->
          fail "%s strategy failed on the tiny huge-class design: %s"
            (Prcore.Strategy.to_string strategy) m)
      Prcore.Strategy.all
  in
  List.iter
    (fun (strategy, o) ->
      let report = Prverify.Checker.check_outcome o in
      if not (Prverify.Checker.ok report) then
        fail "%s outcome violates the oracle:\n%s"
          (Prcore.Strategy.to_string strategy)
          (Prverify.Checker.render_report report))
    outcomes;
  let ml_eval jobs =
    match
      Prcore.Engine.solve ~strategy:Prcore.Strategy.Multilevel
        ~budget:(capped ()) ~jobs ~target design
    with
    | Ok o -> o.Prcore.Engine.evaluation
    | Error m -> fail "multilevel jobs=%d: %s" jobs m
  in
  let e1 = ml_eval 1 in
  List.iter
    (fun jobs ->
      if not (Prcore.Cost.equal_evaluation e1 (ml_eval jobs)) then
        fail "multilevel diverges between jobs=1 and jobs=%d" jobs)
    [ 2; 4 ];
  Printf.printf
    "prscale smoke OK (%d strategies solved %s, oracle-clean, multilevel \
     bit-identical across jobs 1/2/4)\n"
    (List.length outcomes)
    (let d = Synth.Generator.huge ~seed:7 ~modules:12 () in
     d.Prdesign.Design.name)

(* Prserve load generation: an in-process daemon driven by concurrent
   client threads over a duplicate-heavy request mix.  Shared by the
   [serve] soak experiment, the bench-json "serve" section and the
   --quick smoke. *)

let str_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let str_starts prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let design_one_line d =
  String.map
    (fun c -> if c = '\n' || c = '\r' then ' ' else c)
    (Prdesign.Design_xml.to_string d)

let serve_designs ?(count = 8) () =
  let lib =
    List.filter_map Prdesign.Design_library.find
      [ "running-example"; "video-receiver" ]
  in
  lib
  @ List.map snd
      (Synth.Generator.batch ~seed:7 ~count:(max 1 (count - List.length lib))
         ())

type serve_load_stats = {
  sl_requests : int;
  sl_ok : int;
  sl_cached : int;
  sl_rejected : int;
  sl_errors : int;
  sl_wall_s : float;
  sl_qps : float;
  sl_hit_p50_ms : float;
  sl_miss_p50_ms : float;
  sl_p99_ms : float;
  sl_hit_rate : float;
}

(* Each client walks its own slice of the design list with every
   design requested twice in a row, so a population of [requests / 2]
   designs yields an exactly 50% duplicate mix (a smaller population
   raises the duplicate rate and the slices overlap). At that mix the
   overall median falls between the cache-hit and cache-miss modes, so
   the median is reported per cache outcome. *)
let serve_load ?(clients = 4) ~requests server designs =
  let xmls = Array.of_list (List.map design_one_line designs) in
  let n = Array.length xmls in
  let per = max 1 (requests / clients) in
  let total = clients * per in
  let oks = Atomic.make 0
  and cached = Atomic.make 0
  and rejected = Atomic.make 0
  and errors = Atomic.make 0 in
  let latencies = Array.make total 0. in
  let hit = Array.make total false in
  let t0 = Unix.gettimeofday () in
  let worker c =
    for i = 0 to per - 1 do
      let line =
        Printf.sprintf "SOLVE client=bench%d inline:%s" c
          xmls.(((c * (per / 2)) + (i / 2)) mod n)
      in
      let s = Unix.gettimeofday () in
      let reply = Prserve.Server.handle_line server line in
      latencies.((c * per) + i) <- (Unix.gettimeofday () -. s) *. 1000.;
      if str_starts "OK {" reply then begin
        Atomic.incr oks;
        if str_contains reply "\"cached\":true" then begin
          Atomic.incr cached;
          hit.((c * per) + i) <- true
        end
      end
      else if str_starts "REJECT {" reply then Atomic.incr rejected
      else Atomic.incr errors
    done
  in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let pct p sample =
    let sorted = Array.of_list sample in
    Array.sort compare sorted;
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let split cached =
    List.filteri (fun i _ -> hit.(i) = cached) (Array.to_list latencies)
  in
  let cache = Prserve.Server.cache server in
  let hits = Prserve.Cache.hits cache and misses = Prserve.Cache.misses cache in
  { sl_requests = total;
    sl_ok = Atomic.get oks;
    sl_cached = Atomic.get cached;
    sl_rejected = Atomic.get rejected;
    sl_errors = Atomic.get errors;
    sl_wall_s = wall;
    sl_qps = (if wall > 0. then float_of_int total /. wall else 0.);
    sl_hit_p50_ms = pct 0.5 (split true);
    sl_miss_p50_ms = pct 0.5 (split false);
    sl_p99_ms = pct 0.99 (Array.to_list latencies);
    sl_hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses)) }

let serve_config ?(jobs = max 2 (min 4 (Par.recommended_jobs ()))) tele =
  { (Prserve.Server.default_config ~telemetry:tele ()) with
    Prserve.Server.jobs }

let serve_server config =
  match Prserve.Server.create config with
  | Ok s -> s
  | Error m ->
    Printf.printf "BENCH FAILED: prserve create: %s\n" m;
    exit 1

(* Prserve soak (the acceptance experiment): >= 1000 requests from
   concurrent clients, ~50% duplicates, zero crashes, cache hit rate
   above 0.4, and cached replies cross-checked against fresh verified
   solves.  PRPART_SOAK_REQUESTS scales the load. *)
let serve_soak () =
  section "Prserve soak: concurrent duplicate-heavy load";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "SERVE SOAK FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let requests =
    match Sys.getenv_opt "PRPART_SOAK_REQUESTS" with
    | Some v ->
      (match int_of_string_opt v with Some n when n > 0 -> n | _ -> 1000)
    | None -> 1000
  in
  let tele = Prtelemetry.create Prtelemetry.Sink.null in
  (* The soak measures sustained crash-free serving, so size the cache
     to the unique population and keep the shed thresholds above the
     healthy queue wait; forced overload is exercised separately (the
     test suite pins the shed ladder deterministically). *)
  let config =
    { (serve_config tele) with
      Prserve.Server.cache_capacity = max 256 requests;
      shed_thresholds_ms = [| 200.; 1000.; 5000. |] }
  in
  let server = serve_server config in
  let designs = serve_designs ~count:(max 8 (requests / 2)) () in
  let stats = serve_load ~clients:4 ~requests server designs in
  (* Sampled reply validation: any design that made it into the cache
     was solved clean at level 0, so its signature must match a fresh,
     independently verified solve. *)
  let fingerprint = Prserve.Server.config_fingerprint config in
  let cache = Prserve.Server.cache server in
  let checked = ref 0 in
  List.iteri
    (fun i d ->
      if i < 3 then begin
        let key =
          Prserve.Cache.key ~config:fingerprint
            ~design_text:(Prdesign.Design_xml.to_string d)
        in
        match Prserve.Cache.find cache ~key with
        | None -> ()
        | Some e -> (
          match
            Prcore.Engine.solve ~verify:true
              ~target:config.Prserve.Server.target d
          with
          | Error m -> fail "verified re-solve of %s: %s" e.Prserve.Cache.design m
          | Ok o ->
            incr checked;
            let fresh =
              Bitgen.Crc32.hex_digest
                (Prcore.Memo.scheme_signature o.Prcore.Engine.scheme)
            in
            if fresh <> e.Prserve.Cache.signature then
              fail "cached %s signature %s != fresh verified %s"
                e.Prserve.Cache.design e.Prserve.Cache.signature fresh)
      end)
    designs;
  Prserve.Server.drain server;
  Printf.printf
    "soak: %d requests, %d ok (%d cached), %d rejected, %d errors\n"
    stats.sl_requests stats.sl_ok stats.sl_cached stats.sl_rejected
    stats.sl_errors;
  Printf.printf
    "soak: %.1f req/s, p50 %.2f ms (hits) / %.2f ms (misses), p99 %.2f ms, \
     hit rate %.2f, %d replies cross-checked against verified solves\n"
    stats.sl_qps stats.sl_hit_p50_ms stats.sl_miss_p50_ms stats.sl_p99_ms
    stats.sl_hit_rate !checked;
  if stats.sl_errors > 0 then fail "%d ERR replies (crashes)" stats.sl_errors;
  if stats.sl_ok + stats.sl_rejected <> stats.sl_requests then
    fail "replies do not account for every request";
  if stats.sl_hit_rate <= 0.4 then
    fail "cache hit rate %.2f <= 0.4" stats.sl_hit_rate;
  Printf.printf "prserve soak OK\n"

(* Prfleet chaos harness: a supervised fleet of real `prpart serve`
   processes sharing one on-disk cache, driven through the
   fault-tolerant client while seeded chaos kills replicas mid-solve
   and mid-cache-write, tears cache files, resets connections and
   delays replies.  The gate is absolute: every request must come back
   and every reply must carry the independently solved signature.
   Shared by the [chaos] acceptance experiment, the bench-json "chaos"
   section and the --quick smoke. *)

let fleet_prpart =
  lazy
    (let candidates =
       [ Filename.concat
           (Filename.dirname Sys.executable_name)
           (Filename.concat ".." (Filename.concat "bin" "prpart.exe"));
         Filename.concat (Filename.concat ".." "bin") "prpart.exe";
         Filename.concat
           (Filename.concat (Filename.concat "_build" "default") "bin")
           "prpart.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some path -> path
     | None -> List.hd candidates)

let fleet_dir_seq = ref 0

let fleet_temp_dir () =
  incr fleet_dir_seq;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prfleet-bench-%d-%d" (Unix.getpid ()) !fleet_dir_seq)
  in
  Unix.mkdir path 0o700;
  path

let rec fleet_rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun entry -> fleet_rm_rf (Filename.concat path entry))
      (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Incarnation 0 carries the kill schedule; respawns keep only benign
   latency chaos, so kill loops are bounded by construction and the
   restart budget is spent on scheduled faults, not a poisoned flag.
   Replica 0 dies mid-solve, replica 1 dies mid-cache-write (leaving a
   stale lockfile and a torn temp file for its peers to take over),
   replica 2 tears a cache entry in place. *)
let fleet_chaos_spec i ~incarnation =
  if incarnation > 0 then
    Printf.sprintf "seed=%d,slow-reply=0.05,slow-ms=10,max-faults=20"
      (900 + i)
  else
    match i mod 3 with
    | 0 ->
      "seed=101,kill-solve@1,conn-reset=0.05,slow-reply=0.05,slow-ms=20,\
       max-faults=40"
    | 1 ->
      "seed=202,kill-cache-write@0,conn-reset=0.05,slow-reply=0.05,\
       slow-ms=20,max-faults=40"
    | _ ->
      "seed=303,torn-cache-write@1,conn-reset=0.08,slow-reply=0.08,\
       slow-ms=20,max-faults=40"

(* High shed thresholds: elevated shed levels solve under a tighter
   budget, whose (correct but degraded) answer would not match the
   full-effort oracle signature.  The chaos gate is about lost and
   wrong replies, not overload policy — the shed ladder has its own
   deterministic tests. *)
let fleet_shed_thresholds = "5000,20000,60000"

type chaos_stats = {
  cs_requests : int;
  cs_ok : int;
  cs_cached : int;
  cs_lost : int;
  cs_wrong : int;
  cs_retries : int;
  cs_failovers : int;
  cs_restarts : int;
  cs_gave_up : bool;
  cs_all_healthy : bool;
  cs_shared_hit : bool;
  cs_wall_s : float;
  cs_qps : float;
}

let chaos_fleet_run ?(replicas = 3) ?(clients = 4) ~requests () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "CHAOS FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let prpart = Lazy.force fleet_prpart in
  if not (Sys.file_exists prpart) then
    fail "prpart binary not found (looked for %s)" prpart;
  let dir = fleet_temp_dir () in
  let cache_dir = Filename.concat dir "cache" in
  let sock i = Filename.concat dir (Printf.sprintf "r%d.sock" i) in
  (* The request mix must solve on the replicas' fixed device; the
     fresh local solve doubles as the per-design reply oracle. *)
  let target = Prcore.Engine.Fixed (Fpga.Device.find_exn "FX70T") in
  let designs =
    List.filter_map
      (fun d ->
        match Prcore.Engine.solve ~target d with
        | Error _ -> None
        | Ok o ->
          Some
            ( design_one_line d,
              Bitgen.Crc32.hex_digest
                (Prcore.Memo.scheme_signature o.Prcore.Engine.scheme) ))
      (serve_designs ~count:12 ())
  in
  if List.length designs < 2 then fail "not enough FX70T-solvable designs";
  let designs = Array.of_list designs in
  let n = Array.length designs in
  let replica_argv i ~incarnation =
    [| prpart; "serve"; "--socket"; sock i; "--device"; "FX70T";
       "--no-deadline"; "--jobs"; "2"; "--shed-thresholds";
       fleet_shed_thresholds; "--shared-cache"; cache_dir; "--chaos";
       fleet_chaos_spec i ~incarnation |]
  in
  let specs =
    List.init replicas (fun i ->
        { Prserve.Supervisor.name = Printf.sprintf "r%d" i;
          address = Prserve.Endpoint.Unix_path (sock i);
          argv = replica_argv i })
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let config =
    { (Prserve.Supervisor.default_config
         ~telemetry:(Prtelemetry.create Prtelemetry.Sink.null)
         ())
      with
      Prserve.Supervisor.restart_limit = 8;
      backoff_ms = 50.;
      max_backoff_ms = 500.;
      stdio = Some null }
  in
  let sup =
    match Prserve.Supervisor.start ~config specs with
    | Ok s -> s
    | Error m -> fail "fleet start: %s" m
  in
  (match Prserve.Supervisor.await_healthy ~timeout_s:30. sup with
   | Ok () -> ()
   | Error m -> fail "fleet never became healthy: %s" m);
  let endpoints =
    List.init replicas (fun i -> Prserve.Endpoint.Unix_path (sock i))
  in
  let policy =
    { Prserve.Client.default_policy with
      Prserve.Client.deadline_ms = Some 60_000.;
      retry =
        { Prfault.Recovery.max_attempts = 10;
          base_backoff_s = 0.02;
          backoff_multiplier = 2.;
          max_backoff_s = 0.4;
          jitter = 0.25;
          transition_budget_s = None };
      breaker_cooldown_ms = 200. }
  in
  let per = max 1 (requests / clients) in
  let total = clients * per in
  let oks = Atomic.make 0
  and cached = Atomic.make 0
  and lost = Atomic.make 0
  and wrong = Atomic.make 0
  and retries = Atomic.make 0
  and failovers = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker c =
    (* Rotate the endpoint list per client so the sticky first choice
       spreads load across the fleet instead of dog-piling replica 0,
       and every kill schedule sees traffic. *)
    let rotated =
      List.init replicas (fun k -> List.nth endpoints ((c + k) mod replicas))
    in
    let client =
      match
        Prserve.Client.create ~policy ~seed:(1000 + c)
          ~telemetry:(Prtelemetry.create Prtelemetry.Sink.null)
          rotated
      with
      | Ok cl -> cl
      | Error m -> fail "client %d: %s" c m
    in
    for i = 0 to per - 1 do
      let xml, oracle = designs.(((c * (per / 2)) + (i / 2)) mod n) in
      match
        Prserve.Client.solve_inline client
          ~client:(Printf.sprintf "chaos%d" c)
          ~design_xml:xml ()
      with
      | Ok s ->
        Atomic.incr oks;
        if s.Prserve.Protocol.cached then Atomic.incr cached;
        if s.Prserve.Protocol.signature <> oracle then Atomic.incr wrong
      | Error _ -> Atomic.incr lost
    done;
    ignore (Atomic.fetch_and_add retries (Prserve.Client.retries client));
    ignore (Atomic.fetch_and_add failovers (Prserve.Client.failovers client));
    Prserve.Client.close client
  in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (* Both kill schedules are deterministic, so every run loses at least
     one replica; give the monitor a bounded window to reap the exit
     and respawn every casualty before reading the fleet state. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let all_healthy () =
    List.for_all
      (fun s -> s.Prserve.Supervisor.s_phase = Prserve.Supervisor.Healthy)
      (Prserve.Supervisor.statuses sup)
  in
  let rec settle () =
    if Prserve.Supervisor.restarts sup >= 1 && all_healthy () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      settle ()
    end
  in
  let settled = settle () in
  let restarts = Prserve.Supervisor.restarts sup in
  let gave_up = Prserve.Supervisor.gave_up sup in
  Prserve.Supervisor.stop sup;
  (* Cold-replica coordination check: a fresh replica on the same cache
     directory (no chaos) must serve a design its peers solved without
     re-solving it, bit-identical to the oracle. *)
  let cold_sock = Filename.concat dir "cold.sock" in
  let cold_argv =
    [| prpart; "serve"; "--socket"; cold_sock; "--device"; "FX70T";
       "--no-deadline"; "--jobs"; "2"; "--shed-thresholds";
       fleet_shed_thresholds; "--shared-cache"; cache_dir |]
  in
  let cold_pid =
    Unix.create_process cold_argv.(0) cold_argv Unix.stdin null null
  in
  let startup_retry =
    { Prfault.Recovery.max_attempts = 100;
      base_backoff_s = 0.05;
      backoff_multiplier = 1.;
      max_backoff_s = 0.05;
      jitter = 0.;
      transition_budget_s = None }
  in
  let shared_hit =
    match
      Prserve.Endpoint.connect ~retry:startup_retry
        (Prserve.Endpoint.Unix_path cold_sock)
    with
    | Error _ -> false
    | Ok conn ->
      let xml, oracle = designs.(0) in
      let hit =
        match
          Prserve.Endpoint.request conn
            (Printf.sprintf "SOLVE client=cold inline:%s" xml)
        with
        | Error _ -> false
        | Ok reply -> (
          match Prserve.Protocol.parse_reply reply with
          | Ok (Prserve.Protocol.R_solved s) ->
            s.Prserve.Protocol.cached
            && s.Prserve.Protocol.signature = oracle
          | _ -> false)
      in
      ignore (Prserve.Endpoint.request conn "SHUTDOWN");
      Prserve.Endpoint.close_client conn;
      hit
  in
  (try Unix.kill cold_pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] cold_pid) with Unix.Unix_error _ -> ());
  Unix.close null;
  fleet_rm_rf dir;
  { cs_requests = total;
    cs_ok = Atomic.get oks;
    cs_cached = Atomic.get cached;
    cs_lost = Atomic.get lost;
    cs_wrong = Atomic.get wrong;
    cs_retries = Atomic.get retries;
    cs_failovers = Atomic.get failovers;
    cs_restarts = restarts;
    cs_gave_up = gave_up;
    cs_all_healthy = settled;
    cs_shared_hit = shared_hit;
    cs_wall_s = wall;
    cs_qps = (if wall > 0. then float_of_int total /. wall else 0.) }

let chaos_report st =
  Printf.printf
    "chaos: %d requests, %d ok (%d cached), %d lost, %d wrong, %d \
     retries, %d failovers\n"
    st.cs_requests st.cs_ok st.cs_cached st.cs_lost st.cs_wrong
    st.cs_retries st.cs_failovers;
  Printf.printf
    "chaos: %d replica restarts (gave_up=%b, all healthy=%b), shared \
     cold hit=%b, %.1f req/s over %.1fs\n"
    st.cs_restarts st.cs_gave_up st.cs_all_healthy st.cs_shared_hit
    st.cs_qps st.cs_wall_s

let chaos_check ~what st =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "%s FAILED: %s\n" what m;
        exit 1)
      fmt
  in
  if st.cs_lost > 0 then fail "%d lost replies" st.cs_lost;
  if st.cs_wrong > 0 then
    fail "%d replies with a wrong signature" st.cs_wrong;
  if st.cs_ok <> st.cs_requests then
    fail "replies do not account for every request (%d/%d)" st.cs_ok
      st.cs_requests;
  if st.cs_restarts < 1 then
    fail "scheduled kills produced no supervisor restart";
  if st.cs_gave_up then fail "a replica exhausted its restart budget";
  if not st.cs_all_healthy then
    fail "fleet not fully healthy after the soak";
  if not st.cs_shared_hit then
    fail "cold replica did not serve a peer-written cache entry"

(* Prfleet chaos (the acceptance experiment): >= 500 requests against a
   supervised 3-replica fleet under seeded kills (mid-solve and
   mid-cache-write), torn cache writes, connection resets and slow
   replies — zero lost replies, zero wrong replies, every casualty
   restarted within budget, and a cold replica serving a peer-written
   cache hit.  PRPART_CHAOS_REQUESTS scales the load. *)
let chaos_experiment () =
  section "Prfleet chaos: supervised replicas under seeded faults";
  let requests =
    match Sys.getenv_opt "PRPART_CHAOS_REQUESTS" with
    | Some v ->
      (match int_of_string_opt v with Some n when n > 0 -> n | _ -> 500)
    | None -> 500
  in
  let st = chaos_fleet_run ~replicas:3 ~clients:4 ~requests () in
  chaos_report st;
  chaos_check ~what:"CHAOS" st;
  if st.cs_requests < 500 then
    Printf.printf
      "note: %d requests is below the 500-request acceptance soak \
       (PRPART_CHAOS_REQUESTS)\n"
      st.cs_requests;
  Printf.printf "prfleet chaos OK\n"

(* Prfleet smoke (runs under --quick, so `dune runtest` gates on it):
   a scaled-down chaos soak — two replicas, both with kill schedules,
   same zero-loss gates. *)
let chaos_smoke () =
  section "Prfleet smoke: 2-replica chaos soak";
  let st = chaos_fleet_run ~replicas:2 ~clients:2 ~requests:24 () in
  chaos_report st;
  chaos_check ~what:"PRFLEET SMOKE" st;
  Printf.printf "prfleet smoke OK\n"

(* Placement-aware partitioning vs the post-hoc feedback loop, on the
   fragmentation stress design: the unaware flow picks the
   cheapest-by-frames scheme, fails to floorplan it and escalates
   devices; the aware flow pays the placeability penalty up front and
   lands oracle-clean on the smaller part. Everything here is
   deterministic, so the comparison doubles as an invariant check. *)
type floorplan_result = {
  fl_unaware_device : string;
  fl_aware_device : string;
  fl_unaware_escalations : int;
  fl_aware_escalations : int;
  fl_penalty_evals : int;
  fl_aware_penalty : int;
  fl_ms : float;
  fl_oracle_clean : bool;
  fl_identical : bool;
}

let floorplan_run () =
  let design = Prdesign.Design_library.fragmented_filter in
  let device = Fpga.Device.find_exn "LX30" in
  let target = Prcore.Engine.Fixed device in
  let run ~aware ~jobs () =
    let tele = Prtelemetry.create Prtelemetry.Sink.null in
    let options =
      { Flow.Tool_flow.default_options with
        placement_aware = aware;
        verify = true;
        telemetry = tele;
        jobs }
    in
    match Flow.Tool_flow.run ~options ~target design with
    | Ok r -> (r, tele)
    | Error m ->
      Printf.printf "BENCH FAILED: floorplan flow (%s): %s\n"
        (if aware then "aware" else "unaware")
        m;
      exit 1
  in
  let unaware, _ = run ~aware:false ~jobs:1 () in
  let reps = 5 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps - 1 do
    ignore (run ~aware:true ~jobs:1 ())
  done;
  let aware, tele = run ~aware:true ~jobs:1 () in
  let fl_ms = (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps in
  let key (r : Flow.Tool_flow.report) =
    (Prcore.Scheme.describe r.outcome.Prcore.Engine.scheme,
     r.outcome.Prcore.Engine.placement_penalty,
     r.device.Fpga.Device.name,
     r.floorplan_escalations)
  in
  let fl_identical =
    List.for_all
      (fun jobs -> key (fst (run ~aware:true ~jobs ())) = key aware)
      [ 2; 4 ]
  in
  let fl_oracle_clean =
    match aware.Flow.Tool_flow.diagnostics with
    | Some diags -> Prverify.Diagnostic.ok diags
    | None -> false
  in
  { fl_unaware_device = unaware.Flow.Tool_flow.device.Fpga.Device.name;
    fl_aware_device = aware.Flow.Tool_flow.device.Fpga.Device.name;
    fl_unaware_escalations = unaware.Flow.Tool_flow.floorplan_escalations;
    fl_aware_escalations = aware.Flow.Tool_flow.floorplan_escalations;
    fl_penalty_evals = Prtelemetry.counter_value tele "core.placement_evals";
    fl_aware_penalty =
      Option.value ~default:(-1)
        aware.Flow.Tool_flow.outcome.Prcore.Engine.placement_penalty;
    fl_ms;
    fl_oracle_clean;
    fl_identical }

let floorplan_check r =
  let won =
    r.fl_aware_escalations < r.fl_unaware_escalations
    || Fpga.Device.compare_capacity
         (Fpga.Device.find_exn r.fl_aware_device)
         (Fpga.Device.find_exn r.fl_unaware_device)
       < 0
  in
  if not (won && r.fl_oracle_clean && r.fl_identical) then begin
    Printf.printf
      "BENCH FAILED: placement-aware flow (won=%b, oracle=%b, identical=%b)\n"
      won r.fl_oracle_clean r.fl_identical;
    exit 1
  end

let floorplan_experiment () =
  section "Placement-aware search vs post-hoc floorplan feedback";
  let r = floorplan_run () in
  Printf.printf "design: fragmented-filter, requested device XC5VLX30\n";
  Printf.printf "unaware: %s after %d escalation(s)\n" r.fl_unaware_device
    r.fl_unaware_escalations;
  Printf.printf
    "aware:   %s after %d escalation(s), penalty %d, %d penalty evals\n"
    r.fl_aware_device r.fl_aware_escalations r.fl_aware_penalty
    r.fl_penalty_evals;
  Printf.printf "aware solve: %.1f ms/run, oracle_clean=%b, jobs 1/2/4 \
                 identical=%b\n"
    r.fl_ms r.fl_oracle_clean r.fl_identical;
  floorplan_check r

(* Floorplan smoke (runs under --quick, so `dune runtest` gates on it):
   the aware flow must beat the post-hoc loop on the stress design,
   stay oracle-clean and stay bit-identical across worker counts. *)
let floorplan_smoke () =
  section "Floorplan smoke: placement-aware beats post-hoc feedback";
  let r = floorplan_run () in
  floorplan_check r;
  Printf.printf
    "aware %s (%d escalations) vs unaware %s (%d escalations) [OK]\n"
    r.fl_aware_device r.fl_aware_escalations r.fl_unaware_device
    r.fl_unaware_escalations

(* Bitstream kernels on the largest artefact of a case-study flow run:
   the full-device stream of the smallest device fitting the case-study
   budget. [parse] re-checks the CRC, as the V-BIT oracle does. *)
type bitgen_stats = { bg_bytes : int; bg_generate_ms : float; bg_parse_ms : float }

let bitgen_run () =
  let device =
    Option.get
      (Fpga.Device.smallest_fitting Prdesign.Design_library.case_study_budget)
  in
  let header =
    { Bitgen.Bitstream.design =
        Prdesign.Design_library.video_receiver.Prdesign.Design.name;
      variant = "full";
      region = 0xFFFF;
      far = 0;
      frames = Fpga.Device.total_frames device }
  in
  let generate_ms, stream =
    best_ms 10 (fun () -> Bitgen.Bitstream.generate header)
  in
  let serialised = Bitgen.Bitstream.serialise stream in
  let parse_ms, parsed =
    best_ms 10 (fun () -> Bitgen.Bitstream.parse serialised)
  in
  if Result.is_error parsed then begin
    Printf.printf "BENCH FAILED: full-device bitstream does not parse back\n";
    exit 1
  end;
  { bg_bytes = Bytes.length serialised;
    bg_generate_ms = generate_ms;
    bg_parse_ms = parse_ms }

(* Machine-readable performance artefact (BENCH_core.json): allocator
   move throughput, engine solve latency (Bechamel OLS), sweep
   throughput sequential vs parallel, and the evaluation-cache hit
   rate. *)
let bench_json () =
  section "Prspeed benchmarks -> BENCH_core.json";
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  (* Engine solve latency, OLS-estimated. *)
  let solve_ns =
    bechamel_ns
      (Bechamel.Test.make ~name:"engine-solve"
         (Bechamel.Staged.stage (fun () ->
              ignore (Prcore.Engine.solve ~target receiver))))
  in
  (* Allocator move throughput: repeat the case-study solve on one
     counting handle and read the counters back. *)
  let tele = Prtelemetry.create Prtelemetry.Sink.null in
  let reps = 20 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Prcore.Engine.solve ~telemetry:tele ~target receiver)
  done;
  let solve_wall = Unix.gettimeofday () -. t0 in
  let counter = Prtelemetry.counter_value tele in
  let moves = counter "alloc.moves_evaluated" in
  let delta_evals = counter "perf.delta_evals" in
  let moves_per_sec =
    if solve_wall > 0. then float_of_int moves /. solve_wall else 0.
  in
  (* Sweep throughput across a host_domains scaling matrix. The levels
     1/2/4/8 are clamped to the host: [Sweep.run] itself clamps [jobs]
     to {!Par.recommended_jobs}, so an oversubscribed level runs the
     same configuration as the largest level the host supports. Each
     level is timed twice (min of the two) after a shared warm-up so
     allocator warm-up does not bias the sequential baseline. *)
  let sweep_n = 40 in
  let recommended = Par.recommended_jobs () in
  let levels =
    List.sort_uniq compare
      (List.map (fun j -> min j (max 2 recommended)) [ 1; 2; 4; 8 ])
  in
  let time_sweep jobs =
    let t0 = Unix.gettimeofday () in
    let rows = Experiments.Sweep.run ~count:sweep_n ~jobs () in
    (rows, Unix.gettimeofday () -. t0)
  in
  ignore (time_sweep 1);
  let timed =
    List.map
      (fun jobs ->
        let rows, t1 = time_sweep jobs in
        let _, t2 = time_sweep jobs in
        (jobs, rows, Float.min t1 t2))
      levels
  in
  let rows_seq, seq_s =
    match timed with
    | (1, rows, s) :: _ -> (rows, s)
    | _ -> assert false
  in
  let identical =
    List.for_all (fun (_, rows, _) -> rows = rows_seq) timed
  in
  if not identical then begin
    Printf.printf "BENCH FAILED: parallel sweep diverged from sequential\n";
    exit 1
  end;
  (* Headline speedup at jobs=2 (the regression-tracked metric). When
     the host clamps both levels to one domain the two timings measure
     the identical sequential configuration, so the speedup is 1 by
     construction and reporting the timing jitter would be noise. *)
  let seconds_at jobs =
    match List.find_opt (fun (j, _, _) -> j = jobs) timed with
    | Some (_, _, s) -> s
    | None -> seq_s
  in
  let speedup_at jobs =
    if min jobs recommended <= 1 then 1.
    else begin
      let s = seconds_at jobs in
      if s > 0. then seq_s /. s else 0.
    end
  in
  let jobs = 2 in
  let par_s = seconds_at jobs in
  (* Guard: anytime degradation under an eval cap, plus the crash
     recovery round trip. *)
  let guard_cap = 700 in
  let capped () =
    match
      Prcore.Engine.solve
        ~budget:(Prguard.Budget.make ~max_evals:guard_cap ())
        ~target receiver
    with
    | Ok o -> o
    | Error m ->
      Printf.printf "BENCH FAILED: eval-capped solve: %s\n" m;
      exit 1
  in
  let g1 = capped () in
  let g2 = capped () in
  let guard_deterministic =
    g1.Prcore.Engine.evaluation = g2.Prcore.Engine.evaluation
    && g1.Prcore.Engine.cost_evaluations = g2.Prcore.Engine.cost_evaluations
  in
  let guard_feasible =
    Prcore.Cost.fits g1.Prcore.Engine.evaluation
      ~budget:g1.Prcore.Engine.budget
  in
  let guard_verdict = g1.Prcore.Engine.degraded in
  let recovery_ok = guard_recovery_roundtrip () in
  (* Prscale: the huge-design multilevel solve (latency, V-cycle
     statistics and quality gap are regression-tracked). *)
  let ml = multilevel_huge_run () in
  if not (ml.mr_feasible && ml.mr_oracle_clean) then begin
    Printf.printf "BENCH FAILED: multilevel huge solve invariants violated\n";
    exit 1
  end;
  let ml_gap = multilevel_gap_vs_anneal () in
  let ml_curve = multilevel_size_curve () in
  let rt_curve = runtime_size_curve () in
  let greedy_curve = greedy_size_curve () in
  (* Placement-aware flow vs post-hoc feedback: escalations avoided and
     the aware solve latency are regression-tracked. *)
  let fl = floorplan_run () in
  floorplan_check fl;
  let bg = bitgen_run () in
  (* Prserve daemon throughput under a duplicate-heavy concurrent
     load; hit rate and p99 latency are regression-tracked. *)
  let serve_stats =
    let tele_s = Prtelemetry.create Prtelemetry.Sink.null in
    (* Same stabilised configuration as the soak: thresholds above the
       healthy queue wait, so the tracked hit rate measures the cache,
       not shed-level jitter. *)
    let server =
      serve_server
        { (serve_config tele_s) with
          Prserve.Server.shed_thresholds_ms = [| 200.; 1000.; 5000. |] }
    in
    let stats =
      serve_load ~clients:4 ~requests:200 server (serve_designs ~count:100 ())
    in
    Prserve.Server.drain server;
    stats
  in
  (* Prfleet chaos soak, scaled down from the acceptance experiment:
     real replica processes, seeded kills, shared cache.  The tracked
     metrics are the zero-tolerance correctness counters; throughput
     under chaos is reported but not regression-gated (restart and
     backoff timing dominate it). *)
  let chaos_stats = chaos_fleet_run ~replicas:3 ~clients:3 ~requests:120 () in
  let json =
    Prtelemetry.Json.(
      Obj
        [ ("schema", String "prpart-bench-core/1");
          ("host_domains", Int (Par.recommended_jobs ()));
          ( "engine_solve",
            Obj
              [ ("design", String "video-receiver (case study)");
                ("ns_per_run", Float solve_ns);
                ("ms_per_run", Float (solve_ns /. 1e6)) ] );
          ( "allocator",
            Obj
              [ ("solves", Int reps);
                ("wall_seconds", Float solve_wall);
                ("moves_evaluated", Int moves);
                ("moves_per_sec", Float moves_per_sec);
                ("delta_evals", Int delta_evals) ] );
          ( "sweep",
            Obj
              [ ("designs", Int sweep_n);
                ("rows", Int (List.length rows_seq));
                ("granularity", String "contiguous-blocks");
                ("sequential_seconds", Float seq_s);
                ("parallel_jobs", Int jobs);
                ("parallel_seconds", Float par_s);
                ("speedup", Float (speedup_at jobs));
                ("bit_identical", Bool identical);
                ( "scaling",
                  List
                    (List.map
                       (fun (j, _, s) ->
                         Obj
                           [ ("jobs", Int j);
                             ("effective_jobs", Int (min j recommended));
                             ("seconds", Float s);
                             ("speedup", Float (speedup_at j)) ])
                       timed) ) ] );
          ( "guard",
            Obj
              [ ("eval_cap", Int guard_cap);
                ("deterministic", Bool guard_deterministic);
                ("feasible", Bool guard_feasible);
                ("degraded", Bool guard_verdict.Prguard.Budget.degraded);
                ( "reason",
                  String
                    (Prguard.Budget.reason_name
                       guard_verdict.Prguard.Budget.reason) );
                ("evals_used", Int guard_verdict.Prguard.Budget.evals_used);
                ( "total_frames",
                  Int g1.Prcore.Engine.evaluation.Prcore.Cost.total_frames );
                ("recovery_roundtrip", Bool recovery_ok) ] );
          ( "multilevel",
            Obj
              [ ( "design",
                  String
                    (Printf.sprintf "synth huge class (%d modules, seed %d)"
                       huge_modules huge_seed) );
                ("modules", Int huge_modules);
                ("ms_per_run", Float ml.mr_ms);
                ("total_frames", Int ml.mr_total);
                ("feasible", Bool ml.mr_feasible);
                ("oracle_clean", Bool ml.mr_oracle_clean);
                ("levels", Int ml.mr_stats.Prcore.Multilevel.levels);
                ("merges", Int ml.mr_stats.Prcore.Multilevel.merges);
                ("refine_passes", Int ml.mr_stats.Prcore.Multilevel.passes);
                ("refine_moves", Int ml.mr_stats.Prcore.Multilevel.moves);
                ( "gap_vs_anneal_pct",
                  match ml_gap with Some g -> Float g | None -> Null );
                ( "sizes",
                  Obj
                    (List.map
                       (fun r ->
                         ( Printf.sprintf "m%d" r.ms_modules,
                           Obj
                             ([ ("modules", Int r.ms_modules);
                                ("analyse_ms_per_run", Float r.ms_analyse_ms);
                                ("solve_ms_per_run", Float r.ms_solve_ms);
                                ("total_frames", Int r.ms_total) ]
                             @ List.mapi
                                 (fun k stage ->
                                   (stage ^ "_ms", Float r.ms_stage_ms.(k)))
                                 vcycle_stages
                             @
                             let s = r.ms_stats in
                             [ ("levels", Int s.Prcore.Multilevel.levels);
                               ("merges", Int s.Prcore.Multilevel.merges);
                               ("trials", Int s.Prcore.Multilevel.trials) ]) ))
                       ml_curve) ) ] );
          ( "greedy",
            Obj
              [ ( "design",
                  String
                    (Printf.sprintf
                       "synth huge class (seed %d), Allocator.allocate on \
                        Multilevel.nodes under the 1.3x modular budget"
                       huge_seed) );
                ( "sizes",
                  Obj
                    (List.map
                       (fun r ->
                         ( Printf.sprintf "m%d" r.gs_modules,
                           Obj
                             [ ("modules", Int r.gs_modules);
                               ("nodes", Int r.gs_nodes);
                               ("ms_per_run", Float r.gs_ms);
                               ("moves_evaluated", Int r.gs_moves);
                               ( "total_frames",
                                 match r.gs_total with
                                 | Some t -> Int t
                                 | None -> Null ) ] ))
                       greedy_curve) ) ] );
          ( "runtime",
            Obj
              [ ( "design",
                  String
                    (Printf.sprintf
                       "synth huge class (seed %d), multilevel under the \
                        1.3x modular budget, 1000-step Tool_flow walk"
                       huge_seed) );
                ( "sizes",
                  Obj
                    (List.map
                       (fun r ->
                         ( Printf.sprintf "m%d" r.rt_modules,
                           Obj
                             [ ("modules", Int r.rt_modules);
                               ("regions", Int r.rt_regions);
                               ("simulate_ms_per_run", Float r.rt_simulate_ms);
                               ("place_ms_per_run", Float r.rt_place_ms) ] ))
                       rt_curve) ) ] );
          ( "floorplan",
            Obj
              [ ("design", String "fragmented-filter on XC5VLX30");
                ("unaware_device", String fl.fl_unaware_device);
                ("aware_device", String fl.fl_aware_device);
                ("unaware_escalations", Int fl.fl_unaware_escalations);
                ("aware_escalations", Int fl.fl_aware_escalations);
                ( "escalations_avoided",
                  Int (fl.fl_unaware_escalations - fl.fl_aware_escalations) );
                ("placement_penalty", Int fl.fl_aware_penalty);
                ("placement_penalty_evals", Int fl.fl_penalty_evals);
                ("ms_per_run", Float fl.fl_ms);
                ("oracle_clean", Bool fl.fl_oracle_clean);
                ("bit_identical", Bool fl.fl_identical) ] );
          ( "bitgen",
            Obj
              [ ("stream", String "video-receiver full-device bitstream");
                ("bytes", Int bg.bg_bytes);
                ("generate_ms_per_run", Float bg.bg_generate_ms);
                ("parse_ms_per_run", Float bg.bg_parse_ms) ] );
          ( "serve",
            Obj
              [ ("requests", Int serve_stats.sl_requests);
                ("wall_seconds", Float serve_stats.sl_wall_s);
                ("qps", Float serve_stats.sl_qps);
                ("hit_p50_ms", Float serve_stats.sl_hit_p50_ms);
                ("miss_p50_ms", Float serve_stats.sl_miss_p50_ms);
                ("p99_ms", Float serve_stats.sl_p99_ms);
                ("hit_rate", Float serve_stats.sl_hit_rate);
                ("cached_replies", Int serve_stats.sl_cached);
                ("rejected", Int serve_stats.sl_rejected);
                ("errors", Int serve_stats.sl_errors) ] );
          ( "chaos",
            Obj
              [ ("replicas", Int 3);
                ("requests", Int chaos_stats.cs_requests);
                ("ok", Int chaos_stats.cs_ok);
                ("cached_replies", Int chaos_stats.cs_cached);
                ("lost_replies", Int chaos_stats.cs_lost);
                ("wrong_replies", Int chaos_stats.cs_wrong);
                ("retries", Int chaos_stats.cs_retries);
                ("failovers", Int chaos_stats.cs_failovers);
                ("replica_restarts", Int chaos_stats.cs_restarts);
                ("gave_up", Bool chaos_stats.cs_gave_up);
                ("shared_cache_hit", Bool chaos_stats.cs_shared_hit);
                ("wall_s", Float chaos_stats.cs_wall_s);
                ("req_per_s", Float chaos_stats.cs_qps) ] ) ])
  in
  let path = "BENCH_core.json" in
  let oc = open_out path in
  output_string oc (Prtelemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "engine solve: %.3f ms/run (OLS)\n" (solve_ns /. 1e6);
  Printf.printf "allocator: %.0f moves/sec (%d moves over %d solves)\n"
    moves_per_sec moves reps;
  Printf.printf
    "sweep: %d designs, %.2fs sequential vs %.2fs with %d jobs (x%.2f, \
     bit-identical across %s)\n"
    sweep_n seq_s par_s jobs (speedup_at jobs)
    (String.concat "/"
       (List.map (fun (j, _, _) -> string_of_int j) timed));
  Printf.printf
    "guard: cap %d -> %d frames (%s, deterministic=%b, feasible=%b, \
     recovery=%b)\n"
    guard_cap g1.Prcore.Engine.evaluation.Prcore.Cost.total_frames
    (Prguard.Budget.reason_name guard_verdict.Prguard.Budget.reason)
    guard_deterministic guard_feasible recovery_ok;
  if not (guard_deterministic && guard_feasible && recovery_ok) then begin
    Printf.printf "BENCH FAILED: guard invariants violated\n";
    exit 1
  end;
  Printf.printf
    "serve: %.1f req/s over %d requests, p99 %.2f ms, hit rate %.2f \
     (%d rejected, %d errors)\n"
    serve_stats.sl_qps serve_stats.sl_requests serve_stats.sl_p99_ms
    serve_stats.sl_hit_rate serve_stats.sl_rejected serve_stats.sl_errors;
  if serve_stats.sl_errors > 0 then begin
    Printf.printf "BENCH FAILED: serve load produced ERR replies\n";
    exit 1
  end;
  chaos_report chaos_stats;
  chaos_check ~what:"BENCH" chaos_stats;
  Printf.printf
    "multilevel: %d modules in %.0f ms (%d frames, %d passes, %d moves%s)\n"
    huge_modules ml.mr_ms ml.mr_total ml.mr_stats.Prcore.Multilevel.passes
    ml.mr_stats.Prcore.Multilevel.moves
    (match ml_gap with
     | Some g -> Printf.sprintf ", gap vs anneal %+.1f%%" g
     | None -> "");
  Printf.printf "multilevel size curve (analyse/solve ms): %s\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%d: %.2f/%.0f" r.ms_modules r.ms_analyse_ms
              r.ms_solve_ms)
          ml_curve));
  Printf.printf "greedy size curve (nodes: ms, moves): %s\n"
    (String.concat ", "
       (List.map
          (fun r -> Printf.sprintf "%d: %.1f, %d" r.gs_nodes r.gs_ms r.gs_moves)
          greedy_curve));
  Printf.printf "runtime size curve (simulate/place ms): %s\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%d: %.1f/%.0f" r.rt_modules r.rt_simulate_ms
              r.rt_place_ms)
          rt_curve));
  Printf.printf
    "floorplan: aware %s (%d escalations) vs unaware %s (%d), %.1f ms/run, \
     %d penalty evals\n"
    fl.fl_aware_device fl.fl_aware_escalations fl.fl_unaware_device
    fl.fl_unaware_escalations fl.fl_ms fl.fl_penalty_evals;
  Printf.printf "bitgen: %d-byte full-device stream, generate %.1f ms, parse \
     %.1f ms\n"
    bg.bg_bytes bg.bg_generate_ms bg.bg_parse_ms;
  Printf.printf "wrote %s\n" path;
  (* Regression history: every bench-json run appends its metrics, and
     bench-compare diffs the two most recent entries. *)
  let history_path = "BENCH_history.jsonl" in
  let entry =
    Prtelemetry.Json.(
      Obj
        [ ("schema", String "prpart-bench-history/1");
          ("unix_time", Float (Unix.gettimeofday ()));
          ("sweep_designs", Int sweep_n);
          ("metrics", json) ])
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
  output_string oc (Prtelemetry.Json.to_string entry);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended %s\n" history_path

(* bench-compare: diff the two most recent BENCH_history.jsonl entries
   (or the latest entry against PRPART_BENCH_BASELINE, a file holding
   one history entry or bare metrics document) under the Regress
   tolerance rules. Exits 1 on any regression or missing metric; exits
   0 with a notice when there is not yet enough history. *)
let bench_compare () =
  section "bench-compare: latest BENCH metrics vs baseline";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "BENCH COMPARE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line ->
        go (if String.trim line = "" then acc else line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  (* A history line wraps the metrics; a bare BENCH_core.json is also
     accepted so a pinned baseline can simply be a saved artefact. *)
  let metrics_of ~what line =
    match Prtelemetry.Json.of_string line with
    | Error m -> fail "%s: %s" what m
    | Ok json -> (
      match Prtelemetry.Json.member "metrics" json with
      | Some metrics -> metrics
      | None -> json)
  in
  let history_path = "BENCH_history.jsonl" in
  let history =
    if Sys.file_exists history_path then read_lines history_path else []
  in
  let baseline_override = Sys.getenv_opt "PRPART_BENCH_BASELINE" in
  match (baseline_override, List.rev history) with
  | None, ([] | [ _ ]) ->
    Printf.printf
      "bench-compare: fewer than two entries in %s; run `make bench-json` \
       twice (or pin PRPART_BENCH_BASELINE) to enable the diff\n"
      history_path
  | Some _, [] ->
    Printf.printf
      "bench-compare: no entries in %s; run `make bench-json` first\n"
      history_path
  | baseline_override, latest_line :: rest ->
    let latest = metrics_of ~what:"latest history entry" latest_line in
    let baseline =
      match baseline_override with
      | Some path ->
        if not (Sys.file_exists path) then
          fail "PRPART_BENCH_BASELINE %s does not exist" path
        else begin
          match read_lines path with
          | [] -> fail "PRPART_BENCH_BASELINE %s is empty" path
          | line :: _ -> metrics_of ~what:path line
        end
      | None ->
        metrics_of ~what:"baseline history entry" (List.hd rest)
    in
    let findings = Experiments.Regress.compare ~baseline ~latest () in
    print_string (Experiments.Regress.render findings);
    if Experiments.Regress.regressed findings <> [] then exit 1

(* Prscope smoke (runs under --quick, so `dune runtest` gates on it):
   a traced case-study solve must produce a profile report carrying
   every section the `prpart profile` verb prints, a non-empty progress
   curve, and a Prometheus exposition page that passes the structural
   validator. Exits 1 on violation. *)
let scope_smoke () =
  section "Prscope smoke: profile report + exposition validity";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRSCOPE SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let contains haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  let receiver = Prdesign.Design_library.video_receiver in
  let target =
    Prcore.Engine.Budget Prdesign.Design_library.case_study_budget
  in
  let tele = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
  let outcome =
    match Prcore.Engine.solve ~telemetry:tele ~jobs:2 ~target receiver with
    | Ok o -> o
    | Error m -> fail "traced case-study solve: %s" m
  in
  Prtelemetry.flush tele;
  let report = Prtelemetry.Scope.report tele in
  List.iter
    (fun needle ->
      if not (contains report needle) then
        fail "profile report is missing its %S section" needle)
    [ "span tree"; "hot paths"; "span latency percentiles";
      "per-domain profile" ];
  let s = outcome.Prcore.Engine.search in
  if s.Prcore.Engine.progress = [] then
    fail "traced solve recorded no progress curve";
  let page = Prtelemetry.exposition tele in
  (match Prtelemetry.Scope.check_exposition page with
   | Ok () -> ()
   | Error m -> fail "exposition page invalid: %s" m);
  Printf.printf
    "prscope smoke OK (report %d bytes, %d progress points, exposition %d \
     bytes valid)\n"
    (String.length report)
    (List.length s.Prcore.Engine.progress)
    (String.length page)

(* Prserve smoke (runs under --quick, so `dune runtest` gates on it):
   an in-process daemon must answer SOLVE (fresh then cached),
   STATUS, HEALTH and SHUTDOWN, refuse work while draining, and leave
   a structurally valid Prometheus exposition carrying the serve
   counters. Exits 1 on violation. *)
let serve_smoke () =
  section "Prserve smoke: protocol round-trip + exposition validity";
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "PRSERVE SMOKE FAILED: %s\n" m;
        exit 1)
      fmt
  in
  let tele = Prtelemetry.create Prtelemetry.Sink.null in
  let server = serve_server (serve_config ~jobs:2 tele) in
  let ask line = Prserve.Server.handle_line server line in
  let r1 = ask "SOLVE running-example" in
  if not (str_starts "OK {" r1) then fail "SOLVE: %s" r1;
  if not (str_contains r1 "\"cached\":false") then fail "first solve cached";
  let r2 = ask "SOLVE running-example" in
  if not (str_contains r2 "\"cached\":true") then
    fail "duplicate not served from cache: %s" r2;
  let status = ask "STATUS" in
  if not (str_starts "STATUS {" status && str_contains status "\"cache\":")
  then fail "STATUS: %s" status;
  if ask "HEALTH" <> "HEALTH ok" then fail "HEALTH";
  if ask "SHUTDOWN" <> "BYE" then fail "SHUTDOWN";
  let refused = ask "SOLVE running-example" in
  if not (str_contains refused "draining") then
    fail "draining daemon accepted work: %s" refused;
  Prserve.Server.drain server;
  Prtelemetry.flush tele;
  let page = Prtelemetry.exposition tele in
  (match Prtelemetry.Scope.check_exposition page with
   | Ok () -> ()
   | Error m -> fail "exposition page invalid: %s" m);
  List.iter
    (fun needle ->
      if not (str_contains page needle) then
        fail "exposition is missing %s" needle)
    [ "prpart_serve_requests"; "prpart_serve_cache_hits";
      "prpart_serve_solved" ];
  Printf.printf
    "prserve smoke OK (solve + cached duplicate, status/health/bye, \
     drain refusal, exposition %d bytes valid)\n"
    (String.length page)

(* Bechamel performance suite: one Test.make per regenerated artefact. *)
let perf () =
  section "Performance (Bechamel; the paper's Python took seconds-minutes)";
  let open Bechamel in
  let receiver = Prdesign.Design_library.video_receiver in
  let budget = Prdesign.Design_library.case_study_budget in
  let synth_designs =
    lazy (List.map snd (Synth.Generator.batch ~seed:99 ~count:10 ()))
  in
  let solve design target () =
    match Prcore.Engine.solve ~target design with
    | Ok _ -> ()
    | Error _ -> ()
  in
  let tests =
    [ Test.make ~name:"table1-clustering"
        (Staged.stage (fun () ->
             ignore (Cluster.Agglomerative.run Prdesign.Design_library.running_example)));
      Test.make ~name:"table2-receiver-clustering"
        (Staged.stage (fun () -> ignore (Cluster.Agglomerative.run receiver)));
      Test.make ~name:"table3/4-case-study-solve"
        (Staged.stage (solve receiver (Prcore.Engine.Budget budget)));
      Test.make ~name:"table5-alt-solve"
        (Staged.stage
           (solve Prdesign.Design_library.video_receiver_alt
              (Prcore.Engine.Budget budget)));
      Test.make ~name:"fig7/8/9-sweep-of-10"
        (Staged.stage (fun () ->
             List.iter
               (fun d -> solve d Prcore.Engine.Auto ())
               (Lazy.force synth_designs)));
      Test.make ~name:"baseline-evaluation"
        (Staged.stage (fun () ->
             ignore (Baselines.Schemes.all receiver))) ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ])
      in
      let analysed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some [ v ] -> v
            | Some _ | None -> nan
          in
          Printf.printf "%-32s %12.1f ns/run (%8.3f ms)\n" name nanos
            (nanos /. 1e6))
        analysed)
    tests

let experiments =
  [ ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("stats", stats);
    ("ablate", ablate);
    ("proxy", proxy);
    ("sensitivity", sensitivity);
    ("cache", cache);
    ("arch", arch);
    ("gap", gap);
    ("weighted", weighted);
    ("faults", faults);
    ("verify", verify);
    ("guard", guard);
    ("multilevel", multilevel_experiment);
    ("floorplan", floorplan_experiment);
    ("telemetry", fun () -> telemetry ());
    ("serve", serve_soak);
    ("chaos", chaos_experiment);
    ("perf", perf);
    ("bench-json", bench_json);
    ("bench-compare", bench_compare) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--quick" args then begin
    (* Smoke mode for the test suite: the fast experiments only, with a
       reduced telemetry overhead comparison. *)
    table1 ();
    fault_smoke ();
    prspeed_smoke ();
    verify_smoke ();
    guard_smoke ();
    multilevel_smoke ();
    floorplan_smoke ();
    scope_smoke ();
    serve_smoke ();
    chaos_smoke ();
    telemetry ~quick:true ();
    exit 0
  end;
  let requested =
    match args with
    | [ "all" ] -> List.map fst experiments
    | _ :: _ -> args
    | [] -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2)
    requested
