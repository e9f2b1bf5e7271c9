(* The prpart benchmark.

     perfbench.exe --workload sweep|huge|flow|serve --seed N --seconds S
                   --trace 0|1

   Builds the workload's inputs from the seed, measures its operations
   for S seconds, checks every output outside the timed region and
   prints one JSON object as the last line of standard output: the
   end-to-end metrics with --trace 0, the per-layer metrics of the
   traced run with --trace 1. Exits 1 when an output check fails and 2
   on bad arguments. README.md describes the workloads and metrics. *)

open Prcore

let now = Measure.now

type input = {
  design : Prdesign.Design.t;
  target : Engine.target;
  modular : int Lazy.t;  (* one-module-per-region total frames *)
}

(* What one operation leaves behind for the checks. *)
type result = {
  outcome : Engine.outcome;
  clean : bool;  (* the operation's own verification, where it has one *)
}

type workload = {
  name : string;
  setup : seed:int -> seconds:float -> input array;
  op : input -> (result, string) Stdlib.result;
  path : Stages.path;
  setups : int;  (* set-up repetitions; the median is reported *)
  oracle : bool;  (* check each distinct outcome with the outcome oracle *)
  mirrored : int;  (* inputs re-run stage by stage in the traced run *)
}

(* ------------------------------------------------------------------ *)
(* Inputs *)

let huge_modules = 100
let huge_count = 10
let headroom = 1.3

(* A budget of 1.3x the one-module-per-region usage: satisfiable by a
   well-packed scheme (a single region always fits) while still forcing
   real partitioning decisions. *)
let budget_input design =
  let modular = Cost.evaluate (Scheme.one_module_per_region design) in
  let used = modular.Cost.used in
  let scale v = int_of_float (Float.ceil (headroom *. float_of_int v)) in
  let budget =
    Fpga.Resource.make
      ~bram:(scale used.Fpga.Resource.bram)
      ~dsp:(scale used.Fpga.Resource.dsp)
      (scale used.Fpga.Resource.clb)
  in
  { design;
    target = Engine.Budget budget;
    modular = Lazy.from_val modular.Cost.total_frames }

(* [design] with its modules, the modes of each module and its
   configurations listed in orders drawn from [rng]: the same problem,
   stated in another order. *)
let reorder rng (d : Prdesign.Design.t) =
  let perm n =
    let a = Array.init n Fun.id in
    Synth.Rng.shuffle rng a;
    a
  in
  let inverse a =
    let b = Array.make (Array.length a) 0 in
    Array.iteri (fun j i -> b.(i) <- j) a;
    b
  in
  let open Prdesign in
  let module_order = perm (Array.length d.Design.modules) in
  let mode_orders =
    Array.map (fun (m : Pmodule.t) -> perm (Array.length m.Pmodule.modes)) d.Design.modules
  in
  let new_module = inverse module_order and new_mode = Array.map inverse mode_orders in
  let modules =
    Array.to_list
      (Array.map
         (fun old ->
           let m = d.Design.modules.(old) in
           Pmodule.make m.Pmodule.name
             (Array.to_list (Array.map (fun k -> m.Pmodule.modes.(k)) mode_orders.(old))))
         module_order)
  in
  let configurations =
    Array.to_list
      (Array.map
         (fun i ->
           let c = d.Design.configurations.(i) in
           Configuration.make c.Configuration.name
             (List.sort compare
                (List.map (fun (m, k) -> (new_module.(m), new_mode.(m).(k)))
                   c.Configuration.choices)))
         (perm (Array.length d.Design.configurations)))
  in
  Design.create_exn ~allow_unused_modes:true ~static_overhead:d.Design.static_overhead
    ~name:d.Design.name ~modules ~configurations ()

(* The first [count] designs of the paper's sweep population (Figs. 7-9,
   {!Experiments.Sweep.run}'s seed), each reordered by the seed. Drawn
   afresh from each seed instead, 240 such designs moved the median solve
   time by 15% from one seed to the next: their cost grows geometrically
   with their mode count, which the paper's recipe draws. *)
let paper_seed = 2013

let paper_designs ~seed ~count =
  let rng = Synth.Rng.make seed in
  List.map
    (fun (_, d) -> reorder (Synth.Rng.split rng) d)
    (Synth.Generator.batch ~seed:paper_seed ~count ())

(* A {!Synth.Generator.huge}-class design with its number of extra
   configurations pinned too (drawn from 2..6 there). The [huge] workload
   takes ten of them drawn from [paper_seed], each reordered by the seed:
   drawn afresh from each seed, the slowest of the ten moved by up to 15%
   between seeds. *)
let huge_design ~seed ~modules ~extra_configs =
  Synth.Generator.generate
    ~spec:
      { Synth.Generator.huge_spec with
        Synth.Generator.modules = (modules, modules);
        extra_configs = (extra_configs, extra_configs) }
    (Synth.Rng.make seed) Synth.Generator.Logic_intensive ~index:modules

let huge_seed seed i = (seed * 7919) + i

(* Every input is timed in at least this many rounds, each a whole pass
   over the inputs in a fresh seed-drawn order; an operation's latency is
   its least time over the rounds. The host's slow spells last from a
   fraction of a second to a few seconds, so rounds spread over the run
   give each input at least one clean timing, where a median over all
   samples would move with the share of the run the host spent slow. *)
let min_rounds = 4

(* Sweep designs per measured second: [min_rounds] passes over the
   population take about --seconds on a 2-core x86-64 host (about 45
   solves per second). At 20 s the 240 designs put the tail at p95, with
   12 designs beyond it. *)
let sweep_designs_per_s = 12.

let auto_input design =
  { design;
    target = Engine.Auto;
    modular = lazy (Stages.modular_frames design) }

let example_designs = [ "adaptive-router.xml"; "sdr-modem.xml"; "vision-pipeline.xml" ]

(* The five library designs and the three example designs, each under a
   1.3x modular budget, plus the paper's case study: the video receiver
   under its published budget. *)
let flow_designs seed =
  let inputs =
    Array.of_list
      ({ (budget_input Prdesign.Design_library.video_receiver) with
         target = Engine.Budget Prdesign.Design_library.case_study_budget }
       :: List.map budget_input
            (List.map snd Prdesign.Design_library.all
             @ List.map
                 (fun f ->
                   Prdesign.Design_xml.load_file (Filename.concat "examples/designs" f))
                 example_designs))
  in
  Synth.Rng.shuffle (Synth.Rng.make seed) inputs;
  inputs

let solve_op ~strategy input =
  Result.map
    (fun outcome -> { outcome; clean = true })
    (Engine.solve ~strategy ~target:input.target input.design)

let flow_options seed =
  { Flow.Tool_flow.default_options with
    Flow.Tool_flow.verify = true;
    resilience =
      Some { Flow.Tool_flow.default_resilience with Flow.Tool_flow.walk_seed = seed } }

let workloads seed =
  [ { name = "sweep";
      setups = 25;
      setup =
        (fun ~seed ~seconds ->
          let count = int_of_float (Float.round (sweep_designs_per_s *. seconds)) in
          Array.of_list (List.map auto_input (paper_designs ~seed ~count:(max 1 count))));
      op = solve_op ~strategy:Strategy.Greedy;
      path = Stages.Greedy;
      oracle = true;
      mirrored = 6 };
    { name = "huge";
      setups = 3;
      setup =
        (fun ~seed ~seconds:_ ->
          let rng = Synth.Rng.make seed in
          Array.init huge_count (fun i ->
              budget_input
                (reorder (Synth.Rng.split rng)
                   (huge_design ~seed:(huge_seed paper_seed i) ~modules:huge_modules
                      ~extra_configs:(2 + (i / 2))))));
      op = solve_op ~strategy:Strategy.Multilevel;
      path = Stages.Multilevel_path;
      oracle = true;
      mirrored = 1 };
    { name = "flow";
      setups = 51;
      setup = (fun ~seed ~seconds:_ -> flow_designs seed);
      op =
        (let options = flow_options seed in
         fun input ->
           Result.map
             (fun (r : Flow.Tool_flow.report) ->
               { outcome = r.Flow.Tool_flow.outcome;
                 clean =
                   (match r.Flow.Tool_flow.diagnostics with
                    | Some d -> Prverify.Checker.ok d
                    | None -> false) })
             (Flow.Tool_flow.run ~options ~target:input.target input.design));
      path = Stages.Greedy;
      oracle = false;
      mirrored = 4 } ]

(* ------------------------------------------------------------------ *)
(* Set-up, measurement and checks shared by the solve-shaped workloads *)

(* Run [setup] [n] times; every repetition must build identical inputs.
   Only the last inputs are kept; the others are handed to [release],
   untimed, as soon as they are built, so that they neither inflate the
   heap nor, on serve, leave idle domains for every later set-up's
   collections to stop. Returns the last inputs and the median set-up
   time in s. *)
let repeated_setup ?(release = ignore) t n setup digest =
  let rec go k first times =
    Gc.full_major ();
    let inputs, ms = Measure.time_ms setup in
    let d = digest inputs in
    let first = Option.value first ~default:d in
    Stages.expect t (d = first) "set-up is not deterministic";
    let times = (ms /. 1000.) :: times in
    if k <= 1 then (inputs, Measure.median times)
    else begin
      release inputs;
      go (k - 1) (Some first) times
    end
  in
  go n None []

let input_digest inputs =
  Digest.string
    (String.concat "\n"
       (Array.to_list
          (Array.map (fun i -> Prdesign.Design_xml.to_string i.design) inputs)))

type sample = {
  index : int;
  ms : float;
  frames : (int * string, string) Stdlib.result;  (* total frames, scheme signature *)
}

let frames_of (o : Engine.outcome) =
  (o.Engine.evaluation.Cost.total_frames, Memo.scheme_signature o.Engine.scheme)

type timing = {
  samples : sample list;
  rounds : int;
  wall : float;  (* s *)
  firsts : Engine.outcome option array;  (* each input's first outcome *)
}

(* Operations back to back over the inputs, in whole rounds, until
   [seconds] have passed and at least [rounds] rounds are done; each
   round visits the inputs in a fresh order drawn from [seed]. *)
let measure t w inputs ~seed ~seconds ~rounds:min_rounds =
  let n = Array.length inputs in
  let firsts = Array.make n None in
  let order = Array.init n Fun.id in
  let rng = Synth.Rng.make seed in
  let run index =
    let result, ms = Measure.time_ms (fun () -> w.op inputs.(index)) in
    let frames =
      match result with
      | Error m -> Error m
      | Ok r ->
        if not r.clean then
          Stages.fail t "%s: verification diagnostics are not clean"
            inputs.(index).design.Prdesign.Design.name;
        if firsts.(index) = None then firsts.(index) <- Some r.outcome;
        Ok (frames_of r.outcome)
    in
    { index; ms; frames }
  in
  let t0 = now () in
  let rec go rounds acc =
    if rounds >= min_rounds && now () -. t0 >= seconds then (rounds, acc)
    else begin
      Synth.Rng.shuffle rng order;
      go (rounds + 1) (Array.fold_left (fun acc i -> run i :: acc) acc order)
    end
  in
  let rounds, samples = go 0 [] in
  { samples; rounds; wall = now () -. t0; firsts }

(* Each input's least time over its samples. *)
let best_ms n samples =
  let best = Array.make n infinity in
  List.iter (fun s -> best.(s.index) <- Float.min best.(s.index) s.ms) samples;
  best

(* Every operation succeeded; every repeat of an input reproduced its
   first frames and scheme bit for bit; each distinct outcome passes the
   outcome oracle. Returns the frames ratio of each distinct input. *)
let check t w inputs timing =
  List.iter
    (fun s ->
      let name = inputs.(s.index).design.Prdesign.Design.name in
      match (s.frames, timing.firsts.(s.index)) with
      | Error m, _ -> Stages.fail t "%s: %s" name m
      | Ok got, Some first ->
        Stages.expect t (got = frames_of first) "%s: a repeat changed the frames" name
      | Ok _, None -> ())
    timing.samples;
  Array.to_list timing.firsts
  |> List.mapi (fun i o -> (inputs.(i), o))
  |> List.filter_map (fun (input, o) ->
         Option.bind o
           (fun (o : Engine.outcome) ->
             if w.oracle then
               Stages.expect t
                 (Prverify.Checker.ok (Prverify.Checker.check_outcome o))
                 "oracle rejects %s" input.design.Prdesign.Design.name;
             Stages.frames_ratio ~modular:(Lazy.force input.modular)
               o.Engine.evaluation.Cost.total_frames))

let frames_digest firsts =
  Bitgen.Crc32.hex_digest
    (String.concat ","
       (List.filter_map
          (Option.map (fun (o : Engine.outcome) ->
               string_of_int o.Engine.evaluation.Cost.total_frames))
          (Array.to_list firsts)))

(* ------------------------------------------------------------------ *)
(* Reporting *)

let report_latency label best =
  let xs = Array.to_list best in
  let p, v = Measure.tail xs in
  Printf.printf "%s: best times of %d operations, p50 %.3f ms, tail p%g %.3f ms\n"
    label (List.length xs) (Measure.median xs) p v

let finish t ~attempted metrics =
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev t.Stages.failures);
  let failed = min attempted (List.length t.Stages.failures) in
  Measure.print_result ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* [best] holds each operation's best latency in ms. A closed loop with
   one operation in flight completes them at one over the mean latency. *)
let end_to_end ~setup_s ~best ~ratios ~heap =
  let latencies = Array.to_list best in
  let _, tail_ms = Measure.tail latencies in
  Measure.
    [ metric "setup_s" "s" setup_s;
      metric "latency_p50_ms" "ms" (median latencies);
      metric "latency_tail_ms" "ms" tail_ms;
      metric "throughput_ops_s" "1/s" (1000. /. mean latencies);
      metric "frames_vs_modular" "ratio" (mean ratios);
      metric "peak_heap_mb" "MB" heap ]

(* ------------------------------------------------------------------ *)
(* The traced run's per-layer metrics *)

(* Layers timed by the stage mirror, and whether their number of calls
   per operation varies (the others are called once per operation). *)
let layer_spans =
  [ ("engine.solve", false); ("prgraph.conn_matrix", false);
    ("cluster.agglomerate", true); ("covering.candidate_sets", true);
    ("compatibility.analyse", true); ("scheme.single_region", true);
    ("scheme.fully_static", true); ("scheme.make", true);
    ("cost.evaluate", true); ("allocator.allocate", true);
    ("multilevel.allocate", true); ("floorplan.place", false);
    ("floorplan.assess", false); ("bitgen.build", false);
    ("runtime.simulate", false); ("verify.check", false) ]

let curve_sizes = [ 50; 100; 200 ]

(* The design-size curve: the compatibility pass, one V-cycle and the
   unguarded multilevel solve on huge-class designs of each size. *)
let size_curve tr t seed =
  List.concat_map
    (fun m ->
      let input =
        budget_input
          (huge_design ~seed:(huge_seed seed (1000 + m)) ~modules:m ~extra_configs:4)
      in
      let design = input.design in
      let budget = match input.target with Engine.Budget b -> b | _ -> assert false in
      let nodes = Multilevel.nodes design in
      let _, analyse_ms =
        Trace.timed tr (Printf.sprintf "curve.analyse.m%d" m) (fun () ->
            Compatibility.analyse design (Array.of_list nodes))
      in
      let _, allocate_ms =
        Trace.timed tr (Printf.sprintf "curve.allocate.m%d" m) (fun () ->
            Multilevel.allocate_stats ~options:Stages.multilevel_options ~budget
              design nodes)
      in
      let result, solve_ms =
        Trace.timed tr (Printf.sprintf "curve.solve.m%d" m) (fun () ->
            Engine.solve ~strategy:Strategy.Multilevel ~target:input.target design)
      in
      (match result with
       | Error e -> Stages.fail t "size curve m%d: %s" m e
       | Ok o ->
         Stages.expect t
           (Prverify.Checker.ok (Prverify.Checker.check_outcome o))
           "oracle rejects the size-curve design at %d modules" m);
      Measure.
        [ metric (Printf.sprintf "compatibility.analyse_ms.m%d" m) "ms" analyse_ms;
          metric (Printf.sprintf "multilevel.allocate_ms.m%d" m) "ms" allocate_ms;
          metric (Printf.sprintf "engine.solve_ms.m%d" m) "ms" solve_ms ])
    curve_sizes

let per_layer tr t ~ops ~overhead_ms ~untraced_ms ~curve =
  let k = float_of_int (max 1 ops) in
  let per_op v = v /. k in
  let busy name = per_op (Trace.busy_ms tr name) in
  let calls name = per_op (float_of_int (Trace.calls tr name)) in
  let solves = float_of_int (max 1 t.Stages.solves) in
  let tail_of xs = snd (Measure.tail xs) in
  let open Measure in
  List.concat_map
    (fun (name, counted) ->
      metric (name ^ "_ms") "ms" (busy name)
      :: (if counted then [ metric (name ^ ".calls") "calls/op" (calls name) ] else []))
    layer_spans
  @ [ metric "engine.residual_ms" "ms" (t.Stages.residual_ms /. solves);
      metric "engine.cost_evaluations" "count"
        (float_of_int t.Stages.cost_evaluations /. solves);
      metric "engine.memo_hit_ratio" "ratio"
        (ratio t.Stages.memo_hits (t.Stages.memo_hits + t.Stages.memo_misses));
      metric "engine.escalations" "count" (float_of_int t.Stages.escalations /. solves);
      metric "covering.sets" "count" (per_op (float_of_int t.Stages.sets));
      metric "allocator.feasible_ratio" "ratio"
        (ratio t.Stages.feasible t.Stages.allocations);
      metric "multilevel.trials" "count" (per_op (float_of_int t.Stages.trials));
      metric "multilevel.accept_ratio" "ratio" (ratio t.Stages.moves t.Stages.trials);
      metric "bitgen.bytes" "bytes" (per_op (float_of_int t.Stages.bytes));
      metric "overshoot_p50_ms" "ms" (median t.Stages.overshoot_ms);
      metric "overshoot_tail_ms" "ms" (tail_of t.Stages.overshoot_ms);
      metric "deadline_frames_vs_modular" "ratio" (mean t.Stages.deadline_ratios);
      metric "serve.hit_ms" "ms" (median t.Stages.hit_ms);
      metric "serve.miss_ms" "ms" (median t.Stages.miss_ms);
      metric "serve.cache_hit_ratio" "ratio"
        (ratio t.Stages.cache_hits t.Stages.cache_lookups);
      metric "tracing.overhead_ms" "ms" overhead_ms;
      metric "tracing.overhead_pct" "%" (100. *. overhead_ms /. untraced_ms) ]
  @ curve

(* [k] of the designs, at evenly spaced ranks of their size (modes times
   configurations), so that the re-run inputs span the population from
   small to large. Returns indices into [designs]. *)
let spread_picks designs k =
  let size d =
    List.length (Prdesign.Design.all_mode_ids d) * Prdesign.Design.configuration_count d
  in
  let by_size =
    Array.of_list
      (List.sort compare (List.mapi (fun i d -> (size d, i)) (Array.to_list designs)))
  in
  let n = Array.length by_size in
  let k = min n k in
  List.init k (fun j -> snd by_size.(((2 * j) + 1) * n / (2 * k)))

let write_trace tr ~workload ~seed =
  let dir = "perfbench-trace" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace.write tr (Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" workload seed))

(* Everything the traced run re-executes for one input after its
   operation: the solve stage by stage, the backend the workload does
   not use, the implementation stages, the deadline solves and (except
   on serve, which measures its own server) the serve round trip. *)
let mirror tr t ~workload ~path ~seed input =
  let design = input.design in
  match Stages.solve tr t ~path ~target:input.target design with
  | None -> ()
  | Some o ->
    let budget = o.Engine.budget in
    (match path with
     | Stages.Greedy ->
       ignore
         (Stages.multilevel_allocate ~stage:(Trace.span tr) t ~budget design
            (Multilevel.nodes design))
     | Stages.Multilevel_path -> Stages.greedy_under_deadline tr t ~budget design);
    Stages.implement tr t ~walk_seed:seed o;
    Stages.deadline_solves tr t ~target:input.target
      ~modular:(Lazy.force input.modular) design;
    if workload <> "serve" then
      Stages.serve_twice tr t ~target:input.target ~strategy:(Stages.strategy_of path)
        design

(* ------------------------------------------------------------------ *)
(* sweep, huge, flow *)

let run_solver w ~seed ~seconds ~trace =
  let t = Stages.tally () in
  let inputs, setup_s =
    repeated_setup t
      (if trace then 1 else w.setups)
      (fun () -> w.setup ~seed ~seconds)
      input_digest
  in
  let n = Array.length inputs in
  if not trace then begin
    let timing = measure t w inputs ~seed ~seconds ~rounds:min_rounds in
    let heap = Measure.peak_heap_mb () in
    let best = best_ms n timing.samples in
    let ratios = check t w inputs timing in
    report_latency w.name best;
    if n <= 9 then
      Array.iteri
        (fun i input ->
          Printf.printf "  %s: best %.3f ms\n" input.design.Prdesign.Design.name best.(i))
        inputs;
    Printf.printf "%s: %d ops in %d rounds over %d inputs in %.3f s; frames digest %s\n"
      w.name (List.length timing.samples) timing.rounds n timing.wall
      (frames_digest timing.firsts);
    finish t ~attempted:(List.length timing.samples)
      (end_to_end ~setup_s ~best ~ratios ~heap)
  end
  else begin
    let tr = Trace.create () in
    let timing = measure t w inputs ~seed ~seconds:(seconds /. 2.) ~rounds:2 in
    let best = best_ms n timing.samples in
    let k = min w.mirrored n in
    let traced =
      List.map
        (fun i ->
          let input = inputs.(i) in
          let result, ms = Trace.timed tr "op" (fun () -> w.op input) in
          mirror tr t ~workload:w.name ~path:w.path ~seed input;
          (match (result, timing.firsts.(i)) with
           | Ok r, Some first ->
             Stages.expect t
               (frames_of r.outcome = frames_of first)
               "%s: the traced operation changed the frames" input.design.Prdesign.Design.name
           | Error m, _ -> Stages.fail t "%s: %s" input.design.Prdesign.Design.name m
           | Ok _, None -> ());
          (ms -. best.(i), best.(i)))
        (spread_picks (Array.map (fun i -> i.design) inputs) k)
    in
    let curve = size_curve tr t seed in
    ignore (check t w inputs timing);
    write_trace tr ~workload:w.name ~seed;
    finish t
      ~attempted:(List.length timing.samples + k)
      (per_layer tr t ~ops:k
         ~overhead_ms:(Measure.median (List.map fst traced))
         ~untraced_ms:(Measure.median (List.map snd traced))
         ~curve)
  end

(* ------------------------------------------------------------------ *)
(* serve *)

(* Serve designs per measured second: a round of their requests takes
   about a sixth of --seconds on a 2-core x86-64 host (about 70 requests
   per second). At 20 s the 226 requests of a round put the tail at p95,
   with 12 requests beyond it. *)
let serve_designs_per_s = 7.5
let serve_jobs = 1
let serve_clients = 2

type served = {
  slot : int;  (* the request's place in the round, the same in every round *)
  design_index : int;
  reply : string;
  latency_ms : float;
}

(* Client [c] walks its slice of [designs]: every other design is asked
   for twice in a row, so a third of all requests are exact duplicates. *)
let requests_of ~lo ~hi c =
  let rec go k i acc =
    if i >= hi then List.rev acc
    else
      let acc = if k mod 2 = 0 then i :: i :: acc else i :: acc in
      go (k + 1) (i + serve_clients) acc
  in
  go 0 (lo + c) []

(* The clients' requests taken in turn, one from each client while it has
   any left. *)
let interleave lists =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
      go
        (List.rev_append (List.map List.hd lists) acc)
        (List.filter (fun l -> l <> []) (List.map List.tl lists))
  in
  go [] (List.filter (fun l -> l <> []) lists)

(* One round: the clients' requests, in turn, through [server] in a
   closed loop with one request in flight. With two in flight the
   server batches them and answers a batch as a whole, so a request's
   latency would depend on which other request the thread scheduling put
   in its batch; that moved the median from run to run by a quarter on
   the same inputs. *)
let serve_loop ?trace server lines ~lo ~hi =
  let requests = interleave (List.init serve_clients (requests_of ~lo ~hi)) in
  List.mapi
    (fun slot i ->
      let t0 = now () in
      let reply = Prserve.Server.handle_line server lines.(i) in
      let t1 = now () in
      Option.iter (fun tr -> Trace.record tr "serve.request" t0 t1) trace;
      { slot; design_index = i; reply; latency_ms = (t1 -. t0) *. 1000. })
    requests

let serve_server config =
  match Prserve.Server.create config with
  | Ok server -> server
  | Error m -> failwith ("serve: " ^ m)

let serve_setup ~seed ~seconds =
  let library = List.map snd Prdesign.Design_library.all in
  let count = int_of_float (Float.round (serve_designs_per_s *. seconds)) in
  let designs =
    Array.of_list
      (library @ paper_designs ~seed ~count:(max 1 (count - List.length library)))
  in
  let lines =
    Array.mapi
      (fun i d ->
        Stages.solve_line ~client:(Printf.sprintf "c%d" (i mod serve_clients)) d)
      designs
  in
  let config =
    Stages.serve_config ~jobs:serve_jobs ~target:Engine.Auto
      ~strategy:Strategy.Greedy
  in
  (designs, lines, config, serve_server config)

(* Every reply is OK; duplicates carry their first reply's scheme; a
   sample of cached replies matches a fresh verified solve. Returns the
   frames ratio of each distinct design. *)
let check_serve t designs served =
  let first = Hashtbl.create 1024 in
  let hits = ref [] in
  List.iter
    (fun s ->
      match Prserve.Protocol.parse_reply s.reply with
      | Ok (Prserve.Protocol.R_solved r) ->
        (match Hashtbl.find_opt first s.design_index with
         | None -> Hashtbl.replace first s.design_index r
         | Some f ->
           Stages.expect t
             (f.Prserve.Protocol.signature = r.Prserve.Protocol.signature
              && f.Prserve.Protocol.total_frames = r.Prserve.Protocol.total_frames)
             "serve: duplicate reply for %s differs" r.Prserve.Protocol.design);
        if r.Prserve.Protocol.cached then hits := (s.design_index, r) :: !hits
      | Ok _ | Error _ -> Stages.fail t "serve: %s" s.reply)
    served;
  let sampled = ref 0 in
  List.iter
    (fun (i, (r : Prserve.Protocol.solved)) ->
      if !sampled < 8 then begin
        incr sampled;
        match Engine.solve ~verify:true ~target:Engine.Auto designs.(i) with
        | Error m -> Stages.fail t "serve: fresh solve of %s: %s" r.Prserve.Protocol.design m
        | Ok o ->
          Stages.expect t
            (Bitgen.Crc32.hex_digest (Memo.scheme_signature o.Engine.scheme)
             = r.Prserve.Protocol.signature
             && o.Engine.evaluation.Cost.total_frames = r.Prserve.Protocol.total_frames
             && Prverify.Checker.ok (Prverify.Checker.check_outcome o))
            "serve: cached reply for %s differs from a fresh verified solve"
            r.Prserve.Protocol.design
      end)
    (List.rev !hits);
  Hashtbl.fold
    (fun i (r : Prserve.Protocol.solved) acc ->
      match
        Stages.frames_ratio ~modular:(Stages.modular_frames designs.(i))
          r.Prserve.Protocol.total_frames
      with
      | Some ratio -> ratio :: acc
      | None -> acc)
    first []

let run_serve ~seed ~seconds ~trace =
  let t = Stages.tally () in
  let (designs, lines, config, server), setup_s =
    repeated_setup
      ~release:(fun (_, _, _, server) -> Prserve.Server.drain server)
      t
      (if trace then 1 else 9)
      (fun () -> serve_setup ~seed ~seconds)
      (fun (designs, _, _, _) -> input_digest (Array.map auto_input designs))
  in
  let n = Array.length designs in
  if not trace then begin
    (* Each round starts from an empty cache, on a fresh server, so that
       every request is a hit or a miss in every round alike. *)
    let t0 = now () in
    let rec go rounds server acc =
      let served = serve_loop server lines ~lo:0 ~hi:n in
      let cache = Prserve.Server.cache server in
      let hits = Prserve.Cache.hits cache in
      let lookups = hits + Prserve.Cache.misses cache in
      Prserve.Server.drain server;
      let acc = List.rev_append served acc and rounds = rounds + 1 in
      if rounds >= min_rounds && now () -. t0 >= seconds then (rounds, acc, hits, lookups)
      else go rounds (serve_server config) acc
    in
    let rounds, served, hits, lookups = go 0 server [] in
    let wall = now () -. t0 in
    let heap = Measure.peak_heap_mb () in
    let slots = 1 + List.fold_left (fun m s -> max m s.slot) 0 served in
    let best = Array.make slots infinity in
    List.iter (fun s -> best.(s.slot) <- Float.min best.(s.slot) s.latency_ms) served;
    let ratios = check_serve t designs served in
    report_latency "serve" best;
    Printf.printf "serve: %d requests in %d rounds in %.3f s, %d cache hits of %d lookups a round\n"
      (List.length served) rounds wall hits lookups;
    finish t ~attempted:(List.length served)
      (end_to_end ~setup_s ~best ~ratios ~heap)
  end
  else begin
    let cache = Prserve.Server.cache server in
    let tr = Trace.create () in
    let half = n / 2 in
    let untraced = serve_loop server lines ~lo:0 ~hi:half in
    let hits0 = Prserve.Cache.hits cache and misses0 = Prserve.Cache.misses cache in
    let traced = serve_loop ~trace:tr server lines ~lo:half ~hi:n in
    t.Stages.cache_hits <- Prserve.Cache.hits cache - hits0;
    t.Stages.cache_lookups <-
      t.Stages.cache_hits + (Prserve.Cache.misses cache - misses0);
    Prserve.Server.drain server;
    List.iter
      (fun s -> ignore (Stages.classify t s.reply s.latency_ms))
      traced;
    let k = 6 in
    let requested =
      Array.of_list (List.sort_uniq compare (List.map (fun s -> s.design_index) traced))
    in
    List.iter
      (fun i ->
        mirror tr t ~workload:"serve" ~path:Stages.Greedy ~seed
          (auto_input designs.(requested.(i))))
      (spread_picks (Array.map (fun i -> designs.(i)) requested) k);
    let curve = size_curve tr t seed in
    ignore (check_serve t designs (untraced @ traced));
    write_trace tr ~workload:"serve" ~seed;
    let p50 xs = Measure.median (List.map (fun s -> s.latency_ms) xs) in
    let untraced_ms = p50 untraced in
    finish t
      ~attempted:(List.length untraced + List.length traced)
      (per_layer tr t ~ops:k ~overhead_ms:(p50 traced -. untraced_ms) ~untraced_ms ~curve)
  end

(* ------------------------------------------------------------------ *)

let usage = "perfbench.exe --workload sweep|huge|flow|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let specs =
    [ ("--workload", Arg.Set_string workload, " sweep, huge, flow or serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run") ]
  in
  let bad m =
    prerr_endline m;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then bad "bad --seconds or --trace";
  let trace = !trace = 1 in
  if !workload = "serve" then run_serve ~seed:!seed ~seconds:!seconds ~trace
  else
    match List.find_opt (fun w -> w.name = !workload) (workloads !seed) with
    | Some w -> run_solver w ~seed:!seed ~seconds:!seconds ~trace
    | None -> bad ("unknown workload " ^ !workload)
