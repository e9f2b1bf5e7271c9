module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Engine = Prcore.Engine
module Resource = Fpga.Resource
module Placer = Floorplan.Placer
module Layout = Floorplan.Layout

type failure = { seed : int; design : string; what : string }

type summary = {
  designs : int;
  solved : int;
  skipped : int;
  failures : failure list;
}

(* {!Prcore.Engine.verify_outcome} prefixes its self-check reports with
   this; anything else in an [Error] is an infeasibility report, which
   the fuzzer counts as a skip rather than a failure. *)
let is_verification_failure message =
  String.length message >= 19 && String.sub message 0 19 = "verification failed"

let run ?(count = 200) ?(seed = 2013) ?(jobs = 2) () =
  let classes = Array.of_list Synth.Generator.all_classes in
  let solved = ref 0 and skipped = ref 0 and failures = ref [] in
  for i = 0 to count - 1 do
    let design_seed = seed + i in
    let rng = Synth.Rng.make design_seed in
    let cls = classes.(i mod Array.length classes) in
    let design = Synth.Generator.generate rng cls ~index:i in
    let fail what =
      failures :=
        { seed = design_seed; design = design.Design.name; what } :: !failures
    in
    (* 1. The generator's output must satisfy the design oracle. *)
    let diagnostics = Oracle.check_design design in
    if not (Diagnostic.ok diagnostics) then
      fail
        (Printf.sprintf "design oracle rejected the generator output:\n%s"
           (Diagnostic.render_report diagnostics))
    else begin
      (* 2. Solve with the engine's from-scratch self-check armed. *)
      match Engine.solve ~verify:true ~target:Engine.Auto design with
      | Error message ->
        if is_verification_failure message then fail message else incr skipped
      | Ok outcome ->
        incr solved;
        (* 3. The parallel engine must be bit-identical to the
           sequential one. *)
        (match Engine.solve ~verify:true ~jobs ~target:Engine.Auto design with
         | Error message ->
           fail
             (Printf.sprintf
                "parallel solve (jobs=%d) failed where sequential \
                 succeeded: %s"
                jobs message)
         | Ok par ->
           if
             not (Cost.equal_evaluation outcome.Engine.evaluation
                    par.Engine.evaluation)
           then
             fail
               (Printf.sprintf
                  "jobs=1 and jobs=%d disagree on the evaluation: %s vs %s"
                  jobs
                  (Format.asprintf "%a" Cost.pp_evaluation
                     outcome.Engine.evaluation)
                  (Format.asprintf "%a" Cost.pp_evaluation
                     par.Engine.evaluation))
           else if
             Scheme.describe outcome.Engine.scheme
             <> Scheme.describe par.Engine.scheme
           then
             fail
               (Printf.sprintf
                  "jobs=1 and jobs=%d converge to different schemes" jobs));
        (* 4. The reported evaluation must match a direct cost-model
           run, which no incremental kernel touches... *)
        let fresh = Cost.evaluate outcome.Engine.scheme in
        if not (Cost.equal_evaluation fresh outcome.Engine.evaluation) then
          fail
            (Printf.sprintf
               "reported evaluation diverges from a direct Cost.evaluate: \
                %s vs %s"
               (Format.asprintf "%a" Cost.pp_evaluation
                  outcome.Engine.evaluation)
               (Format.asprintf "%a" Cost.pp_evaluation fresh));
        (* 5. ...and the oracle's fully independent re-derivation. *)
        let derived = Oracle.derive_evaluation outcome.Engine.scheme in
        if not (Cost.equal_evaluation derived outcome.Engine.evaluation) then
          fail
            (Printf.sprintf
               "reported evaluation diverges from the independent oracle \
                derivation: %s vs %s"
               (Format.asprintf "%a" Cost.pp_evaluation
                  outcome.Engine.evaluation)
               (Format.asprintf "%a" Cost.pp_evaluation derived));
        (* 6. Check-after-solve: the full outcome oracle suite. *)
        let report = Checker.check_outcome outcome in
        if not (Diagnostic.ok report) then
          fail
            (Printf.sprintf "check-after-solve found violations:\n%s"
               (Diagnostic.render_report report));
        (* 7. The multilevel backend: sequential vs parallel must be
           bit-identical (the backend is deterministic by construction)
           and its scheme must survive the independent oracle
           re-derivation. A multilevel miss on a design the default
           pipeline solved is legal (different search space), so an
           infeasibility error is not a failure. *)
        (match
           Engine.solve ~strategy:Prcore.Strategy.Multilevel
             ~target:Engine.Auto design
         with
         | Error message ->
           if is_verification_failure message then
             fail ("multilevel: " ^ message)
         | Ok ml ->
           (match
              Engine.solve ~strategy:Prcore.Strategy.Multilevel ~jobs
                ~target:Engine.Auto design
            with
            | Error message ->
              fail
                (Printf.sprintf
                   "multilevel parallel solve (jobs=%d) failed where \
                    sequential succeeded: %s"
                   jobs message)
            | Ok par ->
              if
                not
                  (Cost.equal_evaluation ml.Engine.evaluation
                     par.Engine.evaluation)
                || Scheme.describe ml.Engine.scheme
                   <> Scheme.describe par.Engine.scheme
              then
                fail
                  (Printf.sprintf
                     "multilevel jobs=1 and jobs=%d diverge: %s vs %s" jobs
                     (Format.asprintf "%a" Cost.pp_evaluation
                        ml.Engine.evaluation)
                     (Format.asprintf "%a" Cost.pp_evaluation
                        par.Engine.evaluation)));
           let derived = Oracle.derive_evaluation ml.Engine.scheme in
           if not (Cost.equal_evaluation derived ml.Engine.evaluation) then
             fail
               (Printf.sprintf
                  "multilevel evaluation diverges from the independent \
                   oracle derivation: %s vs %s"
                  (Format.asprintf "%a" Cost.pp_evaluation
                     ml.Engine.evaluation)
                  (Format.asprintf "%a" Cost.pp_evaluation derived)))
    end
  done;
  { designs = count;
    solved = !solved;
    skipped = !skipped;
    failures = List.rev !failures }

let render_summary s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "fuzz: %d designs, %d solved, %d skipped, %d failure%s\n"
       s.designs s.solved s.skipped
       (List.length s.failures)
       (if List.length s.failures = 1 then "" else "s"));
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  seed %d (%s): %s\n" f.seed f.design f.what))
    s.failures;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Mutation kills.                                                     *)

type kill = {
  label : string;
  expected : string;
  killed : bool;
  precise : bool;
  codes : string list;
}

let error_codes diagnostics =
  List.sort_uniq compare
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code)
       (Diagnostic.errors diagnostics))

let kill_of ~label ~expected diagnostics =
  let codes = error_codes diagnostics in
  { label;
    expected;
    killed = List.mem expected codes;
    precise = List.for_all (fun c -> c = expected) codes;
    codes }

(* Drop one mode from every member of the single-region grouping. The
   candidate is the first used mode whose removal leaves every member
   non-empty and isolates the covering oracle (some other drops also
   create co-activity, which is a different corruption class). *)
let drop_covered_mode design grouping =
  let corrupt mode =
    List.map
      (fun (m : Oracle.member) ->
        { m with Oracle.modes = List.filter (( <> ) mode) m.Oracle.modes })
      grouping
  in
  let viable =
    List.filter
      (fun mode ->
        List.exists
          (fun (m : Oracle.member) -> List.mem mode m.Oracle.modes)
          grouping
        && List.for_all
             (fun (m : Oracle.member) -> m.Oracle.modes <> [])
             (corrupt mode))
      (Design.all_mode_ids design)
  in
  let pick =
    match
      List.find_opt
        (fun mode ->
          error_codes (Oracle.check_grouping design (corrupt mode))
          = [ "V-CVR-001" ])
        viable
    with
    | Some mode -> mode
    | None -> List.hd viable
  in
  Oracle.check_grouping design (corrupt pick)

(* Split a maximal cluster (one contained in no other member) into two
   region mates: the configuration needing the whole cluster must then
   activate both halves simultaneously — a region conflict, while
   coverage stays complete. *)
let split_cluster design grouping =
  let subset a b = List.for_all (fun m -> List.mem m b) a in
  let maximal (m : Oracle.member) =
    List.length m.Oracle.modes >= 2
    && m.Oracle.place <> Oracle.Static
    && not
         (List.exists
            (fun (m' : Oracle.member) ->
              m' != m && subset m.Oracle.modes m'.Oracle.modes)
            grouping)
  in
  let rec split acc = function
    | [] -> List.rev acc
    | (m : Oracle.member) :: rest when maximal m ->
      List.rev_append acc
        ({ m with Oracle.modes = [ List.hd m.Oracle.modes ] }
         :: { m with Oracle.modes = List.tl m.Oracle.modes }
         :: rest)
    | m :: rest -> split (m :: acc) rest
  in
  Oracle.check_grouping design (split [] grouping)

let bounding_box (a : Placer.rect) (b : Placer.rect) =
  let row = min a.Placer.row b.Placer.row
  and col = min a.Placer.col b.Placer.col in
  { Placer.row;
    col;
    height =
      max (a.Placer.row + a.Placer.height) (b.Placer.row + b.Placer.height)
      - row;
    width =
      max (a.Placer.col + a.Placer.width) (b.Placer.col + b.Placer.width)
      - col }

let mutation_kills () =
  let design = Design_library.video_receiver in
  let budget = Design_library.case_study_budget in
  (* The partitioned case-study scheme (for the cost corruptions)... *)
  let outcome =
    match Engine.solve ~target:(Engine.Budget budget) design with
    | Ok o -> o
    | Error m -> invalid_arg ("Fuzz.mutation_kills: case study solve: " ^ m)
  in
  (* ...and the one-module-per-region reference (for the floorplan,
     bitstream and transition corruptions — guaranteed multi-region). *)
  let multi = Scheme.one_module_per_region design in
  let demands = Oracle.derive_demands multi in
  let device, placed =
    match Placer.fit_on_sweep demands with
    | Some (device, outcome) -> (device, outcome)
    | None -> invalid_arg "Fuzz.mutation_kills: case study does not place"
  in
  let layout = Layout.make device in
  let single = Scheme.single_region design in
  let grouping = Oracle.grouping_of_scheme single in
  let eval = outcome.Engine.evaluation in
  [ kill_of ~label:"drop-covered-mode" ~expected:"V-CVR-001"
      (drop_covered_mode design grouping);
    kill_of ~label:"split-cluster" ~expected:"V-CVR-004"
      (split_cluster design grouping);
    kill_of ~label:"overlap-rects" ~expected:"V-FLP-001"
      (let placements = Array.copy placed.Placer.placements in
       let placed_indices =
         List.filter
           (fun i -> placements.(i) <> None)
           (List.init (Array.length placements) Fun.id)
       in
       (match placed_indices with
        | i :: j :: _ ->
          (match (placements.(i), placements.(j)) with
           | Some a, Some b -> placements.(i) <- Some (bounding_box a b)
           | _ -> ())
        | _ -> ());
       Oracle.check_floorplan ~layout ~demands placements);
    kill_of ~label:"flip-region-frames" ~expected:"V-CST-003"
      (Oracle.check_cost outcome.Engine.scheme
         { eval with
           Cost.region_frames =
             Array.mapi
               (fun i f -> if i = 0 then f + 1 else f)
               eval.Cost.region_frames });
    kill_of ~label:"corrupt-total" ~expected:"V-CST-001"
      (Oracle.check_cost outcome.Engine.scheme
         { eval with Cost.total_frames = eval.Cost.total_frames + 7 });
    kill_of ~label:"corrupt-worst" ~expected:"V-CST-002"
      (Oracle.check_cost outcome.Engine.scheme
         { eval with Cost.worst_frames = eval.Cost.worst_frames + 7 });
    kill_of ~label:"corrupt-crc" ~expected:"V-BIT-002"
      (let repo = Bitgen.Repository.build ~device multi in
       match repo.Bitgen.Repository.entries with
       | [] -> []
       | entry :: _ ->
         let bytes =
           Bytes.copy
             (Bitgen.Bitstream.serialise entry.Bitgen.Repository.bitstream)
         in
         let last = Bytes.length bytes - 1 in
         Bytes.set bytes last
           (Char.chr (Char.code (Bytes.get bytes last) lxor 0xFF));
         Oracle.check_serialised
           ~context:
             (Printf.sprintf "corrupted %s" entry.Bitgen.Repository.label)
           bytes);
    kill_of ~label:"shrink-budget" ~expected:"V-CST-006"
      (let used = (Oracle.derive_evaluation outcome.Engine.scheme).Cost.used in
       Oracle.check_budget outcome.Engine.scheme
         ~budget:
           { Resource.clb = max 0 (used.Resource.clb - 1);
             bram = used.Resource.bram;
             dsp = used.Resource.dsp });
    kill_of ~label:"empty-repository" ~expected:"V-TRN-001"
      (let empty =
         Bitgen.Repository.build ~device (Scheme.fully_static design)
       in
       Oracle.check_transitions ~repository:empty multi) ]

let all_killed kills =
  kills <> [] && List.for_all (fun k -> k.killed && k.precise) kills

let render_kills kills =
  let b = Buffer.create 256 in
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "%-20s %-10s %s%s\n" k.label k.expected
           (if k.killed then "killed" else "MISSED")
           (if k.precise then ""
            else
              Printf.sprintf " (also fired: %s)"
                (String.concat ", "
                   (List.filter (( <> ) k.expected) k.codes)))))
    kills;
  Buffer.add_string b
    (Printf.sprintf "mutation kills: %d/%d killed precisely\n"
       (List.length (List.filter (fun k -> k.killed && k.precise) kills))
       (List.length kills));
  Buffer.contents b
