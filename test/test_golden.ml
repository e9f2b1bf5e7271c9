(* Golden outcomes of every search backend.

   For each library design and two seeded huge-class designs, and for
   each of greedy, anneal, multilevel and exact (exact where it finishes
   within a test's time), the table pins what [Engine.solve] reports
   under [Auto] at [jobs] 1 and 2: the CRC32 of the canonical scheme
   signature, total and worst-case frames, and [cost_evaluations]. One
   eval-capped ladder solve per design pins [guard.evals_used]. The
   values were recorded while the engine still kept a scheme evaluation
   cache, and removing it changed none of them except multilevel's
   count (see [expected_evaluations]). *)

module Design = Prdesign.Design
module Engine = Prcore.Engine
module Strategy = Prcore.Strategy
module Cost = Prcore.Cost

let designs =
  Array.of_list
    (List.map snd Prdesign.Design_library.all
    @ [ Synth.Generator.huge ~seed:5 ~modules:5 ();
        Synth.Generator.huge ~seed:11 ~modules:6 () ])

(* (design index, strategy, signature CRC, total frames, worst frames,
   cost evaluations). *)
let outcomes =
  [ (0, "greedy", "26db7e41", 0, 0, 7621);
    (0, "anneal", "26db7e41", 0, 0, 330247);
    (0, "multilevel", "26db7e41", 0, 0, 96);
    (0, "exact", "26db7e41", 0, 0, 11766);
    (1, "greedy", "c9e529b2", 236782, 12144, 27339);
    (1, "anneal", "05d05859", 232146, 12144, 1450423);
    (1, "multilevel", "5c663a57", 236780, 12144, 476);
    (1, "exact", "e737c718", 231686, 12590, 4292371);
    (2, "greedy", "d74c72b4", 81792, 10628, 25865);
    (2, "anneal", "9b010901", 81792, 10628, 1402173);
    (2, "multilevel", "b6ae9465", 81792, 10628, 188);
    (2, "exact", "4197b47f", 81792, 10628, 6050644);
    (3, "greedy", "9ec19ab0", 0, 0, 553);
    (3, "anneal", "9ec19ab0", 0, 0, 176368);
    (3, "multilevel", "9ec19ab0", 0, 0, 30);
    (3, "exact", "9ec19ab0", 0, 0, 292);
    (4, "greedy", "ac423528", 1110, 1110, 45);
    (4, "anneal", "ac423528", 1110, 1110, 35475);
    (4, "multilevel", "ac423528", 1110, 1110, 15);
    (4, "exact", "ac423528", 1110, 1110, 14);
    (5, "greedy", "f648aa22", 676, 676, 29300);
    (5, "anneal", "aa9c48ba", 288, 288, 1056270);
    (5, "multilevel", "dca882c4", 742, 742, 267);
    (5, "exact", "cf47cf0a", 288, 288, 1682863);
    (* Exact takes seconds on this design. *)
    (6, "greedy", "902d1a6a", 1356, 678, 36990);
    (6, "anneal", "9e48d602", 504, 252, 1268232);
    (6, "multilevel", "e1f5ed34", 1356, 678, 333) ]

(* The V-cycle used to store its returned scheme's evaluation in the
   engine's cache, one counted evaluation per run; every multilevel row
   above runs one V-cycle. *)
let expected_evaluations strategy recorded =
  if strategy = Strategy.Multilevel then recorded - 1 else recorded

let ladder = "exact:2000,anneal:1000,multilevel,greedy"
let ladder_cap = 4000

(* (design index, guard.evals_used, signature CRC, total frames) of one
   [ladder] solve under an overall [ladder_cap] evaluation cap. *)
let capped =
  [ (0, 1864, "26db7e41", 0);
    (1, 4004, "6a4a96a4", 92596);
    (2, 4006, "69628856", 25468);
    (3, 292, "9ec19ab0", 0);
    (4, 14, "ac423528", 1110);
    (5, 1869, "26d909ed", 324);
    (6, 1749, "a807ada7", 2592) ]

let signature_crc (o : Engine.outcome) =
  Bitgen.Crc32.hex_digest (Prcore.Memo.scheme_signature o.Engine.scheme)

let solve ?budget ?ladder ?strategy ?jobs design =
  match
    Engine.solve ?budget ?ladder ?strategy ?jobs ~target:Engine.Auto design
  with
  | Ok o -> o
  | Error m -> Alcotest.failf "%s: %s" design.Design.name m

let check_outcome (_, name, crc, total, worst, evals) design =
  let strategy =
    match Strategy.of_string name with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun jobs ->
      let o = solve ~strategy ~jobs design in
      let label what = Printf.sprintf "%s jobs=%d %s" name jobs what in
      Alcotest.(check string) (label "signature") crc (signature_crc o);
      Alcotest.(check int) (label "total frames") total
        o.Engine.evaluation.Cost.total_frames;
      Alcotest.(check int) (label "worst frames") worst
        o.Engine.evaluation.Cost.worst_frames;
      Alcotest.(check int) (label "cost evaluations")
        (expected_evaluations strategy evals)
        o.Engine.cost_evaluations)
    [ 1; 2 ]

let check_capped (_, evals_used, crc, total) design =
  let ladder =
    match Prguard.Ladder.of_string ladder with
    | Ok l -> l
    | Error m -> Alcotest.fail m
  in
  let budget =
    Prguard.Budget.of_spec (Prguard.Budget.spec ~max_evals:ladder_cap ())
  in
  let o = solve ~budget ~ladder design in
  Alcotest.(check int) "ladder evals used" evals_used
    o.Engine.degraded.Prguard.Budget.evals_used;
  Alcotest.(check string) "ladder signature" crc (signature_crc o);
  Alcotest.(check int) "ladder total frames" total
    o.Engine.evaluation.Cost.total_frames

let golden_tests =
  Array.to_list
    (Array.mapi
       (fun i design ->
         Alcotest.test_case design.Design.name `Quick (fun () ->
             List.iter
               (fun ((d, _, _, _, _, _) as row) ->
                 if d = i then check_outcome row design)
               outcomes;
             List.iter
               (fun ((d, _, _, _) as row) ->
                 if d = i then check_capped row design)
               capped))
       designs)

(* The benchmark reads [memo_hits] and [memo_misses] and divides the
   first by their sum; with no cache both must still give a finite
   ratio of 0, on every backend. *)
let search_stats_tests =
  [ Alcotest.test_case "no cache hits, one miss per evaluation" `Quick
      (fun () ->
        List.iter
          (fun (design, strategy) ->
            let o = solve ~strategy design in
            let s = o.Engine.search in
            let label what =
              Printf.sprintf "%s %s %s" design.Design.name
                (Strategy.to_string strategy) what
            in
            Alcotest.(check int) (label "memo_hits") 0 s.Engine.memo_hits;
            Alcotest.(check int) (label "memo_misses")
              o.Engine.cost_evaluations s.Engine.memo_misses;
            Alcotest.(check bool) (label "evaluations > 0") true
              (o.Engine.cost_evaluations > 0))
          (List.map (fun s -> (designs.(0), s)) Strategy.all
          @ [ ( Synth.Generator.huge ~seed:7 ~modules:100 (),
                Strategy.Multilevel ) ]))
  ]

let () =
  Alcotest.run "golden"
    [ ("outcomes", golden_tests); ("search-stats", search_stats_tests) ]
