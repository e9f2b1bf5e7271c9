(* Tests for the Prscope observability layer: log-bucketed histograms
   (bucket boundaries, merge associativity, deterministic percentiles),
   multi-domain counter/histogram hammering with exact merged totals,
   profile-tree rendering from synthetic traces, Prometheus exposition
   validation, the bench regression comparator, the sweep fan-out
   chunking, and a CLI integration run of `prpart profile`. *)

module T = Prtelemetry
module H = Prtelemetry.Histogram
module S = Prtelemetry.Scope
module Json = Prtelemetry.Json

let fake_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun dt -> now := !now +. dt)

(* A tiny deterministic generator so the property-style tests do not
   depend on global Random state. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || scan (i + 1)
  in
  scan 0

let lcg seed =
  let state = ref seed in
  fun () ->
    state := (!state * 1103515245) + 12345;
    !state land 0x3FFFFFFF

(* ------------------------------------------------------------ histogram *)

let histogram_tests =
  [ Alcotest.test_case "dead histogram records nothing" `Quick (fun () ->
        Alcotest.(check bool) "not live" false (H.live H.dead);
        H.observe H.dead 1.0;
        Alcotest.(check int) "count" 0 (H.count H.dead);
        Alcotest.(check (float 0.)) "quantile" 0. (H.quantile H.dead 0.5));
    Alcotest.test_case "bucket boundaries bracket every value" `Quick
      (fun () ->
        (* Walk a wide geometric range: each value must land in a bucket
           whose inclusive upper bound is >= the value and whose
           predecessor's bound is < the value. *)
        let v = ref 1e-9 in
        while !v < 1e9 do
          let i = H.index !v in
          Alcotest.(check bool)
            (Printf.sprintf "upper bound of %g" !v)
            true
            (H.upper_bound i >= !v);
          if i > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "lower bound of %g" !v)
              true
              (H.upper_bound (i - 1) < !v);
          v := !v *. 1.37
        done;
        (* The special buckets: non-positive values and +infinity. *)
        Alcotest.(check int) "zero bucket" (H.index 0.) (H.index (-5.));
        Alcotest.(check int) "zero is bucket 0" 0 (H.index 0.);
        Alcotest.(check int) "+inf in top bucket" (H.n_buckets - 1)
          (H.index Float.infinity));
    Alcotest.test_case "bucket index is monotone" `Quick (fun () ->
        let next = lcg 7 in
        for _ = 1 to 1000 do
          let a = float_of_int (next ()) /. 1024. in
          let b = float_of_int (next ()) /. 1024. in
          let lo = Float.min a b and hi = Float.max a b in
          Alcotest.(check bool) "monotone" true (H.index lo <= H.index hi)
        done);
    Alcotest.test_case "single observation is exact" `Quick (fun () ->
        List.iter
          (fun v ->
            let h = H.make () in
            H.observe h v;
            Alcotest.(check (float 0.)) "p50 = value" v (H.quantile h 0.5);
            Alcotest.(check (float 0.)) "max = value" v (H.max_value h);
            Alcotest.(check (float 0.)) "min = value" v (H.min_value h))
          [ 1e-6; 0.25; 1.0; 3.14159; 1234.5 ]);
    Alcotest.test_case "NaN ignored, extrema and sum exact" `Quick (fun () ->
        let h = H.make () in
        H.observe h Float.nan;
        List.iter (H.observe h) [ 2.0; 8.0; 4.0 ];
        Alcotest.(check int) "count" 3 (H.count h);
        Alcotest.(check (float 1e-9)) "sum" 14.0 (H.sum h);
        Alcotest.(check (float 1e-9)) "mean" (14. /. 3.) (H.mean h);
        Alcotest.(check (float 0.)) "min" 2.0 (H.min_value h);
        Alcotest.(check (float 0.)) "max" 8.0 (H.max_value h);
        Alcotest.(check (float 0.)) "p100 = max" 8.0 (H.quantile h 1.0));
    Alcotest.test_case "percentiles are deterministic and ordered" `Quick
      (fun () ->
        let fill () =
          let h = H.make () in
          for i = 1 to 1000 do
            H.observe h (float_of_int i)
          done;
          h
        in
        let a = fill () and b = fill () in
        List.iter
          (fun q ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "q=%.2f reproducible" q)
              (H.quantile a q) (H.quantile b q))
          [ 0.5; 0.9; 0.99; 1.0 ];
        (* Quantiles are within one bucket (12.5 % relative) of the true
           rank statistic, and monotone in q. *)
        let p50 = H.quantile a 0.5
        and p90 = H.quantile a 0.9
        and p99 = H.quantile a 0.99 in
        Alcotest.(check bool) "p50 near 500" true (p50 >= 500. && p50 <= 576.);
        Alcotest.(check bool) "p90 near 900" true (p90 >= 900. && p90 <= 1024.);
        Alcotest.(check bool) "ordered" true (p50 <= p90 && p90 <= p99);
        Alcotest.(check (float 0.)) "p100 is max" 1000. (H.quantile a 1.0));
    Alcotest.test_case "merge is associative and commutative" `Quick
      (fun () ->
        let next = lcg 42 in
        let observations () =
          List.init 200 (fun _ -> float_of_int (next ()) /. 4096.)
        in
        let of_list vs =
          let h = H.make () in
          List.iter (H.observe h) vs;
          h
        in
        let xs = observations ()
        and ys = observations ()
        and zs = observations () in
        let summary h =
          ( H.count h, H.sum h, H.min_value h, H.max_value h, H.buckets h,
            List.map (H.quantile h) [ 0.5; 0.9; 0.99 ] )
        in
        (* (x <- y) <- z *)
        let left = of_list xs in
        H.merge ~into:left (of_list ys);
        H.merge ~into:left (of_list zs);
        (* x <- (y <- z) *)
        let rhs = of_list ys in
        H.merge ~into:rhs (of_list zs);
        let right = of_list xs in
        H.merge ~into:right rhs;
        (* z <- y <- x (commuted) *)
        let commuted = of_list zs in
        H.merge ~into:commuted (of_list ys);
        H.merge ~into:commuted (of_list xs);
        (* one histogram fed everything *)
        let flat = of_list (xs @ ys @ zs) in
        Alcotest.(check bool) "associative" true (summary left = summary right);
        Alcotest.(check bool) "commutative" true
          (summary left = summary commuted);
        Alcotest.(check bool) "equals single-pass" true
          (summary left = summary flat));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let h = H.make () in
        H.observe h 1.0;
        let c = H.copy h in
        H.observe h 2.0;
        Alcotest.(check int) "copy unchanged" 1 (H.count c);
        Alcotest.(check int) "original grew" 2 (H.count h)) ]

(* -------------------------------------------- multi-domain determinism *)

(* The satellite property: any number of domains hammering counters and
   histograms on one shared handle — directly and via merged private
   worker handles — must aggregate to exact totals. *)
let prop_domain_hammer =
  QCheck2.Test.make ~name:"N-domain counter hammer merges to exact totals"
    ~count:15
    QCheck2.Gen.(triple (1 -- 4) (1 -- 2000) (1 -- 5))
    (fun (domains, per_domain, by) ->
      let shared = T.create (T.Sink.memory ()) in
      let c = T.counter shared "prop.count" in
      let h = T.histogram shared "prop.ms" in
      let worker () =
        let private_handle = T.create T.Sink.null in
        for i = 1 to per_domain do
          T.Counter.incr ~by c;
          T.incr shared "prop.by_name";
          H.observe h (float_of_int i);
          T.incr private_handle ~by "prop.private"
        done;
        private_handle
      in
      let workers =
        List.map Domain.join
          (List.init domains (fun _ -> Domain.spawn worker))
      in
      List.iter (fun w -> T.merge ~into:shared w) workers;
      let total = domains * per_domain in
      T.Counter.value c = total * by
      && T.counter_value shared "prop.by_name" = total
      && T.counter_value shared "prop.private" = total * by
      && H.count h = total)

let domain_tests =
  [ Alcotest.test_case "N domains hammering one handle, exact totals"
      `Quick (fun () ->
        let t = T.create (T.Sink.memory ()) in
        let domains = 4 and per_domain = 10_000 in
        let c = T.counter t "hammer.count" in
        let h = T.histogram t "hammer.ms" in
        Alcotest.(check bool) "registry histogram live" true (H.live h);
        let worker seed () =
          let next = lcg seed in
          for _ = 1 to per_domain do
            T.Counter.incr c;
            T.incr t ~by:2 "hammer.by_name";
            H.observe h (float_of_int (1 + (next () land 1023)))
          done
        in
        let spawned =
          List.init domains (fun i -> Domain.spawn (worker (i + 1)))
        in
        List.iter Domain.join spawned;
        Alcotest.(check int) "counter exact" (domains * per_domain)
          (T.Counter.value c);
        Alcotest.(check int) "named counter exact"
          (2 * domains * per_domain)
          (T.counter_value t "hammer.by_name");
        Alcotest.(check int) "histogram exact" (domains * per_domain)
          (H.count h));
    Alcotest.test_case "merged worker handles equal one shared handle"
      `Quick (fun () ->
        (* The engine's fan-out pattern: private counting handles folded
           back with Telemetry.merge must aggregate to the same totals
           as one shared handle. *)
        let shared = T.create T.Sink.null in
        let into = T.create T.Sink.null in
        let feed t base =
          T.incr t ~by:base "work.items";
          T.observe t "work.ms" (float_of_int base);
          T.set_gauge t "work.level" (float_of_int base)
        in
        List.iter (feed shared) [ 3; 5; 7 ];
        List.iter
          (fun base ->
            let w = T.create T.Sink.null in
            feed w base;
            T.merge ~into w)
          [ 3; 5; 7 ];
        Alcotest.(check int) "counters" (T.counter_value shared "work.items")
          (T.counter_value into "work.items");
        (* Gauges fill only when absent: the first worker's value wins. *)
        Alcotest.(check (option (float 0.))) "gauge" (Some 3.)
          (T.gauge_value into "work.level")) ]

(* ---------------------------------------------------------- span trees *)

let tree_tests =
  [ Alcotest.test_case "span tree nests, merges and ranks" `Quick (fun () ->
        let clock, advance = fake_clock () in
        let t = T.create ~clock (T.Sink.memory ()) in
        T.with_span t "solve" (fun () ->
            advance 0.010;
            T.with_span t "cluster" (fun () -> advance 0.020);
            T.with_span t "allocate" (fun () -> advance 0.030);
            T.with_span t "allocate" (fun () -> advance 0.050));
        let tree = S.span_tree (T.events t) in
        (match tree with
         | [ root ] ->
           Alcotest.(check string) "root" "solve" root.S.name;
           Alcotest.(check int) "one call" 1 root.S.calls;
           Alcotest.(check (float 1e-9)) "root total" 0.110 root.S.total_s;
           Alcotest.(check (float 1e-9)) "root self" 0.010 (S.self_s root);
           (match root.S.children with
            | [ cl; al ] ->
              Alcotest.(check string) "first child" "cluster" cl.S.name;
              Alcotest.(check string) "merged sibling" "allocate" al.S.name;
              Alcotest.(check int) "merged calls" 2 al.S.calls;
              Alcotest.(check (float 1e-9)) "merged total" 0.080 al.S.total_s
            | children ->
              Alcotest.failf "expected 2 children, got %d"
                (List.length children))
         | forest ->
           Alcotest.failf "expected 1 root, got %d" (List.length forest));
        (* Hot paths rank by self time: allocate 80ms, cluster 20ms,
           solve 10ms. *)
        (match S.hot_paths tree with
         | (n1, _, s1) :: (n2, _, _) :: (n3, _, _) :: _ ->
           Alcotest.(check string) "hottest" "allocate" n1;
           Alcotest.(check (float 1e-9)) "hottest self" 0.080 s1;
           Alcotest.(check string) "second" "cluster" n2;
           Alcotest.(check string) "third" "solve" n3
         | _ -> Alcotest.fail "expected three ranked spans");
        let rendered = S.render_tree tree in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "render contains %S" needle)
              true
              (contains rendered needle))
          [ "solve"; "  cluster"; "  allocate"; "100.0%" ]);
    Alcotest.test_case "report on a traced solve has every section" `Quick
      (fun () ->
        let t = T.create (T.Sink.memory ()) in
        let receiver = Prdesign.Design_library.video_receiver in
        (match
           Prcore.Engine.solve ~telemetry:t
             ~target:
               (Prcore.Engine.Budget Prdesign.Design_library.case_study_budget)
             receiver
         with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "case-study solve: %s" m);
        T.flush t;
        let report = S.report t in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "report contains %S" needle)
              true
              (contains report needle))
          [ "span tree"; "hot paths"; "span latency percentiles";
            "memo by candidate-set depth"; "per-domain profile";
            "engine.solve" ]);
    Alcotest.test_case "progress curve renders" `Quick (fun () ->
        Alcotest.(check string) "empty" "" (S.render_progress []);
        let rendered = S.render_progress [ (10, 500); (25, 420) ] in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "contains %S" needle)
              true
              (contains rendered needle))
          [ "search progress"; "10"; "420" ]) ]

(* ---------------------------------------------------------- exposition *)

let exposition_tests =
  [ Alcotest.test_case "exposition of a live handle validates" `Quick
      (fun () ->
        let clock, advance = fake_clock () in
        let t = T.create ~clock (T.Sink.memory ()) in
        T.incr t ~by:3 "alpha.count";
        T.set_gauge t "beta.level" 2.5;
        T.observe t "gamma.ms" 1.25;
        T.observe t "gamma.ms" 80.0;
        T.with_span t "delta" (fun () -> advance 0.004);
        let page = T.exposition t in
        (match S.check_exposition page with
         | Ok () -> ()
         | Error m -> Alcotest.failf "invalid exposition: %s" m);
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "page contains %S" needle)
              true
              (contains page needle))
          [ "# TYPE prpart_alpha_count counter"; "prpart_alpha_count 3";
            "prpart_beta_level 2.5"; "prpart_gamma_ms_count 2";
            "le=\"+Inf\""; "prpart_delta_seconds_count 1" ]);
    Alcotest.test_case "validator rejects broken pages" `Quick (fun () ->
        let reject page =
          match S.check_exposition page with
          | Ok () -> Alcotest.failf "accepted invalid page %S" page
          | Error _ -> ()
        in
        (* Non-cumulative buckets. *)
        reject
          "prpart_x_bucket{le=\"1\"} 5\nprpart_x_bucket{le=\"2\"} 3\n\
           prpart_x_bucket{le=\"+Inf\"} 5\nprpart_x_sum 7\nprpart_x_count 5\n";
        (* +Inf bucket disagrees with _count. *)
        reject
          "prpart_x_bucket{le=\"+Inf\"} 4\nprpart_x_sum 7\nprpart_x_count 5\n";
        (* Unparsable sample line. *)
        reject "prpart_x not-a-number\n") ]

(* ------------------------------------------------------------- regress *)

let obj fields = Json.Obj fields

let bench_doc ~moves ~speedup ~hit_rate =
  obj
    [ ( "allocator",
        obj [ ("moves_per_sec", Json.Float moves) ] );
      ("sweep", obj [ ("speedup", Json.Float speedup) ]);
      ("cache", obj [ ("hit_rate", Json.Float hit_rate) ]) ]

let regress_tests =
  [ Alcotest.test_case "flatten produces dotted numeric leaves" `Quick
      (fun () ->
        let doc =
          obj
            [ ("a", obj [ ("b", Json.Int 1); ("c", Json.Float 2.5) ]);
              ("skip", Json.String "text");
              ("list", Json.List [ Json.Int 9 ]);
              ("d", Json.Bool true);
              ("e", Json.Bool false) ]
        in
        Alcotest.(check (list (pair string (float 0.))))
          "flattened"
          [ ("a.b", 1.); ("a.c", 2.5); ("d", 1.); ("e", 0.) ]
          (Experiments.Regress.flatten doc));
    Alcotest.test_case "identical documents are all within" `Quick (fun () ->
        let doc = bench_doc ~moves:2.8e6 ~speedup:1.0 ~hit_rate:0.9 in
        let findings =
          Experiments.Regress.compare ~baseline:doc ~latest:doc ()
        in
        Alcotest.(check int) "three covered metrics" 3 (List.length findings);
        Alcotest.(check int) "no regressions" 0
          (List.length (Experiments.Regress.regressed findings)));
    Alcotest.test_case "synthetic regression fails loudly" `Quick (fun () ->
        let baseline = bench_doc ~moves:2.8e6 ~speedup:1.0 ~hit_rate:0.9 in
        (* Throughput halved: far outside the 30 % tolerance. *)
        let latest = bench_doc ~moves:1.4e6 ~speedup:1.0 ~hit_rate:0.9 in
        let findings =
          Experiments.Regress.compare ~baseline ~latest ()
        in
        (match Experiments.Regress.regressed findings with
         | [ f ] ->
           Alcotest.(check string) "key" "allocator.moves_per_sec" f.key;
           Alcotest.(check bool) "verdict" true
             (f.Experiments.Regress.verdict = Experiments.Regress.Regressed);
           Alcotest.(check (float 0.5)) "change" (-50.) f.change_pct
         | fs -> Alcotest.failf "expected 1 regression, got %d"
                   (List.length fs));
        Alcotest.(check bool) "render flags it" true
          (contains (Experiments.Regress.render findings) "REGRESSED"));
    Alcotest.test_case "improvement and jitter are not regressions" `Quick
      (fun () ->
        let baseline = bench_doc ~moves:2.0e6 ~speedup:1.0 ~hit_rate:0.9 in
        let latest = bench_doc ~moves:3.0e6 ~speedup:1.1 ~hit_rate:0.88 in
        let findings =
          Experiments.Regress.compare ~baseline ~latest ()
        in
        Alcotest.(check int) "no regressions" 0
          (List.length (Experiments.Regress.regressed findings));
        Alcotest.(check bool) "throughput improved" true
          (List.exists
             (fun f ->
               f.Experiments.Regress.verdict = Experiments.Regress.Improved)
             findings));
    Alcotest.test_case "zero-tolerance counters regress from a zero baseline"
      `Quick (fun () ->
        (* chaos.lost_replies / chaos.wrong_replies: baseline 0, any
           worse movement must regress despite the unexpressible
           percentage; a zero latest stays within; and a zero baseline
           under a non-zero tolerance rule stays lenient. *)
        let chaos_doc ~lost ~wrong =
          obj
            [ ( "chaos",
                obj
                  [ ("lost_replies", Json.Int lost);
                    ("wrong_replies", Json.Int wrong) ] ) ]
        in
        let clean = chaos_doc ~lost:0 ~wrong:0 in
        let findings =
          Experiments.Regress.compare ~baseline:clean
            ~latest:(chaos_doc ~lost:1 ~wrong:0) ()
        in
        (match Experiments.Regress.regressed findings with
         | [ f ] ->
           Alcotest.(check string) "key" "chaos.lost_replies"
             f.Experiments.Regress.key
         | fs ->
           Alcotest.failf "expected 1 regression, got %d" (List.length fs));
        Alcotest.(check int) "all-zero latest is clean" 0
          (List.length
             (Experiments.Regress.regressed
                (Experiments.Regress.compare ~baseline:clean ~latest:clean ())));
        let lenient =
          obj [ ("serve", obj [ ("qps", Json.Float 0.) ]) ]
        in
        let worse =
          obj [ ("serve", obj [ ("qps", Json.Float (-1.) ) ]) ]
        in
        Alcotest.(check int) "non-zero tolerance stays lenient at zero base" 0
          (List.length
             (Experiments.Regress.regressed
                (Experiments.Regress.compare ~baseline:lenient ~latest:worse
                   ()))));
    Alcotest.test_case "a true check that turns false regresses" `Quick
      (fun () ->
        List.iter
          (fun (section, key) ->
            let doc b = obj [ (section, obj [ (key, Json.Bool b) ]) ] in
            let regressions ~baseline ~latest =
              List.length
                (Experiments.Regress.regressed
                   (Experiments.Regress.compare ~baseline:(doc baseline)
                      ~latest:(doc latest) ()))
            in
            Alcotest.(check int) (key ^ " true -> false") 1
              (regressions ~baseline:true ~latest:false);
            Alcotest.(check int) (key ^ " true -> true") 0
              (regressions ~baseline:true ~latest:true);
            Alcotest.(check int) (key ^ " false -> true") 0
              (regressions ~baseline:false ~latest:true))
          [ ("sweep", "bit_identical");
            ("floorplan", "oracle_clean");
            ("guard", "deterministic") ]);
    Alcotest.test_case "evaluation counts must not move either way" `Quick
      (fun () ->
        List.iter
          (fun (section, key, base) ->
            let doc n = obj [ (section, obj [ (key, Json.Int n) ]) ] in
            let verdicts latest =
              List.map
                (fun f -> f.Experiments.Regress.verdict)
                (Experiments.Regress.compare ~baseline:(doc base)
                   ~latest:(doc latest) ())
            in
            let label = section ^ "." ^ key in
            Alcotest.(check bool) (label ^ " same") true
              (verdicts base = [ Experiments.Regress.Within ]);
            Alcotest.(check bool) (label ^ " fewer") true
              (verdicts (base - 1) = [ Experiments.Regress.Regressed ]);
            Alcotest.(check bool) (label ^ " more") true
              (verdicts (base + 1) = [ Experiments.Regress.Regressed ]))
          [ ("allocator", "moves_evaluated", 545_980);
            ("allocator", "delta_evals", 262_400);
            ("guard", "evals_used", 1610);
            ("guard", "evals_used", 0);
            ("multilevel", "levels", 2);
            ("m100", "merges", 100);
            ("m100", "trials", 10_357) ]);
    Alcotest.test_case "missing metric is a regression" `Quick (fun () ->
        let baseline = bench_doc ~moves:2.0e6 ~speedup:1.0 ~hit_rate:0.9 in
        let latest = obj [ ("sweep", obj [ ("speedup", Json.Float 1.0) ]) ] in
        let findings =
          Experiments.Regress.compare ~baseline ~latest ()
        in
        let missing =
          List.filter
            (fun f ->
              f.Experiments.Regress.verdict = Experiments.Regress.Missing)
            findings
        in
        Alcotest.(check int) "two missing" 2 (List.length missing);
        Alcotest.(check bool) "regressed includes missing" true
          (List.length (Experiments.Regress.regressed findings) >= 2)) ]

(* ------------------------------------------------------- sweep chunking *)

let chunk_tests =
  [ Alcotest.test_case "chunk covers, orders and balances" `Quick (fun () ->
        let next = lcg 11 in
        for _ = 1 to 100 do
          let n = next () mod 40 and blocks = 1 + (next () mod 12) in
          let xs = List.init n Fun.id in
          let chunks = Experiments.Sweep.chunk ~blocks xs in
          let flattened =
            List.concat_map Array.to_list chunks
          in
          Alcotest.(check (list int)) "order-preserving cover" xs flattened;
          Alcotest.(check bool) "at most blocks" true
            (List.length chunks <= max 1 blocks);
          List.iter
            (fun c ->
              Alcotest.(check bool) "non-empty" true (Array.length c > 0))
            chunks;
          let sizes = List.map Array.length chunks in
          match (sizes, n) with
          | [], 0 -> ()
          | sizes, _ ->
            let lo = List.fold_left min max_int sizes in
            let hi = List.fold_left max 0 sizes in
            Alcotest.(check bool) "balanced" true (hi - lo <= 1)
        done);
    Alcotest.test_case "parallel sweep rows are bit-identical" `Quick
      (fun () ->
        let seq = Experiments.Sweep.run ~count:5 ~jobs:1 () in
        let par = Experiments.Sweep.run ~count:5 ~jobs:4 () in
        Alcotest.(check bool) "identical rows" true (seq = par));
    Alcotest.test_case "traced sweep records per-design latencies" `Quick
      (fun () ->
        let t = T.create (T.Sink.memory ()) in
        let rows = Experiments.Sweep.run ~count:3 ~jobs:1 ~telemetry:t () in
        let h = T.histogram t "sweep.design_ms" in
        Alcotest.(check int) "one sample per row" (List.length rows)
          (H.count h)) ]

(* ----------------------------------------------------------------- CLI *)

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

let cli_tests =
  [ Alcotest.test_case "prpart profile renders the full report" `Quick
      (fun () ->
        let metrics = Filename.temp_file "prpart" ".metrics" in
        Fun.protect
          ~finally:(fun () -> Sys.remove metrics)
          (fun () ->
            let status, out, err =
              run_prpart
                [ "profile"; "video-receiver"; "--jobs"; "2"; "--metrics";
                  metrics ]
            in
            Alcotest.(check int) ("clean exit: " ^ err) 0 status;
            List.iter
              (fun needle ->
                Alcotest.(check bool)
                  (Printf.sprintf "stdout contains %S" needle)
                  true
                  (contains out needle))
              [ "span tree"; "hot paths"; "span latency percentiles";
                "memo by candidate-set depth"; "per-domain profile";
                "engine.solve"; "Best total frames" ];
            (* The exported metrics page must be structurally valid
               Prometheus text. *)
            match S.check_exposition (read_file metrics) with
            | Ok () -> ()
            | Error m -> Alcotest.failf "metrics page invalid: %s" m));
    Alcotest.test_case "prpart profile rejects unknown designs" `Quick
      (fun () ->
        let status, _, err = run_prpart [ "profile"; "no-such-design" ] in
        Alcotest.(check bool) "nonzero exit" true (status <> 0);
        Alcotest.(check bool) "error on stderr" true (String.length err > 0))
  ]

let () =
  Alcotest.run "scope"
    [ ("histogram", histogram_tests);
      ("domains",
        domain_tests @ [ QCheck_alcotest.to_alcotest prop_domain_hammer ]);
      ("tree", tree_tests);
      ("exposition", exposition_tests);
      ("regress", regress_tests);
      ("chunk", chunk_tests);
      ("cli", cli_tests) ]
