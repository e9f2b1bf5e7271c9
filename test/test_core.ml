(* Tests for the core partitioner: covering, compatibility, schemes, the
   cost model (paper eqs. 7-11), the allocator and the engine. *)

module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Base_partition = Cluster.Base_partition
module Agglomerative = Cluster.Agglomerative
module Covering = Prcore.Covering
module Compatibility = Prcore.Compatibility
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Allocator = Prcore.Allocator
module Engine = Prcore.Engine
module Resource = Fpga.Resource

let example = Design_library.running_example
let partitions = Agglomerative.run example
let res ?bram ?dsp clb = Resource.make ?bram ?dsp clb

(* Mode ids: A1=0 A2=1 A3=2 B1=3 B2=4 C1=5 C2=6 C3=7. *)
let singleton m =
  List.find
    (fun (p : Base_partition.t) -> p.modes = [ m ])
    partitions

let covering_tests =
  [ Alcotest.test_case "first candidate set is all singletons" `Quick
      (fun () ->
        (* The paper: the first candidate partition set is all the modes. *)
        match Covering.cover example partitions with
        | Some selected ->
          Alcotest.(check int) "eight partitions" 8 (List.length selected);
          Alcotest.(check bool) "all singletons" true
            (List.for_all
               (fun p -> Base_partition.cardinal p = 1)
               selected)
        | None -> Alcotest.fail "cover failed");
    Alcotest.test_case "removing the head pulls in a pair covering it" `Quick
      (fun () ->
        (* The paper removes the head singleton ({A2} in its ordering; {C2}
           in ours, which orders equal-frequency singletons by area) and
           re-covers: the removed mode must now come from a pair. *)
        let head_mode =
          match (List.hd partitions).Base_partition.modes with
          | [ m ] -> m
          | _ -> Alcotest.fail "head is not a singleton"
        in
        match Covering.cover example (List.tl partitions) with
        | Some selected ->
          let providers =
            List.filter (fun p -> Base_partition.mem head_mode p) selected
          in
          Alcotest.(check int) "one provider" 1 (List.length providers);
          Alcotest.(check bool) "it is a pair" true
            (Base_partition.cardinal (List.hd providers) = 2)
        | None -> Alcotest.fail "cover failed");
    Alcotest.test_case "uncoverable design returns None" `Quick (fun () ->
        (* Drop every partition containing mode A1. *)
        let partial =
          List.filter (fun p -> not (Base_partition.mem 0 p)) partitions
        in
        Alcotest.(check bool) "none" true
          (Covering.cover example partial = None));
    Alcotest.test_case "skips partitions that add nothing" `Quick (fun () ->
        (* With all singletons first, no pair ever covers a new mode. *)
        match Covering.cover example partitions with
        | Some selected ->
          Alcotest.(check bool) "no pairs selected" true
            (List.for_all (fun p -> Base_partition.cardinal p = 1) selected)
        | None -> Alcotest.fail "cover failed");
    Alcotest.test_case "candidate_sets are distinct and bounded" `Quick
      (fun () ->
        let sets = Covering.candidate_sets ~max_sets:10 example partitions in
        Alcotest.(check bool) "bounded" true (List.length sets <= 10);
        Alcotest.(check bool) "at least two" true (List.length sets >= 2);
        let keys =
          List.map
            (fun set -> List.map (fun (p : Base_partition.t) -> p.modes) set)
            sets
        in
        Alcotest.(check int) "distinct" (List.length keys)
          (List.length (List.sort_uniq compare keys)));
    Alcotest.test_case "every candidate set covers the design" `Quick
      (fun () ->
        List.iter
          (fun set ->
            let analysis =
              Compatibility.analyse example (Array.of_list set)
            in
            Alcotest.(check bool) "covers" true
              (Compatibility.covers_design analysis))
          (Covering.candidate_sets example partitions)) ]

module Cfgset = Prgraph.Cfgset

(* Two partitions may share a region iff their activity sets are
   disjoint; a partition is self-compatible only when never active. *)
let compatible analysis p q =
  Cfgset.disjoint
    (Compatibility.activity analysis p)
    (Compatibility.activity analysis q)

let compatible_all analysis group =
  List.for_all
    (fun p -> List.for_all (fun q -> p >= q || compatible analysis p q) group)
    group

let compatibility_tests =
  [ Alcotest.test_case "activity of singletons mirrors the matrix" `Quick
      (fun () ->
        let arr = Array.of_list (List.map singleton [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
        let analysis = Compatibility.analyse example arr in
        (* A1 (index 0 in arr) is in configurations 2 and 4 (conf2, conf4). *)
        Alcotest.(check (list int)) "A1 active" [ 1; 3 ]
          (Cfgset.elements (Compatibility.activity analysis 0));
        Alcotest.(check (list int)) "B2 active" [ 0; 2; 3; 4 ]
          (Cfgset.elements (Compatibility.activity analysis 4)));
    Alcotest.test_case "same-module modes are compatible" `Quick (fun () ->
        let arr = Array.of_list (List.map singleton [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
        let analysis = Compatibility.analyse example arr in
        (* A1 and A2 never co-occur. *)
        Alcotest.(check bool) "A1/A2" true (compatible analysis 0 1));
    Alcotest.test_case "co-occurring modes are incompatible" `Quick (fun () ->
        let arr = Array.of_list (List.map singleton [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
        let analysis = Compatibility.analyse example arr in
        (* A1 and B1 share conf2. *)
        Alcotest.(check bool) "A1/B1" false
          (compatible analysis 0 3));
    Alcotest.test_case "self-compatibility only when inactive" `Quick
      (fun () ->
        let arr = Array.of_list (List.map singleton [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
        let analysis = Compatibility.analyse example arr in
        Alcotest.(check bool) "active bp not self-compatible" false
          (compatible analysis 0 0));
    Alcotest.test_case "greedy picks the best-covering cluster" `Quick
      (fun () ->
        (* Whole-configuration clusters: each config activates exactly its
           own cluster even though clusters overlap heavily. *)
        let matrix = Prgraph.Conn_matrix.make example in
        let clusters =
          List.init (Design.configuration_count example) (fun c ->
              let modes = Design.config_mode_ids example c in
              Base_partition.make example ~modes
                ~freq:(Prgraph.Conn_matrix.support matrix modes))
        in
        let analysis = Compatibility.analyse example (Array.of_list clusters) in
        for c = 0 to Design.configuration_count example - 1 do
          List.iteri
            (fun i _ ->
              Alcotest.(check bool)
                (Printf.sprintf "cluster %d active only in config %d" i c)
                (i = c)
                (Compatibility.active analysis ~bp:i ~config:c))
            clusters
        done);
    Alcotest.test_case "ties go to the earliest partition" `Quick (fun () ->
        (* conf2 = {A1, B1, C1}; each pair-cluster covers two of its
           modes. The earliest takes the first pick, the next-earliest the
           remaining mode, and the last cluster loses both ties. *)
        let pair modes = Base_partition.make example ~modes ~freq:1 in
        let ab = pair [ 0; 3 ] and bc = pair [ 3; 5 ] and ac = pair [ 0; 5 ] in
        let active_lists order =
          let analysis = Compatibility.analyse example (Array.of_list order) in
          List.mapi
            (fun i _ -> Cfgset.elements (Compatibility.activity analysis i))
            order
        in
        Alcotest.(check (list (list int))) "ab, bc, ac"
          [ [ 1; 3 ]; [ 1; 2 ]; [] ]
          (active_lists [ ab; bc; ac ]);
        Alcotest.(check (list (list int))) "ac, bc, ab"
          [ [ 1; 2; 3 ]; [ 1 ]; [] ]
          (active_lists [ ac; bc; ab ]));
    Alcotest.test_case "covers_design false for partial lists" `Quick
      (fun () ->
        let arr = Array.of_list [ singleton 0; singleton 4 ] in
        Alcotest.(check bool) "partial" false
          (Compatibility.covers_design (Compatibility.analyse example arr)));
    Alcotest.test_case "compatible_all over a group" `Quick (fun () ->
        let arr = Array.of_list (List.map singleton [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
        let analysis = Compatibility.analyse example arr in
        (* {A1,A2,A3} pairwise compatible (same module). *)
        Alcotest.(check bool) "A modes" true
          (compatible_all analysis [ 0; 1; 2 ]);
        Alcotest.(check bool) "A1,B1 conflict inside" false
          (compatible_all analysis [ 0; 1; 3 ])) ]

let all_separate () =
  (* One region per mode, regions numbered by flat mode id. *)
  Scheme.make_exn example
    (List.mapi (fun i m -> (singleton m, Scheme.Region i)) [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let scheme_tests =
  [ Alcotest.test_case "all-separate scheme validates" `Quick (fun () ->
        let s = all_separate () in
        Alcotest.(check int) "regions" 8 s.Scheme.region_count);
    Alcotest.test_case "region area is the max over members" `Quick (fun () ->
        (* A2 (400 clb, 2 bram, 4 dsp) and B1 (350 clb, 3 bram, 6 dsp)
           never co-occur: sharing a region costs max per component. *)
        let s =
          (* A2 and B1 share region 0; everything else gets its own. *)
          let next = ref 0 in
          Scheme.make_exn example
            (List.map
               (fun m ->
                 let p = singleton m in
                 if m = 1 || m = 3 then (p, Scheme.Region 0)
                 else begin
                   incr next;
                   (p, Scheme.Region !next)
                 end)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        in
        Alcotest.(check bool) "region 0 = max(A2,B1)" true
          (Resource.equal
             (Scheme.region_resources s 0)
             (res 400 ~bram:3 ~dsp:6)));
    Alcotest.test_case "conflicting placement rejected" `Quick (fun () ->
        (* A1 and B1 co-occur in conf2: same region must be rejected. *)
        let assignment =
          let next = ref 0 in
          List.map
            (fun m ->
              let p = singleton m in
              if m = 0 || m = 3 then (p, Scheme.Region 0)
              else begin
                incr next;
                (p, Scheme.Region !next)
              end)
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        match Scheme.make example assignment with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected validation failure");
    Alcotest.test_case "empty region rejected" `Quick (fun () ->
        let assignment =
          List.mapi (fun i m -> (singleton m, Scheme.Region (i + 1)))
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        match Scheme.make example assignment with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected validation failure (region 0 empty)");
    Alcotest.test_case "uncovered design rejected" `Quick (fun () ->
        match Scheme.make example [ (singleton 0, Scheme.Region 0) ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected validation failure");
    Alcotest.test_case "static members and resources" `Quick (fun () ->
        let s =
          Scheme.make_exn example
            (List.mapi
               (fun i m ->
                 let p = singleton m in
                 if i < 2 then (p, Scheme.Static) else (p, Scheme.Region (i - 2)))
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        in
        Alcotest.(check (list int)) "static" [ 0; 1 ] (Scheme.static_members s);
        (* A1 100 clb + A2 400 clb 2 bram 4 dsp + 2 dsp from A1. *)
        Alcotest.(check bool) "static sums" true
          (Resource.equal (Scheme.static_resources s) (res 500 ~bram:2 ~dsp:6)));
    Alcotest.test_case "active_partition reflects configurations" `Quick
      (fun () ->
        let s = all_separate () in
        (* Region 0 hosts {A1}; conf1 (index 0) uses A3, so region 0 idles. *)
        Alcotest.(check (option int)) "idle" None
          (Scheme.active_partition s ~config:0 ~region:0);
        Alcotest.(check (option int)) "active in conf2" (Some 0)
          (Scheme.active_partition s ~config:1 ~region:0));
    Alcotest.test_case "reconfigurable_resources are quantised sums" `Quick
      (fun () ->
        let s = all_separate () in
        let expected =
          List.fold_left
            (fun acc m ->
              Resource.add acc
                (Fpga.Tile.quantize (Design.mode_resources example m)))
            Resource.zero [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        Alcotest.(check bool) "sum" true
          (Resource.equal (Scheme.reconfigurable_resources s) expected)) ]

let reference_tests =
  [ Alcotest.test_case "single_region has one region" `Quick (fun () ->
        let s = Scheme.single_region example in
        Alcotest.(check int) "regions" 1 s.Scheme.region_count;
        Alcotest.(check int) "five clusters" 5 (Array.length s.Scheme.partitions));
    Alcotest.test_case "single_region area = largest configuration" `Quick
      (fun () ->
        let s = Scheme.single_region example in
        Alcotest.(check bool) "min region requirement" true
          (Resource.equal
             (Scheme.region_resources s 0)
             (Design.min_region_requirement example)));
    Alcotest.test_case "single_region: every transition reconfigures" `Quick
      (fun () ->
        let e = Cost.evaluate (Scheme.single_region example) in
        let configs = Design.configuration_count example in
        Alcotest.(check int) "conflicts = all pairs"
          (configs * (configs - 1) / 2)
          e.Cost.region_conflicts.(0);
        Alcotest.(check int) "worst = region frames"
          e.Cost.region_frames.(0) e.Cost.worst_frames);
    Alcotest.test_case "one_module_per_region groups by module" `Quick
      (fun () ->
        let s = Scheme.one_module_per_region example in
        Alcotest.(check int) "three regions" 3 s.Scheme.region_count;
        (* Region of module A sized for its largest mode A2. *)
        Alcotest.(check bool) "A region" true
          (Resource.equal (Scheme.region_resources s 0) (res 400 ~bram:2 ~dsp:4)));
    Alcotest.test_case "fully_static has zero cost and max area" `Quick
      (fun () ->
        let e = Cost.evaluate (Scheme.fully_static example) in
        Alcotest.(check int) "total" 0 e.Cost.total_frames;
        Alcotest.(check int) "worst" 0 e.Cost.worst_frames;
        Alcotest.(check bool) "area = static requirement" true
          (Resource.equal e.Cost.used (Design.static_requirement example)));
    Alcotest.test_case "duplicate configuration contents collapse" `Quick
      (fun () ->
        let d =
          Design.create_exn ~name:"dup"
            ~modules:
              [ Prdesign.Pmodule.make "A"
                  [ Prdesign.Mode.make "a1" (res 10);
                    Prdesign.Mode.make "a2" (res 20) ] ]
            ~configurations:
              [ Prdesign.Configuration.make "c1" [ (0, 0) ];
                Prdesign.Configuration.make "c2" [ (0, 1) ];
                Prdesign.Configuration.make "c3" [ (0, 0) ] ]
            ()
        in
        let s = Scheme.single_region d in
        Alcotest.(check int) "two clusters" 2 (Array.length s.Scheme.partitions))
  ]

let cost_tests =
  [ Alcotest.test_case "all-separate scheme costs zero" `Quick (fun () ->
        (* The paper: one base partition per region is equivalent to the
           static implementation - minimum reconfiguration time. *)
        let e = Cost.evaluate (all_separate ()) in
        Alcotest.(check int) "total" 0 e.Cost.total_frames;
        Alcotest.(check int) "worst" 0 e.Cost.worst_frames);
    Alcotest.test_case "total = sum of region frames x conflicts" `Quick
      (fun () ->
        let s = Scheme.one_module_per_region example in
        let e = Cost.evaluate s in
        let manual = ref 0 in
        Array.iteri
          (fun r f -> manual := !manual + (f * e.Cost.region_conflicts.(r)))
          e.Cost.region_frames;
        Alcotest.(check int) "decomposition" !manual e.Cost.total_frames);
    Alcotest.test_case "total = sum of pairwise transitions" `Quick (fun () ->
        let s = Scheme.one_module_per_region example in
        let e = Cost.evaluate s in
        let configs = Design.configuration_count example in
        let total = ref 0 in
        for i = 0 to configs - 1 do
          for j = i + 1 to configs - 1 do
            total := !total + Cost.pairwise_frames s i j
          done
        done;
        Alcotest.(check int) "eq 7/10" !total e.Cost.total_frames);
    Alcotest.test_case "worst = max pairwise transition" `Quick (fun () ->
        let s = Scheme.one_module_per_region example in
        let e = Cost.evaluate s in
        let configs = Design.configuration_count example in
        let worst = ref 0 in
        for i = 0 to configs - 1 do
          for j = i + 1 to configs - 1 do
            worst := max !worst (Cost.pairwise_frames s i j)
          done
        done;
        Alcotest.(check int) "eq 11" !worst e.Cost.worst_frames);
    Alcotest.test_case "transition matrix symmetric, zero diagonal" `Quick
      (fun () ->
        let s = Scheme.one_module_per_region example in
        let m = Cost.transition_matrix s in
        Array.iteri
          (fun i row ->
            Alcotest.(check int) "diag" 0 row.(i);
            Array.iteri
              (fun j v -> Alcotest.(check int) "symmetric" v m.(j).(i))
              row)
          m);
    Alcotest.test_case "don't-care regions cost nothing" `Quick (fun () ->
        (* Montone example: two disjoint configurations. One module per
           region means every region idles in one of the two configs, so
           pairwise cost counts no region at all. *)
        let d = Design_library.montone_example in
        let e = Cost.evaluate (Scheme.one_module_per_region d) in
        Alcotest.(check int) "no required reconfigurations" 0
          e.Cost.total_frames);
    Alcotest.test_case "fits compares against a budget" `Quick (fun () ->
        let e = Cost.evaluate (Scheme.one_module_per_region example) in
        Alcotest.(check bool) "big budget" true
          (Cost.fits e ~budget:(res 100_000 ~bram:1000 ~dsp:1000));
        Alcotest.(check bool) "tiny budget" false
          (Cost.fits e ~budget:(res 10)));
    Alcotest.test_case "pairwise range checked" `Quick (fun () ->
        let s = Scheme.single_region example in
        match Cost.pairwise_frames s 0 99 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

let big_budget = res 100_000 ~bram:1_000 ~dsp:1_000

let allocator_tests =
  [ Alcotest.test_case "loose budget keeps everything separate" `Quick
      (fun () ->
        let singles =
          List.filter (fun p -> Base_partition.cardinal p = 1) partitions
        in
        match Allocator.allocate ~budget:big_budget example singles with
        | Some s ->
          let e = Cost.evaluate s in
          Alcotest.(check int) "zero time" 0 e.Cost.total_frames
        | None -> Alcotest.fail "expected a scheme");
    Alcotest.test_case "tight budget forces merging but stays feasible"
      `Quick (fun () ->
        let singles =
          List.filter (fun p -> Base_partition.cardinal p = 1) partitions
        in
        let budget = res 1400 ~bram:16 ~dsp:32 in
        match Allocator.allocate ~budget example singles with
        | Some s ->
          let e = Cost.evaluate s in
          Alcotest.(check bool) "fits" true (Cost.fits e ~budget)
        | None -> Alcotest.fail "expected a scheme");
    Alcotest.test_case "impossible budget returns None" `Quick (fun () ->
        let singles =
          List.filter (fun p -> Base_partition.cardinal p = 1) partitions
        in
        Alcotest.(check bool) "none" true
          (Allocator.allocate ~budget:(res 100) example singles = None));
    Alcotest.test_case "uncovering candidate set returns None" `Quick
      (fun () ->
        Alcotest.(check bool) "none" true
          (Allocator.allocate ~budget:big_budget example [ singleton 0 ] = None));
    Alcotest.test_case "empty candidate set returns None" `Quick (fun () ->
        Alcotest.(check bool) "none" true
          (Allocator.allocate ~budget:big_budget example [] = None));
    Alcotest.test_case "no-promotion option keeps static empty" `Quick
      (fun () ->
        let singles =
          List.filter (fun p -> Base_partition.cardinal p = 1) partitions
        in
        let options = { Allocator.default_options with promote_static = false } in
        let budget = res 1400 ~bram:16 ~dsp:32 in
        match Allocator.allocate ~options ~budget example singles with
        | Some s ->
          Alcotest.(check (list int)) "no statics" [] (Scheme.static_members s)
        | None -> ());
    Alcotest.test_case "restarts never hurt" `Quick (fun () ->
        let singles =
          List.filter (fun p -> Base_partition.cardinal p = 1) partitions
        in
        let budget = res 1350 ~bram:16 ~dsp:32 in
        let total options =
          match Allocator.allocate ~options ~budget example singles with
          | Some s -> (Cost.evaluate s).Cost.total_frames
          | None -> max_int
        in
        let without = total { Allocator.default_options with max_restarts = 0 } in
        let with_r = total { Allocator.default_options with max_restarts = 12 } in
        Alcotest.(check bool) "restarts <= greedy" true (with_r <= without)) ]

let engine_tests =
  [ Alcotest.test_case "budget too small even for single region" `Quick
      (fun () ->
        match Engine.solve ~target:(Engine.Budget (res 50)) example with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected infeasibility");
    Alcotest.test_case "huge budget gives zero reconfiguration time" `Quick
      (fun () ->
        match Engine.solve ~target:(Engine.Budget big_budget) example with
        | Ok o ->
          Alcotest.(check int) "zero" 0 o.Engine.evaluation.Cost.total_frames
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "result always fits the budget" `Quick (fun () ->
        List.iter
          (fun budget ->
            match Engine.solve ~target:(Engine.Budget budget) example with
            | Ok o ->
              Alcotest.(check bool) "fits" true
                (Cost.fits o.Engine.evaluation ~budget)
            | Error _ -> ())
          [ res 700 ~bram:4 ~dsp:8;
            res 1000 ~bram:6 ~dsp:10;
            res 1500 ~bram:10 ~dsp:16 ]);
    Alcotest.test_case "proposed never worse than single region" `Quick
      (fun () ->
        let single = (Cost.evaluate (Scheme.single_region example)).Cost.total_frames in
        List.iter
          (fun budget ->
            match Engine.solve ~target:(Engine.Budget budget) example with
            | Ok o ->
              Alcotest.(check bool) "<= single region" true
                (o.Engine.evaluation.Cost.total_frames <= single)
            | Error _ -> ())
          [ res 700 ~bram:4 ~dsp:8; res 900 ~bram:8 ~dsp:16 ]);
    Alcotest.test_case "fixed device target" `Quick (fun () ->
        let device = Fpga.Device.find_exn "LX30" in
        match Engine.solve ~target:(Engine.Fixed device) example with
        | Ok o ->
          (match o.Engine.device with
           | Some d -> Alcotest.(check string) "device" "LX30" d.Fpga.Device.short
           | None -> Alcotest.fail "device missing");
          Alcotest.(check bool) "budget = device resources" true
            (Resource.equal o.Engine.budget (Fpga.Device.resources device))
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "auto picks a device and solves" `Quick (fun () ->
        match Engine.solve ~target:Engine.Auto example with
        | Ok o ->
          Alcotest.(check bool) "device set" true (o.Engine.device <> None);
          Alcotest.(check bool) "fits" true
            (Cost.fits o.Engine.evaluation ~budget:o.Engine.budget)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "auto rejects monster designs" `Quick (fun () ->
        let d =
          Design.create_exn ~name:"monster"
            ~modules:
              [ Prdesign.Pmodule.make "A"
                  [ Prdesign.Mode.make "a" (res 1_000_000) ] ]
            ~configurations:[ Prdesign.Configuration.make "c" [ (0, 0) ] ]
            ()
        in
        match Engine.solve ~target:Engine.Auto d with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected infeasibility");
    Alcotest.test_case "is_single_region_like" `Quick (fun () ->
        Alcotest.(check bool) "single" true
          (Engine.is_single_region_like (Scheme.single_region example));
        Alcotest.(check bool) "modular" false
          (Engine.is_single_region_like (Scheme.one_module_per_region example)));
    Alcotest.test_case "min-edge rule also solves the case study" `Quick
      (fun () ->
        let options =
          { Engine.default_options with freq_rule = Agglomerative.Min_edge }
        in
        match
          Engine.solve ~options
            ~target:(Engine.Budget Design_library.case_study_budget)
            Design_library.video_receiver
        with
        | Ok o ->
          Alcotest.(check bool) "fits" true
            (Cost.fits o.Engine.evaluation
               ~budget:Design_library.case_study_budget)
        | Error m -> Alcotest.fail m) ]

(* Paper-anchored end-to-end numbers (see EXPERIMENTS.md). *)
let case_study_tests =
  [ Alcotest.test_case "receiver beats modular by a few percent" `Quick
      (fun () ->
        let d = Design_library.video_receiver in
        let budget = Design_library.case_study_budget in
        match Engine.solve ~target:(Engine.Budget budget) d with
        | Ok o ->
          let modular =
            (Cost.evaluate (Scheme.one_module_per_region d)).Cost.total_frames
          in
          let proposed = o.Engine.evaluation.Cost.total_frames in
          Alcotest.(check bool) "strictly better" true (proposed < modular);
          let gain =
            100. *. float_of_int (modular - proposed) /. float_of_int modular
          in
          Alcotest.(check bool) "2%..15% (paper: 4%)" true
            (gain > 2. && gain < 15.)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "alt receiver beats modular (paper: 6%)" `Quick
      (fun () ->
        let d = Design_library.video_receiver_alt in
        let budget = Design_library.case_study_budget in
        match Engine.solve ~target:(Engine.Budget budget) d with
        | Ok o ->
          let modular =
            (Cost.evaluate (Scheme.one_module_per_region d)).Cost.total_frames
          in
          Alcotest.(check bool) "strictly better" true
            (o.Engine.evaluation.Cost.total_frames < modular)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "receiver modular total within 5% of paper's 244872"
      `Quick (fun () ->
        let d = Design_library.video_receiver in
        let total =
          (Cost.evaluate (Scheme.one_module_per_region d)).Cost.total_frames
        in
        let err =
          Float.abs (float_of_int total -. 244_872.) /. 244_872.
        in
        Alcotest.(check bool) "close to paper" true (err < 0.05)) ]

(* Properties on synthetic designs: the engine's output is always valid. *)
let gen_seed = QCheck2.Gen.(0 -- 5_000)

let synth_design seed =
  Synth.Generator.generate (Synth.Rng.make seed)
    Synth.Generator.Dsp_memory_intensive ~index:seed

let prop_engine_fits =
  QCheck2.Test.make ~name:"auto solve fits its device" ~count:40 gen_seed
    (fun seed ->
      match Engine.solve ~target:Engine.Auto (synth_design seed) with
      | Ok o -> Cost.fits o.Engine.evaluation ~budget:o.Engine.budget
      | Error _ -> QCheck2.assume_fail ())

let prop_engine_beats_single =
  QCheck2.Test.make ~name:"auto solve <= single region total" ~count:40
    gen_seed (fun seed ->
      let d = synth_design seed in
      match Engine.solve ~target:Engine.Auto d with
      | Ok o ->
        o.Engine.evaluation.Cost.total_frames
        <= (Cost.evaluate (Scheme.single_region d)).Cost.total_frames
      | Error _ -> QCheck2.assume_fail ())

let prop_scheme_valid_by_construction =
  QCheck2.Test.make ~name:"engine scheme revalidates" ~count:40 gen_seed
    (fun seed ->
      let d = synth_design seed in
      match Engine.solve ~target:Engine.Auto d with
      | Ok o ->
        let s = o.Engine.scheme in
        let assignment =
          List.mapi
            (fun i bp -> (bp, s.Scheme.placement.(i)))
            (Array.to_list s.Scheme.partitions)
        in
        Result.is_ok (Scheme.make d assignment)
      | Error _ -> QCheck2.assume_fail ())

(* A design spanning three activity-mask words: every design of the
   library and the benchmark has far fewer than 63 configurations, so
   only this one runs the multi-word path end to end. *)
let wide_design =
  let spec =
    { Synth.Generator.default_spec with
      modules = (4, 4);
      modes = (3, 3);
      extra_configs = (260, 260) }
  in
  Synth.Generator.generate ~spec (Synth.Rng.make 3)
    Synth.Generator.Logic_intensive ~index:0

let wide_design_tests =
  [ Alcotest.test_case "over 126 configurations: matrix, activity, solves"
      `Quick (fun () ->
        let design = wide_design in
        let configs = Design.configuration_count design in
        Alcotest.(check bool) "three mask words" true (configs > 126);
        let rows = Array.init configs (Design.config_mode_ids design) in
        let recount modes =
          Array.fold_left
            (fun acc row ->
              if List.for_all (fun m -> List.mem m row) modes then acc + 1
              else acc)
            0 rows
        in
        let matrix = Prgraph.Conn_matrix.make design in
        let modes = Design.mode_count design in
        for i = 0 to modes - 1 do
          for j = 0 to modes - 1 do
            Alcotest.(check int)
              (Printf.sprintf "edge %d-%d" i j)
              (recount [ i; j ])
              (Prgraph.Conn_matrix.edge_weight matrix i j)
          done
        done;
        Alcotest.(check int) "support []" configs
          (Prgraph.Conn_matrix.support matrix []);
        Array.iteri
          (fun c row ->
            let rec prefixes acc = function
              | [] -> ()
              | m :: rest ->
                let set = acc @ [ m ] in
                Alcotest.(check int)
                  (Printf.sprintf "support of config %d prefix" c)
                  (recount set)
                  (Prgraph.Conn_matrix.support matrix set);
                prefixes set rest
            in
            prefixes [] row)
          rows;
        let nodes = Prcore.Multilevel.nodes design in
        let analysis = Compatibility.analyse design (Array.of_list nodes) in
        List.iteri
          (fun p _ ->
            let set = Compatibility.activity analysis p in
            for c = 0 to configs - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "activity %d in config %d" p c)
                (Compatibility.active analysis ~bp:p ~config:c)
                (Cfgset.mem set c)
            done)
          nodes;
        List.iter
          (fun strategy ->
            match Engine.solve ~strategy ~target:Engine.Auto design with
            | Error m -> Alcotest.fail m
            | Ok outcome ->
              Alcotest.(check bool)
                (Prcore.Strategy.to_string strategy ^ " passes the checker")
                true
                (Prverify.Diagnostic.ok
                   (Prverify.Checker.check_outcome outcome)))
          [ Prcore.Strategy.Greedy; Prcore.Strategy.Multilevel ]) ]

let () =
  Alcotest.run "core"
    [ ("covering", covering_tests);
      ("compatibility", compatibility_tests);
      ("scheme", scheme_tests);
      ("references", reference_tests);
      ("cost", cost_tests);
      ("allocator", allocator_tests);
      ("engine", engine_tests);
      ("case-study", case_study_tests);
      ("wide-design", wide_design_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_engine_fits; prop_engine_beats_single;
            prop_scheme_valid_by_construction ] ) ]
