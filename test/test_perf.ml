(* Prspeed tests: the incremental cost kernels against their
   from-scratch references, the canonical signatures, the Par ordered map,
   and the determinism of the parallel engine and sweep. *)

module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Base_partition = Cluster.Base_partition
module Agglomerative = Cluster.Agglomerative
module Covering = Prcore.Covering
module Compatibility = Prcore.Compatibility
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Allocator = Prcore.Allocator
module Anneal = Prcore.Anneal
module Exact = Prcore.Exact
module Engine = Prcore.Engine
module Memo = Prcore.Memo
module Resource = Fpga.Resource

let example = Design_library.running_example
let partitions = Agglomerative.run example
let res ?bram ?dsp clb = Resource.make ?bram ?dsp clb

(* A tiny deterministic RNG for driving move sequences. *)
let lcg seed =
  let s = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 0 then 0 else !s mod bound

let gen_design =
  QCheck2.Gen.(
    map
      (fun seed ->
        let classes = Array.of_list Synth.Generator.all_classes in
        Synth.Generator.generate
          (Synth.Rng.make seed)
          classes.(seed mod Array.length classes)
          ~index:seed)
      (0 -- 20_000))

let covering_set design =
  match Covering.cover design (Agglomerative.run design) with
  | Some set -> set
  | None -> []

(* ------------------------------------------------------------------ *)
(* Par: the ordered map primitive. *)

let par_tests =
  [ Alcotest.test_case "map_array matches Array.map for any jobs" `Quick
      (fun () ->
        let f x = (x * x) - (3 * x) + 1 in
        List.iter
          (fun n ->
            let input = Array.init n (fun i -> i - 7) in
            let expected = Array.map f input in
            List.iter
              (fun jobs ->
                Alcotest.(check (array int))
                  (Printf.sprintf "n=%d jobs=%d" n jobs)
                  expected
                  (Par.map_array ~jobs f input))
              [ 1; 2; 4 ])
          [ 0; 1; 7; 100 ]);
    Alcotest.test_case "map_list preserves order under contention" `Quick
      (fun () ->
        let input = List.init 200 Fun.id in
        Alcotest.(check (list int))
          "ordered" (List.map succ input)
          (Par.map_list ~jobs:4 succ input));
    Alcotest.test_case "lowest-index exception wins" `Quick (fun () ->
        let f i = if i >= 3 then failwith (string_of_int i) else i in
        List.iter
          (fun jobs ->
            match Par.map_array ~jobs f (Array.init 10 Fun.id) with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure s ->
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d" jobs)
                "3" s)
          [ 1; 2; 4 ]);
    Alcotest.test_case "pool is reusable and shutdown idempotent" `Quick
      (fun () ->
        let pool = Par.Pool.create ~jobs:3 () in
        let a = Par.Pool.map_array pool succ [| 1; 2; 3 |] in
        let b = Par.Pool.map_array pool succ [| 4; 5 |] in
        Par.Pool.shutdown pool;
        Par.Pool.shutdown pool;
        (* After shutdown, maps fall back to the inline path. *)
        let c = Par.Pool.map_array pool succ [| 6 |] in
        Alcotest.(check (array int)) "first" [| 2; 3; 4 |] a;
        Alcotest.(check (array int)) "second" [| 5; 6 |] b;
        Alcotest.(check (array int)) "inline" [| 7 |] c);
    Alcotest.test_case "recommended_jobs is at least one" `Quick (fun () ->
        Alcotest.(check bool) "positive" true (Par.recommended_jobs () >= 1))
  ]

(* ------------------------------------------------------------------ *)
(* Memo: signature canonicalisation. *)

let memo_tests =
  [ Alcotest.test_case "grouping signature is order-invariant" `Quick
      (fun () ->
        let parts = Array.of_list partitions in
        let s1 =
          Memo.grouping_signature ~parts ~statics:[ 3 ]
            ~groups:[ [ 0; 1 ]; [ 2 ] ]
        in
        let s2 =
          Memo.grouping_signature ~parts ~statics:[ 3 ]
            ~groups:[ [ 2 ]; [ 1; 0 ] ]
        in
        let s3 =
          Memo.grouping_signature ~parts ~statics:[ 3 ]
            ~groups:[ [ 0; 2 ]; [ 1 ] ]
        in
        Alcotest.(check string) "permutation invariant" s1 s2;
        Alcotest.(check bool) "groupings distinguished" true (s1 <> s3));
    Alcotest.test_case "scheme signature ignores region numbering" `Quick
      (fun () ->
        let set = covering_set example in
        let n = List.length set in
        let assign order =
          Scheme.make example
            (List.mapi
               (fun p bp -> (bp, Scheme.Region (order p)))
               set)
        in
        (* One partition per region under two different numberings: the
           same allocation up to region ids. *)
        match (assign Fun.id, assign (fun p -> n - 1 - p)) with
        | Ok a, Ok b ->
          Alcotest.(check bool) "nonempty" true (n > 0);
          Alcotest.(check string)
            "renumbered schemes share a signature"
            (Memo.scheme_signature a) (Memo.scheme_signature b)
        | _ -> Alcotest.fail "scheme construction failed")
  ]

(* ------------------------------------------------------------------ *)
(* Incremental kernels vs from-scratch references. *)

let prop_allocator_delta =
  QCheck2.Test.make
    ~name:"allocator conflict cache matches recomputation over move walks"
    ~count:60
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      match Allocator.Search.initial design (covering_set design) with
      | None -> QCheck2.assume_fail ()
      | Some state ->
        let rand = lcg seed in
        let ok = ref true in
        let check_regions () =
          for r = 0 to Allocator.Search.region_count state - 1 do
            if
              Allocator.Search.alive state r
              && Allocator.Search.region_conflicts state r
                 <> Allocator.Search.recompute_conflicts state r
            then ok := false
          done
        in
        check_regions ();
        let continue = ref true in
        for _ = 1 to 25 do
          if !continue then begin
            match Allocator.Search.moves state with
            | [] -> continue := false
            | moves ->
              let move = List.nth moves (rand (List.length moves)) in
              (match move with
               | Allocator.Search.Merge (a, b) ->
                 (* The delta-predicted merged weight must equal the
                    column recomputation, bit for bit. *)
                 if
                   Allocator.Search.merge_delta state a b
                   <> Allocator.Search.merge_full state a b
                 then ok := false
               | Allocator.Search.Promote _ -> ());
              Allocator.Search.apply state move;
              check_regions ()
          end
        done;
        !ok)

(* The greedy descent as it stood before the pair table: each step
   lists the candidate moves, scores every one, filters them and
   stable-sorts the list to apply its head. Kept verbatim, on
   [Allocator.Search], as the reference for [Allocator.Search.descend]:
   the same moves in the same order, the same evaluation counts and
   the same time deltas observed. *)
let reference_descent ~promote_static ?placement ~budget state =
  let module S = Allocator.Search in
  let scalar = Allocator.scalar and deficit = Allocator.deficit in
  let pen_of demands =
    match placement with
    | None -> 0
    | Some p -> p.Cost.placement_cost demands
  in
  let applied = ref [] and evaluated = ref 0 and merges = ref 0 in
  let deltas = ref [] in
  let evaluate_move state used move =
    incr evaluated;
    (match move with S.Merge _ -> incr merges | S.Promote _ -> ());
    let dtime, new_used = S.evaluate state used move in
    let dtime =
      match placement with
      | None -> dtime
      | Some _ ->
        dtime
        +. float_of_int
             (pen_of (S.moved_demands state move) - pen_of (S.demands state))
    in
    deltas := dtime :: !deltas;
    (dtime, new_used)
  in
  let continue_ = ref true in
  while !continue_ do
    let used = S.used state in
    let current_deficit = deficit ~budget used in
    let moves = S.moves ~promote_static state in
    let scored =
      List.map
        (fun m ->
          let dtime, new_used = evaluate_move state used m in
          (m, dtime, new_used, deficit ~budget new_used))
        moves
    in
    let best =
      if current_deficit > 0. then
        let eligible =
          List.filter
            (fun (m, _, _, d) ->
              match m with
              | S.Merge _ -> d <= current_deficit
              | S.Promote _ -> d < current_deficit)
            scored
        in
        let better (_, t1, u1, d1) (_, t2, u2, d2) =
          match compare d1 d2 with
          | 0 -> (
            match compare t1 t2 with
            | 0 -> compare (scalar u1) (scalar u2)
            | c -> c)
          | c -> c
        in
        (match List.sort better eligible with m :: _ -> Some m | [] -> None)
      else
        let eligible =
          List.filter
            (fun (m, dtime, _, d) ->
              d = 0.
              && dtime < 0.
              && match m with S.Promote _ -> true | S.Merge _ -> false)
            scored
        in
        let better (_, t1, u1, _) (_, t2, u2, _) =
          match compare t1 t2 with
          | 0 -> compare (scalar u1) (scalar u2)
          | c -> c
        in
        (match List.sort better eligible with m :: _ -> Some m | [] -> None)
    in
    match best with
    | Some (m, _, _, _) ->
      applied := m :: !applied;
      S.apply state m
    | None -> continue_ := false
  done;
  ( { S.applied = List.rev !applied;
      evaluated = !evaluated;
      merges_evaluated = !merges;
      feasible = deficit ~budget (S.used state) = 0. },
    List.rev !deltas )

let bits_equal a b =
  List.equal
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

(* Unit weights or rates in (0.5, 4.2) that are rarely exact binary
   fractions, so the summation order of a conflict weight shows. *)
let skewed_weight seed i j =
  0.5 +. (float_of_int (((i * 7919) + (j * 104729) + seed) mod 97) /. 26.)

let prop_descent_matches_reference =
  QCheck2.Test.make
    ~name:"table descent applies the reference's moves, counts and deltas"
    ~count:120
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      let set = covering_set design in
      let pair_weight =
        if seed land 1 = 0 then None else Some (skewed_weight seed)
      in
      let promote_static = seed land 2 = 0 in
      let placement =
        if seed land 4 = 0 then None
        else
          Option.map Flow.Tool_flow.placement_hook
            (Fpga.Device.smallest_fitting (Design.modular_requirement design))
      in
      (* From infeasible (25% of the modular budget) to slack (175%). *)
      let budget =
        let m = Design.modular_requirement design in
        let pct = 25 + (seed / 8 mod 151) in
        let scale x = x * pct / 100 in
        res ~bram:(scale m.Resource.bram) ~dsp:(scale m.Resource.dsp)
          (scale m.Resource.clb)
      in
      match
        ( Allocator.Search.initial ?pair_weight design set,
          Allocator.Search.initial ?pair_weight design set )
      with
      | Some reference, Some table ->
        (* Restarts begin with one forced move: take one of those too. *)
        (if seed land 8 <> 0 then
           match Allocator.Search.moves ~promote_static reference with
           | [] -> ()
           | moves ->
             let m = List.nth moves (seed mod List.length moves) in
             Allocator.Search.apply reference m;
             Allocator.Search.apply table m);
        let expected, expected_deltas =
          reference_descent ~promote_static ?placement ~budget reference
        in
        let deltas = ref [] in
        let got =
          Allocator.Search.descend
            ~options:{ Allocator.default_options with promote_static }
            ?placement ~observe:(fun d -> deltas := d :: !deltas) ~budget table
        in
        got = expected
        && bits_equal (List.rev !deltas) expected_deltas
        && Allocator.Search.signature table
           = Allocator.Search.signature reference
      | _ -> QCheck2.assume_fail ())

(* The restart ranking as it stood before it read the pair table: list
   the candidate moves, evaluate each (a fresh cross term per merge),
   sort the list by (time delta, area) with the polymorphic compare and
   keep the first [max_restarts]. Kept verbatim, on [Allocator.Search],
   as the reference for [Allocator.Search.first_moves]: the same moves,
   evaluation counts and time deltas. *)
let reference_first_moves ~(options : Allocator.options) ?placement state =
  let module S = Allocator.Search in
  let scalar = Allocator.scalar in
  let pen_of demands =
    match placement with
    | None -> 0
    | Some p -> p.Cost.placement_cost demands
  in
  let evaluated = ref 0 and merges = ref 0 and deltas = ref [] in
  let evaluate_move state used move =
    incr evaluated;
    (match move with S.Merge _ -> incr merges | S.Promote _ -> ());
    let dtime, new_used = S.evaluate state used move in
    let dtime =
      match placement with
      | None -> dtime
      | Some _ ->
        dtime
        +. float_of_int
             (pen_of (S.moved_demands state move) - pen_of (S.demands state))
    in
    deltas := dtime :: !deltas;
    (dtime, new_used)
  in
  let used = S.used state in
  let ranked =
    List.sort
      (fun (_, t1, u1) (_, t2, u2) ->
        match compare t1 t2 with
        | 0 -> compare (scalar u1) (scalar u2)
        | c -> c)
      (List.map
         (fun m ->
           let dtime, new_used = evaluate_move state used m in
           (m, dtime, new_used))
         (S.moves ~promote_static:options.promote_static state))
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (m, _, _) :: rest -> m :: take (n - 1) rest
  in
  (take options.max_restarts ranked, !evaluated, !merges, List.rev !deltas)

let prop_first_moves_match_reference =
  QCheck2.Test.make
    ~name:"table restart ranking equals the sorted move list"
    ~count:120
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      let set = covering_set design in
      let pair_weight =
        if seed land 1 = 0 then None else Some (skewed_weight seed)
      in
      let options =
        { Allocator.promote_static = seed land 2 = 0;
          max_restarts = [| 8; 0; 1; 3; 50; -1 |].(seed / 16 mod 6) }
      in
      let placement =
        if seed land 4 = 0 then None
        else
          Option.map Flow.Tool_flow.placement_hook
            (Fpga.Device.smallest_fitting (Design.modular_requirement design))
      in
      match
        ( Allocator.Search.initial ?pair_weight design set,
          Allocator.Search.initial ?pair_weight design set )
      with
      | Some reference, Some table ->
        (* Rank a state one move in too, where the table has been
           updated rather than filled. *)
        (if seed land 8 <> 0 then
           match Allocator.Search.moves reference with
           | [] -> ()
           | moves ->
             let m = List.nth moves (seed mod List.length moves) in
             Allocator.Search.apply reference m;
             Allocator.Search.apply table m);
        let expected = reference_first_moves ~options ?placement reference in
        let evaluated = ref 0 and merges = ref 0 and deltas = ref [] in
        let got =
          Allocator.Search.first_moves ~options ?placement
            ~observe:(fun d -> deltas := d :: !deltas)
            ~charge:(fun ~moves ~merges:m ->
              evaluated := !evaluated + moves;
              merges := !merges + m)
            table
        in
        let moves, e, m, d = expected in
        got = moves && !evaluated = e && !merges = m
        && bits_equal (List.rev !deltas) d
      | _ -> QCheck2.assume_fail ())

let allocator_step_tests =
  [ Alcotest.test_case "Allocator.scalar equals the 1.8/7.5/3.5 literals"
      `Quick (fun () ->
        (* Anneal and Multilevel once carried these literals; they now
           share Allocator's Tile-derived weights, bit for bit. *)
        let literal (r : Resource.t) =
          (float_of_int r.clb *. 1.8)
          +. (float_of_int r.bram *. 7.5)
          +. (float_of_int r.dsp *. 3.5)
        in
        List.iter
          (fun r ->
            Alcotest.(check int64)
              (Resource.to_string r)
              (Int64.bits_of_float (literal r))
              (Int64.bits_of_float (Allocator.scalar r)))
          [ res 0; res 1; res ~bram:1 ~dsp:1 1; res ~bram:3 ~dsp:7 333;
            res ~bram:62 ~dsp:150 6900; res ~bram:97 ~dsp:13 123_457 ]);
    Alcotest.test_case "case-study solve charges the pinned move counts"
      `Quick (fun () ->
        (* Totals of the sorted-list descent this one replaced; the table
           scan must evaluate exactly as many moves. *)
        let design =
          match Design_library.find "video-receiver" with
          | Some d -> d
          | None -> Alcotest.fail "video-receiver missing from the library"
        in
        let budget = res ~bram:62 ~dsp:150 6900 in
        List.iter
          (fun (label, target, placement, expected) ->
            let telemetry = Prtelemetry.create Prtelemetry.Sink.null in
            (match Engine.solve ~telemetry ?placement ~target design with
             | Error e -> Alcotest.fail e
             | Ok _ -> ());
            List.iter2
              (fun counter n ->
                Alcotest.(check int) (label ^ " " ^ counter) n
                  (Prtelemetry.counter_value telemetry counter))
              [ "alloc.moves_evaluated"; "perf.delta_evals";
                "alloc.merges_accepted"; "alloc.promotions";
                "core.placement_evals" ]
              expected)
          [ ("auto", Engine.Auto, None, [ 27329; 13117; 1285; 813; 0 ]);
            ("budget", Engine.Budget budget, None,
             [ 27299; 13120; 1276; 811; 0 ]);
            ( "budget placed",
              Engine.Budget budget,
              Some
                (Flow.Tool_flow.placement_hook
                   (Fpga.Device.find_exn "FX50T")),
              [ 27303; 13108; 1287; 804; 54636 ] ) ]) ]

let prop_energy_incremental =
  QCheck2.Test.make
    ~name:"anneal energy incremental sums match from-scratch (with undo)"
    ~count:60
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      match covering_set design with
      | [] -> QCheck2.assume_fail ()
      | set ->
        let parts = Array.of_list set in
        let n = Array.length parts in
        let analysis = Compatibility.analyse design parts in
        let configs = Design.configuration_count design in
        let activity =
          Array.init n (fun p ->
              Array.init configs (fun c ->
                  Compatibility.active analysis ~bp:p ~config:c))
        in
        let resources =
          Array.map (fun bp -> bp.Base_partition.resources) parts
        in
        let energy =
          Anneal.Energy.create
            ~budget:(res ~bram:50 ~dsp:150 6800)
            ~static_overhead:design.Design.static_overhead ~resources
            ~activity
            (Array.init n Fun.id)
        in
        let rand = lcg seed in
        let ok = ref true in
        for i = 1 to 40 do
          let part = rand n in
          let target =
            match rand (n + 2) with
            | t when t = n -> -1
            | t when t = n + 1 -> part (* a fresh region of its own *)
            | t -> t
          in
          let before = Anneal.Energy.current energy in
          let _candidate = Anneal.Energy.propose energy ~part ~target in
          if i mod 3 = 0 then begin
            (* Rejected move: nothing was committed, the O(1) undo is
               "do nothing" — committed state must be untouched. *)
            if Anneal.Energy.current energy <> before then ok := false
          end
          else Anneal.Energy.commit energy ~part ~target;
          if Anneal.Energy.current energy <> Anneal.Energy.from_scratch energy
          then ok := false
        done;
        !ok)

(* Same incremental-vs-from-scratch drive, but with a placement penalty
   hook installed: the energy's cached penalty term must stay in step
   with the from-scratch recomputation through commits and rejected
   proposals alike. *)
let prop_energy_incremental_with_penalty =
  let estimate =
    Floorplan.Estimate.create
      (Floorplan.Layout.make (Fpga.Device.find_exn "SX35T"))
  in
  QCheck2.Test.make
    ~name:"anneal energy incremental matches from-scratch under a penalty"
    ~count:40
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      match covering_set design with
      | [] -> QCheck2.assume_fail ()
      | set ->
        let parts = Array.of_list set in
        let n = Array.length parts in
        let analysis = Compatibility.analyse design parts in
        let configs = Design.configuration_count design in
        let activity =
          Array.init n (fun p ->
              Array.init configs (fun c ->
                  Compatibility.active analysis ~bp:p ~config:c))
        in
        let resources =
          Array.map (fun bp -> bp.Base_partition.resources) parts
        in
        let energy =
          Anneal.Energy.create
            ~budget:(res ~bram:50 ~dsp:150 6800)
            ~penalty:(Floorplan.Estimate.penalty estimate)
            ~static_overhead:design.Design.static_overhead ~resources
            ~activity
            (Array.init n Fun.id)
        in
        let rand = lcg seed in
        let ok = ref true in
        for i = 1 to 40 do
          let part = rand n in
          let target =
            match rand (n + 2) with
            | t when t = n -> -1
            | t when t = n + 1 -> part
            | t -> t
          in
          let before = Anneal.Energy.current energy in
          let _candidate = Anneal.Energy.propose energy ~part ~target in
          if i mod 3 = 0 then begin
            if Anneal.Energy.current energy <> before then ok := false
          end
          else Anneal.Energy.commit energy ~part ~target;
          if Anneal.Energy.current energy <> Anneal.Energy.from_scratch energy
          then ok := false
        done;
        !ok)

(* Unit moves. A random starting placement over a few regions makes
   collided (invalid) states common, and each unit is a random
   ascending subset of one region's members (or of the static
   partitions). *)
let energy_fixture design =
  match covering_set design with
  | [] -> None
  | set ->
    let parts = Array.of_list set in
    let n = Array.length parts in
    let analysis = Compatibility.analyse design parts in
    let configs = Design.configuration_count design in
    let activity =
      Array.init n (fun p ->
          Array.init configs (fun c ->
              Compatibility.active analysis ~bp:p ~config:c))
    in
    let resources = Array.map (fun bp -> bp.Base_partition.resources) parts in
    let make placement =
      Anneal.Energy.create
        ~budget:(res ~bram:50 ~dsp:150 6800)
        ~static_overhead:design.Design.static_overhead ~resources ~activity
        placement
    in
    Some (n, make)

let random_placement rand n =
  Array.init n (fun _ -> match rand 4 with 3 -> -1 | r -> r mod n)

let random_unit rand placement =
  let n = Array.length placement in
  let home = placement.(rand n) in
  let members =
    List.filter (fun p -> placement.(p) = home) (List.init n Fun.id)
  in
  match List.filter (fun _ -> rand 2 = 0) members with
  | [] -> Array.of_list [ List.hd members ]
  | chosen -> Array.of_list chosen

let random_target rand n = if rand (n + 1) = n then -1 else rand n

let prop_energy_unit_moves =
  QCheck2.Test.make
    ~name:"energy single and unit moves match from-scratch (with rollback)"
    ~count:80
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      match energy_fixture design with
      | None -> QCheck2.assume_fail ()
      | Some (n, make) ->
        let rand = lcg seed in
        let energy = make (random_placement rand n) in
        let ok = ref true in
        let check () =
          if Anneal.Energy.current energy <> Anneal.Energy.from_scratch energy
          then ok := false
        in
        check ();
        for _ = 1 to 40 do
          let placement = Anneal.Energy.placement energy in
          let parts = random_unit rand placement in
          let home = placement.(parts.(0)) in
          let target = random_target rand n in
          let before = Anneal.Energy.current energy in
          let candidate =
            if Array.length parts = 1 && rand 2 = 0 then
              Anneal.Energy.propose energy ~part:parts.(0) ~target
            else Anneal.Energy.propose_unit energy ~parts ~target
          in
          (match rand 3 with
           | 0 ->
             (* Rejected: nothing was committed. *)
             if Anneal.Energy.current energy <> before then ok := false
           | 1 ->
             Anneal.Energy.commit_unit energy ~parts ~target;
             if Anneal.Energy.current energy <> candidate then ok := false
           | _ ->
             (* Accepted, checked, then rolled back by the inverse
                move. *)
             Anneal.Energy.commit_unit energy ~parts ~target;
             check ();
             Anneal.Energy.commit_unit energy ~parts ~target:home;
             if Anneal.Energy.current energy <> before then ok := false);
          check ()
        done;
        !ok)

let prop_energy_unit_equals_singles =
  QCheck2.Test.make
    ~name:"energy unit move leaves the state of its single commits"
    ~count:80
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      match energy_fixture design with
      | None -> QCheck2.assume_fail ()
      | Some (n, make) ->
        let rand = lcg seed in
        let start = random_placement rand n in
        let unit_engine = make start and single_engine = make start in
        let ok = ref true in
        for _ = 1 to 20 do
          let parts = random_unit rand (Anneal.Energy.placement unit_engine) in
          let target = random_target rand n in
          (* Committing without a proposal takes the transposition-hit
             path half of the time. *)
          if rand 2 = 0 then
            ignore (Anneal.Energy.propose_unit unit_engine ~parts ~target);
          Anneal.Energy.commit_unit unit_engine ~parts ~target;
          Array.iter
            (fun part -> Anneal.Energy.commit single_engine ~part ~target)
            parts;
          if
            Anneal.Energy.current unit_engine
            <> Anneal.Energy.current single_engine
            || Anneal.Energy.placement unit_engine
               <> Anneal.Energy.placement single_engine
          then ok := false;
          (* Equal region snapshots and member indexes price every
             further move alike. *)
          for part = 0 to n - 1 do
            List.iter
              (fun target ->
                if
                  Anneal.Energy.propose unit_engine ~part ~target
                  <> Anneal.Energy.propose single_engine ~part ~target
                then ok := false)
              [ -1; part; (part + 1) mod n ]
          done
        done;
        !ok)

let prop_exact_matches_cost_model =
  QCheck2.Test.make
    ~name:"exact search scheme total agrees with Cost.evaluate" ~count:25
    gen_design
    (fun design ->
      match covering_set design with
      | [] -> QCheck2.assume_fail ()
      | set when List.length set > 7 -> QCheck2.assume_fail ()
      | set ->
        let result =
          Exact.allocate ~max_states:200_000
            ~budget:(res ~bram:400 ~dsp:400 100_000)
            design set
        in
        (match result.Exact.scheme with
         | None -> QCheck2.assume_fail ()
         | Some scheme ->
           (* The DFS selected this scheme using incrementally maintained
              contributions; the full cost model must agree that no
              allocator scheme beats it (optimality) — checked cheaply by
              evaluating the exact scheme and the greedy one. *)
           let exact_total = (Cost.evaluate scheme).Cost.total_frames in
           (match
              Allocator.allocate
                ~budget:(res ~bram:400 ~dsp:400 100_000)
                design set
            with
            | None -> QCheck2.assume_fail ()
            | Some greedy ->
              exact_total <= (Cost.evaluate greedy).Cost.total_frames)))

let exact_reference_tests =
  [ Alcotest.test_case "conflicts_of_column reference values" `Quick
      (fun () ->
        Alcotest.(check int) "empty" 0 (Exact.conflicts_of_column [| -1; -1 |]);
        Alcotest.(check int) "same resident" 0
          (Exact.conflicts_of_column [| 4; 4; -1 |]);
        Alcotest.(check int) "two changes" 2
          (Exact.conflicts_of_column [| 1; 1; 2 |]);
        Alcotest.(check int) "all distinct" 3
          (Exact.conflicts_of_column [| 0; 1; 2 |])) ]

(* ------------------------------------------------------------------ *)
(* Cost.transition_matrix symmetry (single-triangle computation). *)

let transition_tests =
  [ Alcotest.test_case "transition matrix is symmetric with zero diagonal"
      `Quick (fun () ->
        match Engine.solve ~target:Engine.Auto example with
        | Error e -> Alcotest.fail e
        | Ok outcome ->
          let m = Cost.transition_matrix outcome.Engine.scheme in
          let configs = Design.configuration_count example in
          for i = 0 to configs - 1 do
            Alcotest.(check int) "diagonal" 0 m.(i).(i);
            for j = 0 to configs - 1 do
              Alcotest.(check int)
                (Printf.sprintf "m(%d,%d)" i j)
                m.(i).(j) m.(j).(i);
              if i < j then
                Alcotest.(check int)
                  (Printf.sprintf "pairwise %d %d" i j)
                  (Cost.pairwise_frames outcome.Engine.scheme i j)
                  m.(i).(j)
            done
          done) ]

(* ------------------------------------------------------------------ *)
(* Parallel determinism. *)

let outcome_fingerprint (o : Engine.outcome) =
  ( ( Memo.scheme_signature o.Engine.scheme,
      o.Engine.evaluation.Cost.total_frames,
      o.Engine.evaluation.Cost.worst_frames,
      o.Engine.evaluation.Cost.used ),
    ( o.Engine.budget,
      Option.map (fun d -> d.Fpga.Device.short) o.Engine.device,
      o.Engine.base_partitions,
      o.Engine.candidate_sets,
      o.Engine.escalations,
      o.Engine.cost_evaluations ) )

let prop_solve_jobs_identical =
  QCheck2.Test.make ~name:"parallel solve is bit-identical to sequential"
    ~count:12 gen_design (fun design ->
      let seq = Engine.solve ~target:Engine.Auto design in
      let par3 = Engine.solve ~jobs:3 ~target:Engine.Auto design in
      match (seq, par3) with
      | Error a, Error b -> a = b
      | Ok a, Ok b -> outcome_fingerprint a = outcome_fingerprint b
      | Ok _, Error _ | Error _, Ok _ -> false)

let determinism_tests =
  [ Alcotest.test_case "sweep rows identical for jobs 1 and 3" `Slow
      (fun () ->
        let a = Experiments.Sweep.run ~count:8 ~jobs:1 () in
        let b = Experiments.Sweep.run ~count:8 ~jobs:3 () in
        Alcotest.(check int) "row count" (List.length a) (List.length b);
        Alcotest.(check bool) "rows equal" true (a = b)) ]

let () =
  Alcotest.run "prspeed"
    [ ("par", par_tests);
      ("memo", memo_tests);
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_allocator_delta;
            prop_descent_matches_reference;
            prop_first_moves_match_reference;
            prop_energy_incremental;
            prop_energy_incremental_with_penalty;
            prop_energy_unit_moves;
            prop_energy_unit_equals_singles;
            prop_exact_matches_cost_model ]
        @ exact_reference_tests @ allocator_step_tests );
      ("transition", transition_tests);
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest [ prop_solve_jobs_identical ]
        @ determinism_tests ) ]
