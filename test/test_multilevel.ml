(* Prscale tests: the multilevel coarsen->partition->refine backend and
   the Strategy plumbing around it (DESIGN.md §12).

   The QCheck properties pin the backend's contracts: any scheme a
   V-cycle produces is feasible and oracle-clean (the coarsen->uncoarsen
   round trip never fabricates an invalid placement), refinement never
   increases the exactly evaluated cost once feasibility is reached, and
   the engine's multilevel path is bit-identical for any [jobs]. The
   unit tests cover the Strategy name surface, the generator's spec
   validation, and the optimality gap against the exact backend on every
   library design. *)

module Design = Prdesign.Design
module Design_library = Prdesign.Design_library
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Engine = Prcore.Engine
module Strategy = Prcore.Strategy
module Multilevel = Prcore.Multilevel
module Memo = Prcore.Memo
module Resource = Fpga.Resource
module Tile = Fpga.Tile
module Compatibility = Prcore.Compatibility
module Allocator = Prcore.Allocator
module Base_partition = Cluster.Base_partition
module Generator = Synth.Generator
module Oracle = Prverify.Oracle
module Diagnostic = Prverify.Diagnostic

(* ------------------------------------------------------------------ *)
(* Helpers.                                                            *)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

(* The bench's huge-class budget rule: [headroom] times the
   one-module-per-region usage — the usage floor of mode-granular
   partitioning, so a feasible packing exists while the budget still
   forces real decisions. *)
let huge_budget ?(headroom = 1.3) design =
  let used =
    (Cost.evaluate (Scheme.one_module_per_region design)).Cost.used
  in
  let scale v = int_of_float (Float.ceil (headroom *. float_of_int v)) in
  Resource.make ~bram:(scale used.Resource.bram)
    ~dsp:(scale used.Resource.dsp)
    (scale used.Resource.clb)

let gen_default_design =
  QCheck2.Gen.(
    map
      (fun seed ->
        let classes = Array.of_list Generator.all_classes in
        Generator.generate
          (Synth.Rng.make seed)
          classes.(seed mod Array.length classes)
          ~index:seed)
      (0 -- 20_000))

(* Small huge-class designs: the population the backend targets, at a
   size where properties run in milliseconds. *)
let gen_huge_design =
  QCheck2.Gen.(
    map
      (fun (seed, modules) -> Generator.huge ~seed ~modules ())
      (pair (0 -- 10_000) (6 -- 16)))

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

(* Coarsen -> uncoarsen round trip: whatever scheme a V-cycle returns is
   genuinely feasible for the budget it was given and clean under the
   independent oracle — covering, conflict-freedom and the reported
   region structure all survive the re-derivation. *)
let prop_roundtrip_feasible =
  QCheck2.Test.make ~name:"multilevel scheme is feasible and oracle-clean"
    ~count:60 gen_huge_design (fun design ->
      let budget = huge_budget design in
      match
        Multilevel.allocate ~budget design (Multilevel.nodes design)
      with
      | None -> QCheck2.assume_fail ()
      | Some scheme ->
        let evaluation = Cost.evaluate scheme in
        Cost.fits evaluation ~budget
        && Diagnostic.ok (Oracle.check_scheme scheme)
        && Diagnostic.ok (Oracle.check_budget scheme ~budget))

(* Refinement monotonicity: once the V-cycle reaches feasibility, the
   exactly evaluated total of the returned scheme never exceeds the
   total at first feasibility — every accepted move strictly improved
   the (deficit, total) order. *)
let prop_refinement_monotone =
  QCheck2.Test.make ~name:"refinement never increases the evaluated cost"
    ~count:60 gen_huge_design (fun design ->
      let budget = huge_budget design in
      let scheme, stats =
        Multilevel.allocate_stats ~budget design (Multilevel.nodes design)
      in
      match (stats.Multilevel.first_feasible_total,
             stats.Multilevel.final_total) with
      | Some first, Some final ->
        (* The final total must also be the real evaluated cost. *)
        let evaluated =
          match scheme with
          | Some s -> (Cost.evaluate s).Cost.total_frames
          | None -> -1
        in
        final <= first && evaluated = final
      | None, None -> QCheck2.assume_fail ()
      | Some _, None | None, Some _ -> false)

(* Engine-level determinism: the multilevel strategy is bit-identical
   for any [jobs] (the backend is sequential and runs once). *)
let prop_jobs_bit_identical =
  QCheck2.Test.make ~name:"multilevel solve is bit-identical across jobs"
    ~count:40 gen_default_design (fun design ->
      let solve jobs =
        match
          Engine.solve ~strategy:Strategy.Multilevel ~jobs
            ~target:Engine.Auto design
        with
        | Ok o -> Some o
        | Error _ -> None
      in
      match solve 1 with
      | None -> QCheck2.assume_fail ()
      | Some seq ->
        List.for_all
          (fun jobs ->
            match solve jobs with
            | None -> false
            | Some par ->
              Cost.equal_evaluation seq.Engine.evaluation
                par.Engine.evaluation
              && Scheme.describe seq.Engine.scheme
                 = Scheme.describe par.Engine.scheme)
          [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Optimality gap vs the exact backend.                                *)

(* On every small library design the multilevel scheme must land within
   10 % of the exact backend's total (measured gap is <= 2.2 %; the
   bound leaves room for future tuning without masking a step change). *)
let test_gap_vs_exact () =
  List.iter
    (fun (name, design) ->
      let solve strategy =
        match Engine.solve ~strategy ~target:Engine.Auto design with
        | Ok o -> Some o.Engine.evaluation.Cost.total_frames
        | Error _ -> None
      in
      match (solve Strategy.Exact, solve Strategy.Multilevel) with
      | Some exact, Some ml ->
        let gap =
          100. *. float_of_int (ml - exact) /. float_of_int (max 1 exact)
        in
        if gap > 10. then
          Alcotest.failf "%s: multilevel %d vs exact %d (gap %+.1f%% > 10%%)"
            name ml exact gap
      | exact, ml ->
        Alcotest.failf "%s: exact=%s multilevel=%s (both must solve)" name
          (match exact with Some v -> string_of_int v | None -> "-")
          (match ml with Some v -> string_of_int v | None -> "-"))
    Design_library.all

(* ------------------------------------------------------------------ *)
(* Pinned V-cycle.                                                     *)

(* One fixed 100-module huge-class design: the V-cycle's statistics and
   the returned scheme's signature, as recorded with a boxed-tuple list
   sort of the coarsening pairs and the rescanning compatibility walk.
   Any drift in the merge order, or in the activity the compatibility
   analysis feeds it, changes them. *)
let test_pinned_vcycle () =
  let design = Generator.huge ~seed:2013 ~modules:100 () in
  let budget = huge_budget design in
  let scheme, stats =
    Multilevel.allocate_stats ~budget design (Multilevel.nodes design)
  in
  Alcotest.(check int) "levels" 2 stats.Multilevel.levels;
  Alcotest.(check int) "merges" 100 stats.Multilevel.merges;
  Alcotest.(check int) "passes" 9 stats.Multilevel.passes;
  Alcotest.(check int) "moves" 58 stats.Multilevel.moves;
  Alcotest.(check int) "trials" 10357 stats.Multilevel.trials;
  Alcotest.(check (option int)) "first feasible total" (Some 295380)
    stats.Multilevel.first_feasible_total;
  Alcotest.(check (option int)) "final total" (Some 193756)
    stats.Multilevel.final_total;
  match scheme with
  | None -> Alcotest.fail "pinned design must solve"
  | Some scheme ->
    Alcotest.(check string) "scheme signature digest"
      "309c3e1a333414a1c554c27de8fc206f"
      (Digest.to_hex (Digest.string (Memo.scheme_signature scheme)))

(* ------------------------------------------------------------------ *)
(* Partner ranking and V-cycle spans.                                  *)

(* The ranking refinement used before the bounded top-k, kept verbatim
   as the reference: cons every disjoint candidate, sort all, keep
   [limit]. *)
let reference_partners ~limit ~masks ~score =
  let disjoint a b =
    let ok = ref true in
    for w = 0 to Array.length a - 1 do
      if a.(w) land b.(w) <> 0 then ok := false
    done;
    !ok
  in
  let n_units = Array.length masks in
  Array.init n_units (fun u ->
      let best = ref [] in
      for v = 0 to n_units - 1 do
        if v <> u && disjoint masks.(u) masks.(v) then begin
          let score = score u v in
          best := (score, v) :: !best
        end
      done;
      let sorted = List.sort compare !best in
      List.filteri (fun i _ -> i < limit) sorted |> List.map snd)

(* Few mask bits and few score values, so pairs tie and some units
   (here unit 0 when [blocker] is set) have no disjoint partner. *)
let gen_ranking =
  QCheck2.Gen.(
    let* n = 0 -- 24 in
    let* words = 1 -- 2 in
    let* masks = array_size (return n) (array_size (return words) (0 -- 15)) in
    let* blocker = bool in
    let* scores = array_size (return (n * n)) (-3 -- 3) in
    let* limit = oneof [ return 0; return 1; return (n + 3); -1 -- 10 ] in
    if blocker && n > 0 then masks.(0) <- Array.make words (-1);
    return (limit, masks, scores))

let prop_partners_match_reference =
  QCheck2.Test.make ~name:"bounded top-k partners equal the full sort"
    ~count:500 gen_ranking (fun (limit, masks, scores) ->
      let n = Array.length masks in
      let score u v = scores.((min u v * n) + max u v) in
      Multilevel.rank_partners ~limit ~masks ~score
      = reference_partners ~limit ~masks ~score)

(* ------------------------------------------------------------------ *)
(* Coarsening and partner scores against the boxed-record scorer.     *)

(* The coarse-node scorer as it stood before the flat per-node arrays,
   kept verbatim as the reference: a record per node, a
   [Resource.max]/[Tile.quantize] per scored pair, [Allocator.scalar]
   area gains, and an [Array.sort] of the pair indices on
   (dtime, -gain, i, j). *)
type ref_node = {
  mutable members : int list;
  mutable mask : int array;
  mutable acts : int;
  mutable res : Resource.t;
  mutable conflicts : int;
  mutable alive : bool;
}

let ref_words_for configs = max 1 ((configs + 62) / 63)

let ref_mask_of_activity ~words act =
  let mask = Array.make words 0 in
  Array.iteri
    (fun c on ->
      if on then
        mask.(c / 63) <- mask.(c / 63) lor (1 lsl (c mod 63)))
    act;
  mask

let ref_disjoint a b =
  let ok = ref true in
  for w = 0 to Array.length a - 1 do
    if a.(w) land b.(w) <> 0 then ok := false
  done;
  !ok

let ref_popcount mask =
  let count = ref 0 in
  Array.iter
    (fun w ->
      let w = ref w in
      while !w <> 0 do
        w := !w land (!w - 1);
        incr count
      done)
    mask;
  !count

let ref_node_frames node = Tile.frames_of_resources node.res

let ref_merge_dtime a b =
  let merged = Resource.max a.res b.res in
  let fm = Tile.frames_of_resources merged in
  (fm * (a.conflicts + b.conflicts + (a.acts * b.acts)))
  - (ref_node_frames a * a.conflicts)
  - (ref_node_frames b * b.conflicts)

let ref_merge_area_gain a b =
  Allocator.scalar (Tile.quantize a.res)
  +. Allocator.scalar (Tile.quantize b.res)
  -. Allocator.scalar (Tile.quantize (Resource.max a.res b.res))

let ref_epsilon ~budget ~(demand : Resource.t) =
  let per b d = if d <= 0 then infinity else (float_of_int b /. float_of_int d) -. 1. in
  let e =
    Float.min
      (per budget.Resource.clb demand.Resource.clb)
      (Float.min
         (per budget.Resource.bram demand.Resource.bram)
         (per budget.Resource.dsp demand.Resource.dsp))
  in
  if Float.is_finite e then Float.max 0. e /. 3. else 0.

(* The snapshots, coarsest first, and the number of compatible pairs
   the balance ceiling rejected. *)
let reference_coarsen ~coarsest ~budget design partitions =
  let parts = Array.of_list partitions in
  let n = Array.length parts in
  let analysis = Compatibility.analyse design parts in
  let configs = Design.configuration_count design in
  let words = ref_words_for configs in
  let activity =
    Array.init n (fun p ->
        Array.init configs (fun c ->
            Compatibility.active analysis ~bp:p ~config:c))
  in
  let resources = Array.map (fun bp -> bp.Base_partition.resources) parts in
  let masks = Array.map (ref_mask_of_activity ~words) activity in
  let cnodes =
    Array.init n (fun p ->
        { members = [ p ];
          mask = Array.copy masks.(p);
          acts = ref_popcount masks.(p);
          res = resources.(p);
          conflicts = 0;
          alive = true })
  in
  let rejected = ref 0 in
  let snapshots = ref [] in
  let snapshot () =
    let units = ref [] in
    for i = n - 1 downto 0 do
      if cnodes.(i).alive then units := cnodes.(i).members :: !units
    done;
    Array.of_list !units
  in
  let live_count () =
    Array.fold_left (fun acc c -> if c.alive then acc + 1 else acc) 0 cnodes
  in
  let pair_dtime = ref [||]
  and pair_neg_gain = ref [||]
  and pair_ij = ref [||] in
  let continue = ref true in
  while !continue do
    let nlive = live_count () in
    if nlive <= coarsest then continue := false
    else begin
      let k = max coarsest (nlive / 2) in
      let demand =
        Array.fold_left
          (fun acc c ->
            if c.alive then Resource.add acc (Tile.quantize c.res) else acc)
          Resource.zero cnodes
      in
      let eps = ref_epsilon ~budget ~demand in
      let cap r_budget r_demand =
        (1. +. eps) *. float_of_int r_demand /. float_of_int k
        |> Float.max (float_of_int r_budget /. float_of_int k)
      in
      let cap_clb = cap budget.Resource.clb demand.Resource.clb
      and cap_bram = cap budget.Resource.bram demand.Resource.bram
      and cap_dsp = cap budget.Resource.dsp demand.Resource.dsp in
      let admissible a b =
        let merged = Tile.quantize (Resource.max a.res b.res) in
        float_of_int merged.Resource.clb <= cap_clb
        && float_of_int merged.Resource.bram <= cap_bram
        && float_of_int merged.Resource.dsp <= cap_dsp
      in
      let npairs = ref 0 in
      let push dtime neg_gain pair =
        if !npairs = Array.length !pair_dtime then begin
          let grow a fill =
            let b = Array.make (max 64 (2 * Array.length a)) fill in
            Array.blit a 0 b 0 !npairs;
            b
          in
          pair_dtime := grow !pair_dtime 0;
          pair_neg_gain := grow !pair_neg_gain 0.;
          pair_ij := grow !pair_ij 0
        end;
        !pair_dtime.(!npairs) <- dtime;
        !pair_neg_gain.(!npairs) <- neg_gain;
        !pair_ij.(!npairs) <- pair;
        incr npairs
      in
      for i = 0 to n - 1 do
        if cnodes.(i).alive then
          for j = i + 1 to n - 1 do
            if cnodes.(j).alive && ref_disjoint cnodes.(i).mask cnodes.(j).mask
            then begin
              if admissible cnodes.(i) cnodes.(j) then
                push
                  (ref_merge_dtime cnodes.(i) cnodes.(j))
                  (-.ref_merge_area_gain cnodes.(i) cnodes.(j))
                  ((i * n) + j)
              else incr rejected
            end
          done
      done;
      let dtime = !pair_dtime
      and neg_gain = !pair_neg_gain
      and ij = !pair_ij in
      let order = Array.init !npairs Fun.id in
      Array.sort
        (fun x y ->
          match Int.compare dtime.(x) dtime.(y) with
          | 0 -> (
            match Float.compare neg_gain.(x) neg_gain.(y) with
            | 0 -> Int.compare ij.(x) ij.(y)
            | c -> c)
          | c -> c)
        order;
      let matched = Array.make n false in
      let applied = ref 0 in
      let to_merge = nlive - k in
      Array.iter
        (fun x ->
          let i = ij.(x) / n and j = ij.(x) mod n in
          if !applied < to_merge && not matched.(i) && not matched.(j)
          then begin
            matched.(i) <- true;
            matched.(j) <- true;
            let a = cnodes.(i) and b = cnodes.(j) in
            a.conflicts <- a.conflicts + b.conflicts + (a.acts * b.acts);
            a.members <- a.members @ b.members;
            Array.iteri (fun w bits -> a.mask.(w) <- a.mask.(w) lor bits)
              b.mask;
            a.acts <- a.acts + b.acts;
            a.res <- Resource.max a.res b.res;
            b.alive <- false;
            incr applied
          end)
        order;
      if !applied = 0 then continue := false
      else snapshots := snapshot () :: !snapshots
    end
  done;
  (!snapshots, !rejected)

(* Huge-class designs, some with more than 63 configurations (so
   activity masks span several words), under budgets from far below the
   one-module-per-region usage (the balance ceiling rejects pairs) to
   slack, and coarsening targets from one node up. *)
let gen_coarsen_case =
  QCheck2.Gen.(
    let* seed = 0 -- 10_000 in
    let* wide = bool in
    let* modules = if wide then 8 -- 20 else 6 -- 30 in
    let* headroom = oneofl [ 0.2; 0.5; 0.8; 1.0; 1.3; 2.0 ] in
    let* coarsest = oneofl [ 1; 2; 4; 8; 16 ] in
    let design =
      if wide then
        Generator.generate
          ~spec:
            { Generator.huge_spec with
              modules = (modules, modules);
              extra_configs = (64, 90) }
          (Synth.Rng.make seed) Generator.Logic_intensive ~index:seed
      else Generator.huge ~seed ~modules ()
    in
    return (design, huge_budget ~headroom design, coarsest))

let coarsen_matches (design, budget, coarsest) =
  let nodes = Multilevel.nodes design in
  let expected, rejected =
    reference_coarsen ~coarsest ~budget design nodes
  in
  let got =
    Multilevel.coarsen
      ~options:{ Multilevel.default_options with coarsest }
      ~budget design nodes
  in
  (got = expected, rejected)

let prop_coarsen_matches_reference =
  QCheck2.Test.make
    ~name:"flat coarsening snapshots equal the boxed-record scorer's"
    ~count:150 gen_coarsen_case (fun case -> fst (coarsen_matches case))

(* The property's generator must reach the multi-word mask path and the
   balance ceiling; pin that on fixed cases. *)
let test_coarsen_coverage () =
  let cases =
    QCheck2.Gen.generate ~n:60 ~rand:(Random.State.make [| 29 |])
      gen_coarsen_case
  in
  let wide = ref 0 and rejecting = ref 0 in
  List.iter
    (fun ((design, _, _) as case) ->
      let equal, rejected = coarsen_matches case in
      if not equal then Alcotest.fail "coarsening differs from the reference";
      if Design.configuration_count design > 63 then incr wide;
      if rejected > 0 then incr rejecting)
    cases;
  Alcotest.(check bool) "some designs have over 63 configurations" true
    (!wide > 0);
  Alcotest.(check bool) "the balance ceiling rejects pairs somewhere" true
    (!rejecting > 0)

let ref_unit_stats ~masks ~resources members =
  let words = Array.length masks.(0) in
  let mask = Array.make words 0 in
  let res = ref Resource.zero in
  let acts = ref 0 in
  let conflicts = ref 0 in
  List.iter
    (fun p ->
      let a = ref_popcount masks.(p) in
      conflicts := !conflicts + (!acts * a);
      acts := !acts + a;
      Array.iteri
        (fun w bits -> mask.(w) <- mask.(w) lor bits)
        masks.(p);
      res := Resource.max !res resources.(p))
    members;
  { members;
    mask;
    acts = !acts;
    res = !res;
    conflicts = !conflicts;
    alive = true }

(* Random partitions of the nodes into units (members in random order,
   an occasional empty unit), random masks of 1–3 words and random
   areas. *)
let gen_units =
  QCheck2.Gen.(
    let* n = 1 -- 30 in
    let* words = 1 -- 3 in
    let* masks =
      array_size (return n) (array_size (return words) (0 -- max_int))
    in
    let* resources =
      array_size (return n)
        (map
           (fun (c, b, d) -> Resource.make ~bram:b ~dsp:d c)
           (triple (0 -- 5000) (0 -- 60) (0 -- 90)))
    in
    let* keys = array_size (return n) (0 -- 1_000) in
    let* n_units = 1 -- (n + 1) in
    let* owner = array_size (return n) (0 -- (n_units - 1)) in
    let units = Array.make n_units [] in
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
    Array.iter (fun p -> units.(owner.(p)) <- p :: units.(owner.(p))) order;
    return (masks, resources, units))

let prop_unit_scores_match_reference =
  QCheck2.Test.make ~name:"flat partner scores equal merge_dtime" ~count:300
    gen_units (fun (masks, resources, units) ->
      let stats = Array.map (ref_unit_stats ~masks ~resources) units in
      let score = Multilevel.unit_scores ~masks ~resources units in
      let n_units = Array.length units in
      let ok = ref true in
      for u = 0 to n_units - 1 do
        for v = 0 to n_units - 1 do
          if u <> v && score u v <> ref_merge_dtime stats.(u) stats.(v) then
            ok := false
        done
      done;
      !ok)

let test_partner_edges () =
  (* Unit 2 overlaps everyone; units 0, 1 and 3 are mutually disjoint
     with tied scores. *)
  let masks = [| [| 1 |]; [| 2 |]; [| 7 |]; [| 4 |] |] in
  let score _ _ = 5 in
  let rank limit = Multilevel.rank_partners ~limit ~masks ~score in
  Alcotest.(check (array (list int))) "limit 0" [| []; []; []; [] |] (rank 0);
  Alcotest.(check (array (list int)))
    "limit 1, ties by index" [| [ 1 ]; [ 0 ]; []; [ 0 ] |] (rank 1);
  Alcotest.(check (array (list int)))
    "limit above the candidates"
    [| [ 1; 3 ]; [ 0; 3 ]; []; [ 0; 1 ] |]
    (rank 8)

let test_vcycle_spans () =
  let sink = Prtelemetry.Sink.memory () in
  let telemetry = Prtelemetry.create sink in
  let design = Generator.huge ~seed:2013 ~modules:100 () in
  let _, stats =
    Multilevel.allocate_stats ~telemetry ~budget:(huge_budget design) design
      (Multilevel.nodes design)
  in
  let begins name =
    List.filter
      (fun (e : Prtelemetry.Event.t) ->
        e.Prtelemetry.Event.kind = Prtelemetry.Event.Begin
        && e.Prtelemetry.Event.name = name)
      (Prtelemetry.Sink.events sink)
  in
  let units name =
    List.map
      (fun (e : Prtelemetry.Event.t) ->
        match List.assoc_opt "units" e.Prtelemetry.Event.attrs with
        | Some (Prtelemetry.Json.Int u) -> u
        | Some _ | None -> Alcotest.failf "%s span without units" name)
      (begins name)
  in
  Alcotest.(check int) "one coarsen span" 1
    (List.length (begins "multilevel.coarsen"));
  let refined = units "multilevel.refine" in
  Alcotest.(check int) "a refine span per level" (stats.Multilevel.levels + 1)
    (List.length refined);
  Alcotest.(check (list int)) "partners spans match the levels" refined
    (units "multilevel.partners");
  Alcotest.(check int) "finest level is every node"
    (List.length (Multilevel.nodes design))
    (List.nth refined (List.length refined - 1))

(* ------------------------------------------------------------------ *)
(* Strategy name surface.                                              *)

let test_strategy_names () =
  List.iter
    (fun strategy ->
      match Strategy.of_string (Strategy.to_string strategy) with
      | Ok s -> Alcotest.(check bool) "round-trip" true (s = strategy)
      | Error m -> Alcotest.failf "round-trip failed: %s" m)
    Strategy.all;
  (match Strategy.of_string "ml" with
   | Ok Strategy.Multilevel -> ()
   | Ok _ | Error _ -> Alcotest.fail "\"ml\" must parse as Multilevel");
  (match Strategy.of_string "multi-level" with
   | Ok Strategy.Multilevel -> ()
   | Ok _ | Error _ ->
     Alcotest.fail "\"multi-level\" must parse as Multilevel");
  match Strategy.validate "simulated-annealing-2" with
  | Ok _ -> Alcotest.fail "unknown strategy accepted"
  | Error m ->
    List.iter
      (fun name ->
        if not (is_infix ~affix:name m) then
          Alcotest.failf "error %S does not list %S" m name)
      Strategy.names

(* ------------------------------------------------------------------ *)
(* Generator hardening and the huge class.                             *)

let expect_spec_error label spec fragment =
  match Generator.validate_spec spec with
  | Ok _ -> Alcotest.failf "%s: invalid spec accepted" label
  | Error m ->
    if not (is_infix ~affix:fragment m) then
      Alcotest.failf "%s: error %S does not mention %S" label m fragment

let test_generator_validation () =
  let ok = Generator.default_spec in
  (match Generator.validate_spec ok with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "default spec rejected: %s" m);
  expect_spec_error "inverted modules"
    { ok with Generator.modules = (5, 2) } "modules";
  expect_spec_error "zero modules"
    { ok with Generator.modules = (0, 3) } "modules";
  expect_spec_error "zero modes" { ok with Generator.modes = (0, 2) } "modes";
  expect_spec_error "inverted clb" { ok with Generator.clb = (400, 25) } "clb";
  expect_spec_error "absence one"
    { ok with Generator.absence_probability = 1.0 } "absence";
  expect_spec_error "absence nan"
    { ok with Generator.absence_probability = Float.nan } "absence";
  expect_spec_error "negative extras"
    { ok with Generator.extra_configs = (-1, 2) } "extra_configs";
  (try
     ignore
       (Generator.generate
          ~spec:{ ok with Generator.modules = (0, 0) }
          (Synth.Rng.make 1) Generator.Logic_intensive ~index:0);
     Alcotest.fail "generate accepted an invalid spec"
   with Invalid_argument _ -> ());
  try
    ignore (Generator.huge ~seed:1 ~modules:0 ());
    Alcotest.fail "huge accepted modules=0"
  with Invalid_argument _ -> ()

let test_huge_class () =
  let d = Generator.huge ~seed:11 ~modules:30 () in
  Alcotest.(check int) "pinned module count" 30 (Design.module_count d);
  let d' = Generator.huge ~seed:11 ~modules:30 () in
  Alcotest.(check string) "deterministic in seed" (Scheme.describe
    (Scheme.one_module_per_region d))
    (Scheme.describe (Scheme.one_module_per_region d'));
  (* Module names beyond the historical six letters switch to "Mn". *)
  let names =
    Array.to_list
      (Array.map (fun m -> m.Prdesign.Pmodule.name) d.Design.modules)
  in
  Alcotest.(check bool) "letter names survive" true
    (List.mem "A" names && List.mem "F" names);
  Alcotest.(check bool) "numbered names appear" true (List.mem "M7" names)

(* ------------------------------------------------------------------ *)
(* Engine integration.                                                 *)

let test_progress_capped () =
  (* The search progress curve is bounded by the fixed sample cap no
     matter how many incumbents the solve records — the curve is only
     collected under a tracing telemetry handle. *)
  let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
  match
    Engine.solve ~telemetry ~strategy:Strategy.Anneal
      ~target:(Engine.Budget Design_library.case_study_budget)
      Design_library.video_receiver
  with
  | Error m -> Alcotest.failf "case-study solve failed: %s" m
  | Ok o ->
    let n = List.length o.Engine.search.Engine.progress in
    if n = 0 then Alcotest.fail "tracing solve collected no progress curve";
    if n > 256 then Alcotest.failf "progress curve has %d samples (cap 256)" n

let test_multilevel_rung_ladder () =
  (* A ladder that degrades into multilevel must still solve, and the
     winning rung is reported. *)
  let ladder =
    match Prguard.Ladder.of_string "multilevel,single-region" with
    | Ok l -> l
    | Error m -> Alcotest.failf "ladder parse: %s" m
  in
  let design = Generator.huge ~seed:3 ~modules:10 () in
  match
    Engine.solve ~ladder
      ~budget:(Prguard.Budget.make ~max_evals:10_000 ())
      ~target:(Engine.Budget (huge_budget design))
      design
  with
  | Error m -> Alcotest.failf "ladder solve failed: %s" m
  | Ok o ->
    let evaluation = Cost.evaluate o.Engine.scheme in
    Alcotest.(check bool) "ladder outcome feasible" true
      (Cost.fits evaluation ~budget:o.Engine.budget)

let () =
  Alcotest.run "multilevel"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip_feasible;
            prop_refinement_monotone;
            prop_jobs_bit_identical ] );
      ( "gap",
        [ Alcotest.test_case "within 10% of exact on the library" `Slow
            test_gap_vs_exact ] );
      ( "pinned",
        [ Alcotest.test_case "100-module v-cycle stats and signature" `Quick
            test_pinned_vcycle ] );
      ( "partners",
        QCheck_alcotest.to_alcotest prop_partners_match_reference
        :: [ Alcotest.test_case "limits, ties and no partner" `Quick
               test_partner_edges;
             Alcotest.test_case "v-cycle child spans" `Quick
               test_vcycle_spans;
             QCheck_alcotest.to_alcotest prop_unit_scores_match_reference ] );
      ( "coarsening",
        [ QCheck_alcotest.to_alcotest prop_coarsen_matches_reference;
          Alcotest.test_case "reaches wide masks and the balance ceiling"
            `Quick test_coarsen_coverage ] );
      ( "strategy",
        [ Alcotest.test_case "name surface" `Quick test_strategy_names ] );
      ( "generator",
        [ Alcotest.test_case "spec validation" `Quick
            test_generator_validation;
          Alcotest.test_case "huge class" `Quick test_huge_class ] );
      ( "engine",
        [ Alcotest.test_case "progress curve capped" `Quick
            test_progress_capped;
          Alcotest.test_case "multilevel ladder rung" `Quick
            test_multilevel_rung_ladder ] ) ]
