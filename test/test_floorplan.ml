(* Tests for the columnar layout and the rectangular placer. *)

module Device = Fpga.Device
module Tile = Fpga.Tile
module Resource = Fpga.Resource
module Layout = Floorplan.Layout
module Placer = Floorplan.Placer

let layout_of name = Layout.make (Device.find_exn name)

let count_kind layout kind =
  List.length (Layout.columns_of_kind layout kind)

let layout_tests =
  [ Alcotest.test_case "column counts match the device" `Quick (fun () ->
        List.iter
          (fun (d : Device.t) ->
            let layout = Layout.make d in
            Alcotest.(check int) "width"
              (d.clb_cols + d.bram_cols + d.dsp_cols)
              (Layout.width layout);
            Alcotest.(check int) "clb" d.clb_cols (count_kind layout Tile.Clb);
            Alcotest.(check int) "bram" d.bram_cols (count_kind layout Tile.Bram);
            Alcotest.(check int) "dsp" d.dsp_cols (count_kind layout Tile.Dsp))
          Device.catalogue);
    Alcotest.test_case "rows come from the device" `Quick (fun () ->
        Alcotest.(check int) "fx70t rows" 8 (Layout.rows (layout_of "FX70T")));
    Alcotest.test_case "special columns are spread out" `Quick (fun () ->
        (* No two BRAM columns adjacent on any catalogued device. *)
        List.iter
          (fun d ->
            let layout = Layout.make d in
            let brams = Layout.columns_of_kind layout Tile.Bram in
            let rec no_adjacent = function
              | a :: (b :: _ as rest) -> b - a > 1 && no_adjacent rest
              | [ _ ] | [] -> true
            in
            Alcotest.(check bool) (d.Device.short ^ " spread") true
              (no_adjacent brams))
          Device.catalogue);
    Alcotest.test_case "count_in_window" `Quick (fun () ->
        let layout = layout_of "LX30" in
        let full = Layout.width layout in
        Alcotest.(check int) "all brams" 2
          (Layout.count_in_window layout ~first:0 ~width:full Tile.Bram);
        Alcotest.(check int) "empty window" 0
          (Layout.count_in_window layout ~first:0 ~width:0 Tile.Clb));
    Alcotest.test_case "count_in_window equals a column scan" `Quick
      (fun () ->
        (* The prefix sums against a direct [kind_at] count, for every
           window and kind on every catalogued device. *)
        List.iter
          (fun d ->
            let layout = Layout.make d in
            let width = Layout.width layout in
            let scan kind ~first ~w =
              let n = ref 0 in
              for c = first to first + w - 1 do
                if Layout.kind_at layout c = kind then incr n
              done;
              !n
            in
            for first = 0 to width do
              for w = 0 to width - first do
                List.iter
                  (fun kind ->
                    if
                      Layout.count_in_window layout ~first ~width:w kind
                      <> scan kind ~first ~w
                    then
                      Alcotest.failf "%s: window [%d, %d) %s"
                        d.Device.short first (first + w) (Tile.kind_name kind))
                  [ Tile.Clb; Tile.Bram; Tile.Dsp ]
              done
            done)
          (Device.catalogue @ Device.series7));
    Alcotest.test_case "window bounds checked" `Quick (fun () ->
        let layout = layout_of "LX30" in
        match
          Layout.count_in_window layout ~first:0
            ~width:(Layout.width layout + 1) Tile.Clb
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "kind_at bounds checked" `Quick (fun () ->
        let layout = layout_of "LX30" in
        match Layout.kind_at layout (-1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "pp renders one char per column" `Quick (fun () ->
        let layout = layout_of "LX20T" in
        let s = Format.asprintf "%a" Layout.pp layout in
        Alcotest.(check int) "length" (Layout.width layout) (String.length s))
  ]

let demand clb bram dsp =
  Placer.demand_of_resources (Resource.make ~bram ~dsp clb)

let verify_placement layout demands (outcome : Placer.outcome) =
  (* Each placed rectangle provides its tile demand, rectangles are within
     bounds and pairwise disjoint. *)
  let rects =
    Array.to_list outcome.placements
    |> List.filter_map Fun.id
    |> List.filter (fun (r : Placer.rect) -> r.height > 0)
  in
  List.iter
    (fun (r : Placer.rect) ->
      Alcotest.(check bool) "within device" true
        (r.row >= 0
         && r.row + r.height <= Layout.rows layout
         && r.col >= 0
         && r.col + r.width <= Layout.width layout))
    rects;
  let overlap (a : Placer.rect) (b : Placer.rect) =
    a.row < b.row + b.height
    && b.row < a.row + a.height
    && a.col < b.col + b.width
    && b.col < a.col + a.width
  in
  let rec pairwise = function
    | [] -> ()
    | r :: rest ->
      List.iter
        (fun r' ->
          Alcotest.(check bool) "disjoint" false (overlap r r'))
        rest;
      pairwise rest
  in
  pairwise rects;
  Array.iteri
    (fun i rect ->
      match rect with
      | Some (r : Placer.rect) when r.height > 0 ->
        let d : Placer.demand = demands.(i) in
        let covered kind =
          r.height * Layout.count_in_window layout ~first:r.col ~width:r.width kind
        in
        Alcotest.(check bool) "clb satisfied" true
          (covered Tile.Clb >= d.clb_tiles);
        Alcotest.(check bool) "bram satisfied" true
          (covered Tile.Bram >= d.bram_tiles);
        Alcotest.(check bool) "dsp satisfied" true
          (covered Tile.Dsp >= d.dsp_tiles)
      | Some _ | None -> ())
    outcome.placements

let placer_tests =
  [ Alcotest.test_case "demand_of_resources quantises" `Quick (fun () ->
        let d = demand 21 1 9 in
        Alcotest.(check int) "clb tiles" 2 d.Placer.clb_tiles;
        Alcotest.(check int) "bram tiles" 1 d.bram_tiles;
        Alcotest.(check int) "dsp tiles" 2 d.dsp_tiles);
    Alcotest.test_case "single small region places" `Quick (fun () ->
        let layout = layout_of "LX30" in
        let demands = [| demand 100 4 8 |] in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "no failures" [] outcome.failed;
        verify_placement layout demands outcome);
    Alcotest.test_case "several regions place disjointly" `Quick (fun () ->
        let layout = layout_of "FX70T" in
        let demands =
          [| demand 400 8 8; demand 1000 16 16; demand 200 0 0; demand 60 4 0 |]
        in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "no failures" [] outcome.failed;
        verify_placement layout demands outcome;
        Alcotest.(check bool) "utilisation sane" true
          (outcome.utilisation > 0. && outcome.utilisation <= 1.));
    Alcotest.test_case "zero demand occupies nothing" `Quick (fun () ->
        let layout = layout_of "LX20T" in
        let demands = [| demand 0 0 0; demand 100 0 0 |] in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "no failures" [] outcome.failed;
        match outcome.placements.(0) with
        | Some r -> Alcotest.(check int) "empty rect" 0 (r.height * r.width)
        | None -> Alcotest.fail "zero demand should trivially place");
    Alcotest.test_case "oversized demand fails" `Quick (fun () ->
        let layout = layout_of "LX20T" in
        let demands = [| demand 10_000 0 0 |] in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "failed" [ 0 ] outcome.failed;
        Alcotest.(check bool) "fits mirror" false (Placer.fits layout demands));
    Alcotest.test_case "scarce-resource demand beyond device fails" `Quick
      (fun () ->
        let layout = layout_of "LX20T" in
        (* LX20T has 24 BRAMs = 6 tiles. *)
        let outcome = Placer.place layout [| demand 20 28 0 |] in
        Alcotest.(check (list int)) "failed" [ 0 ] outcome.failed);
    Alcotest.test_case "regions needing no BRAM avoid BRAM columns" `Quick
      (fun () ->
        (* Waste-aware scoring: a pure-CLB region on a fresh device should
           not cover any BRAM or DSP column if a CLB-only window exists. *)
        let layout = layout_of "FX130T" in
        let outcome = Placer.place layout [| demand 100 0 0 |] in
        match outcome.placements.(0) with
        | Some r ->
          Alcotest.(check int) "no bram" 0
            (Layout.count_in_window layout ~first:r.col ~width:r.width Tile.Bram);
          Alcotest.(check int) "no dsp" 0
            (Layout.count_in_window layout ~first:r.col ~width:r.width Tile.Dsp)
        | None -> Alcotest.fail "expected placement");
    Alcotest.test_case "case-study scheme floorplans on FX130T" `Quick
      (fun () ->
        let design = Prdesign.Design_library.video_receiver in
        match
          Prcore.Engine.solve
            ~target:
              (Prcore.Engine.Budget Prdesign.Design_library.case_study_budget)
            design
        with
        | Error m -> Alcotest.fail m
        | Ok o ->
          let scheme = o.Prcore.Engine.scheme in
          let layout = layout_of "FX130T" in
          let demands =
            Array.init
              (scheme.Prcore.Scheme.region_count + 1)
              (fun i ->
                if i < scheme.Prcore.Scheme.region_count then
                  Placer.demand_of_resources
                    (Prcore.Scheme.region_resources scheme i)
                else
                  Placer.demand_of_resources
                    (Prcore.Scheme.static_resources scheme))
          in
          let outcome = Placer.place layout demands in
          Alcotest.(check (list int)) "all placed" [] outcome.failed;
          verify_placement layout demands outcome) ]

(* Regression: [find_spot] used to stop widening a window at the first
   satisfying width, so a slightly wider window with strictly less scarce-
   tile waste was never even considered.  The fixed placer keeps widening
   (bounded by the best area seen) and must therefore agree with a
   brute-force enumeration of {e every} free rectangle on the
   (waste, area) objective. *)

let spot_cost layout (d : Placer.demand) (r : Placer.rect) =
  let covered kind =
    r.height * Layout.count_in_window layout ~first:r.col ~width:r.width kind
  in
  let waste =
    (covered Tile.Clb - d.Placer.clb_tiles)
    + (8 * (covered Tile.Bram - d.bram_tiles))
    + (8 * (covered Tile.Dsp - d.dsp_tiles))
  in
  (waste, r.height * r.width)

(* Exhaustive oracle on an empty layout: the minimal (waste, area) over
   every rectangle of whole tiles that satisfies [d]. *)
let oracle_best_cost layout (d : Placer.demand) =
  let rows = Layout.rows layout and width = Layout.width layout in
  let best = ref None in
  for height = 1 to rows do
    for row = 0 to rows - height do
      for col = 0 to width - 1 do
        for w = 1 to width - col do
          let r : Placer.rect = { row; height; col; width = w } in
          let covered kind =
            height * Layout.count_in_window layout ~first:col ~width:w kind
          in
          if
            covered Tile.Clb >= d.Placer.clb_tiles
            && covered Tile.Bram >= d.bram_tiles
            && covered Tile.Dsp >= d.dsp_tiles
          then begin
            let cost = spot_cost layout d r in
            match !best with
            | Some b when b <= cost -> ()
            | Some _ | None -> best := Some cost
          end
        done
      done
    done
  done;
  !best

let check_against_oracle device (d : Placer.demand) =
  let layout = layout_of device in
  let outcome = Placer.place layout [| d |] in
  match (outcome.placements.(0), oracle_best_cost layout d) with
  | None, None -> ()
  | Some r, Some best ->
    let got = spot_cost layout d r in
    Alcotest.(check (pair int int))
      (Printf.sprintf "optimal (waste, area) on %s" device)
      best got
  | Some _, None -> Alcotest.fail "placer placed an unsatisfiable demand"
  | None, Some _ -> Alcotest.fail "placer missed a satisfiable demand"

let spot_oracle_tests =
  let case name device d =
    Alcotest.test_case name `Quick (fun () -> check_against_oracle device d)
  in
  [ case "clb-only demand" "LX30" (demand 400 0 0);
    case "bram-heavy demand" "LX30" (demand 50 12 0);
    case "dsp-heavy demand" "SX35T" (demand 50 0 24);
    case "mixed demand" "SX35T" (demand 600 8 12);
    case "near-capacity demand" "LX20T" (demand 900 4 4);
    case "single tile" "LX20T" (demand 1 0 0);
    Alcotest.test_case "clb-only region avoids scarce columns" `Quick
      (fun () ->
        (* A pure-CLB demand must not sit on BRAM/DSP columns when free
           CLB columns can serve it: zero scarce-tile waste. *)
        let layout = layout_of "LX30" in
        let d = demand 200 0 0 in
        let outcome = Placer.place layout [| d |] in
        match outcome.placements.(0) with
        | None -> Alcotest.fail "expected a placement"
        | Some r ->
          let covered kind =
            r.Placer.height
            * Layout.count_in_window layout ~first:r.col ~width:r.width kind
          in
          Alcotest.(check int) "no bram columns" 0 (covered Tile.Bram);
          Alcotest.(check int) "no dsp columns" 0 (covered Tile.Dsp)) ]

(* ------------------------------------------------------------------ *)
(* Map glyphs: regression for the aliasing beyond 35 regions, and the
   empty-rect normalisation of zero-volume demands. *)

let map_tests =
  [ Alcotest.test_case "glyphs are distinct below the fallback" `Quick
      (fun () ->
        let glyphs = List.init 59 Placer.glyph in
        let distinct = List.sort_uniq Char.compare glyphs in
        Alcotest.(check int) "59 distinct glyphs" 59 (List.length distinct);
        List.iteri
          (fun i g ->
            Alcotest.(check bool)
              (Printf.sprintf "glyph %d avoids map markers" i)
              false
              (List.mem g [ '#'; '.'; 'B'; 'D'; '+' ]))
          glyphs;
        Alcotest.(check char) "fallback" '+' (Placer.glyph 59);
        Alcotest.(check char) "fallback is constant" '+' (Placer.glyph 4096);
        match Placer.glyph (-1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "40-region map stays unambiguous" `Quick (fun () ->
        (* Regression: beyond 35 regions the old alphabet ran out and
           aliased region glyphs with the '#' overlap marker. *)
        let layout = layout_of "FX130T" in
        let demands = Array.init 40 (fun _ -> demand 1 0 0) in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "all placed" [] outcome.failed;
        let map = Placer.render_map layout outcome.placements in
        Alcotest.(check bool) "no overlap marker" false
          (String.contains map '#');
        Array.iteri
          (fun i rect ->
            match rect with
            | Some (r : Placer.rect) when not (Placer.is_empty r) ->
              let g = Placer.glyph i in
              Alcotest.(check bool)
                (Printf.sprintf "glyph %c of region %d is on the map" g i)
                true (String.contains map g)
            | Some _ | None -> ())
          outcome.placements);
    Alcotest.test_case "many-region fallback never collides" `Quick
      (fun () ->
        let layout = layout_of "FX200T" in
        let demands = Array.init 62 (fun _ -> demand 1 0 0) in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "all placed" [] outcome.failed;
        let map = Placer.render_map layout outcome.placements in
        Alcotest.(check bool) "fallback rendered" true
          (String.contains map '+');
        Alcotest.(check bool) "no overlap marker" false
          (String.contains map '#'));
    Alcotest.test_case "zero demand normalises to the empty rect" `Quick
      (fun () ->
        let layout = layout_of "LX20T" in
        let demands = [| demand 0 0 0; demand 100 0 0 |] in
        let outcome = Placer.place layout demands in
        Alcotest.(check (list int)) "no failures" [] outcome.failed;
        (match outcome.placements.(0) with
         | Some r ->
           Alcotest.(check bool) "is_empty" true (Placer.is_empty r);
           Alcotest.(check bool) "the canonical empty rect" true
             (r = Placer.empty_rect);
           Alcotest.(check string) "pp_rect" "empty"
             (Format.asprintf "%a" Placer.pp_rect r)
         | None -> Alcotest.fail "zero demand should trivially place");
        (* The empty region paints no cells: its glyph never appears. *)
        let map = Placer.render_map layout outcome.placements in
        Alcotest.(check bool) "glyph absent" false
          (String.contains map (Placer.glyph 0));
        Alcotest.(check bool) "real region present" true
          (String.contains map (Placer.glyph 1)));
    Alcotest.test_case "oracle: zero demand with a real rect is V-FLP-005"
      `Quick (fun () ->
        let layout = layout_of "LX20T" in
        let demands = [| demand 0 0 0; demand 100 0 0 |] in
        let outcome = Placer.place layout demands in
        let clean =
          Prverify.Oracle.check_floorplan ~layout ~demands outcome.placements
        in
        Alcotest.(check bool) "normalised placement is clean" true
          (Prverify.Diagnostic.ok clean);
        (* Hand the zero-volume demand a real rectangle: the oracle must
           reject it even though it covers its (empty) demand. *)
        let tampered = Array.copy outcome.placements in
        tampered.(0) <- Some { Placer.row = 0; height = 1; col = 0; width = 1 };
        let diags =
          Prverify.Oracle.check_floorplan ~layout ~demands tampered
        in
        Alcotest.(check bool) "V-FLP-005 raised" true
          (List.exists
             (fun (d : Prverify.Diagnostic.t) ->
               d.Prverify.Diagnostic.code = "V-FLP-005")
             (Prverify.Diagnostic.errors diags))) ]

(* ------------------------------------------------------------------ *)
(* The placeability estimator. *)

module Estimate = Floorplan.Estimate

let est_res ?bram ?dsp clb = Resource.make ?bram ?dsp clb

let estimate_tests =
  [ Alcotest.test_case "small demand is placeable with bounded waste"
      `Quick (fun () ->
        let est = Estimate.create (layout_of "LX30") in
        let r = Estimate.assess est [| est_res 100 |] in
        Alcotest.(check bool) "placeable" true
          (r.Estimate.verdict = Estimate.Placeable);
        Alcotest.(check bool) "waste-band penalty" true
          (r.Estimate.penalty >= 0 && r.Estimate.penalty < 1 lsl 22));
    Alcotest.test_case "capacity deficit is infeasible" `Quick (fun () ->
        let est = Estimate.create (layout_of "LX20T") in
        let r = Estimate.assess est [| est_res 100_000 |] in
        Alcotest.(check bool) "infeasible" true
          (r.Estimate.verdict = Estimate.Infeasible);
        Alcotest.(check bool) "infeasible band" true
          (r.Estimate.penalty >= 1 lsl 26));
    Alcotest.test_case "scarce fragmentation is crowded" `Quick (fun () ->
        (* LX30 has two BRAM columns: three demands each needing their
           own BRAM column cannot strip-pack, though each fits alone and
           total capacity suffices. *)
        let est = Estimate.create (layout_of "LX30") in
        let d = est_res 20 ~bram:1 in
        let r = Estimate.assess est [| d; d; d |] in
        Alcotest.(check bool) "crowded" true
          (r.Estimate.verdict = Estimate.Crowded);
        Alcotest.(check bool) "crowded band" true
          (r.Estimate.penalty >= 1 lsl 22 && r.Estimate.penalty < 1 lsl 26);
        Alcotest.(check bool) "fragmentation reported" true
          (r.Estimate.fragmentation > 0.));
    Alcotest.test_case "penalty is order-insensitive" `Quick (fun () ->
        let est = Estimate.create (layout_of "SX35T") in
        let a = est_res 400 ~bram:2
        and b = est_res 90 ~dsp:8
        and c = est_res 1200 in
        Alcotest.(check int) "permutation"
          (Estimate.penalty est [| a; b; c |])
          (Estimate.penalty est [| c; a; b |]));
    Alcotest.test_case "zero demands are ignored" `Quick (fun () ->
        let est = Estimate.create (layout_of "SX35T") in
        let a = est_res 400 ~bram:2 in
        Alcotest.(check int) "padding with zeros"
          (Estimate.penalty est [| a |])
          (Estimate.penalty est [| Resource.zero; a; Resource.zero |])) ]

(* The verify oracle re-derives the estimator's penalty with direct
   column scans (no shared code): both must agree bit-exactly on every
   library design, and a tampered report must raise V-FLP-006. *)
let oracle_penalty_tests =
  [ Alcotest.test_case "oracle re-derivation matches the estimator" `Quick
      (fun () ->
        List.iter
          (fun (dname, design) ->
            let scheme = Prcore.Scheme.one_module_per_region design in
            List.iter
              (fun device ->
                let layout = layout_of device in
                let expected =
                  Floorplan.Estimate.penalty
                    (Floorplan.Estimate.create layout)
                    (Prcore.Cost.placement_demands scheme)
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s on %s" dname device)
                  expected
                  (Prverify.Oracle.derive_placement_penalty ~layout scheme))
              [ "LX30"; "SX35T"; "FX70T" ])
          Prdesign.Design_library.all);
    Alcotest.test_case "correct report passes, tampered is V-FLP-006"
      `Quick (fun () ->
        let scheme =
          Prcore.Scheme.one_module_per_region
            Prdesign.Design_library.fragmented_filter
        in
        let layout = layout_of "LX30" in
        let good = Prverify.Oracle.derive_placement_penalty ~layout scheme in
        Alcotest.(check bool) "clean" true
          (Prverify.Diagnostic.ok
             (Prverify.Oracle.check_placement_penalty scheme ~layout
                ~reported:good));
        let diags =
          Prverify.Oracle.check_placement_penalty scheme ~layout
            ~reported:(good + 1)
        in
        Alcotest.(check bool) "V-FLP-006" true
          (Prverify.Diagnostic.has_code "V-FLP-006" diags)) ]

(* Differential one-sided soundness: whenever the estimator calls a
   demand set [Placeable], the real placer must succeed on it. (The
   converse may fail: [Crowded] sets can still place.) *)
let prop_estimator_sound =
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ "LX20T"; "LX30"; "SX35T"; "FX70T" ])
        (list_size (1 -- 5) (triple (0 -- 2000) (0 -- 20) (0 -- 30))))
  in
  QCheck2.Test.make
    ~name:"estimator Placeable implies the placer succeeds" ~count:120 gen
    (fun (device, specs) ->
      let layout = layout_of device in
      let est = Estimate.create layout in
      let resources =
        Array.of_list
          (List.map (fun (c, b, d) -> Resource.make ~bram:b ~dsp:d c) specs)
      in
      let r = Estimate.assess est resources in
      if r.Estimate.verdict <> Estimate.Placeable then true
      else begin
        let demands = Array.map Placer.demand_of_resources resources in
        let outcome = Placer.place layout demands in
        outcome.Placer.failed = []
      end)

(* Utilisation is exactly the covered cell fraction: the placements are
   pairwise disjoint, so it must equal the summed rectangle areas over
   the fabric area. *)
let prop_utilisation_exact =
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ "LX20T"; "LX30"; "SX35T" ])
        (list_size (1 -- 5) (triple (0 -- 1500) (0 -- 12) (0 -- 16))))
  in
  QCheck2.Test.make ~name:"utilisation equals the covered cell fraction"
    ~count:80 gen (fun (device, specs) ->
      let layout = layout_of device in
      let demands =
        Array.of_list (List.map (fun (c, b, d) -> demand c b d) specs)
      in
      let outcome = Placer.place layout demands in
      let covered =
        Array.fold_left
          (fun acc rect ->
            match rect with
            | Some (r : Placer.rect) when not (Placer.is_empty r) ->
              acc + (r.height * r.width)
            | Some _ | None -> acc)
          0 outcome.placements
      in
      let cells = Layout.rows layout * Layout.width layout in
      outcome.utilisation = float_of_int covered /. float_of_int cells)

(* fit_on_sweep picks the capacity-smallest workable device: everything
   strictly smaller in the sweep must fail to place the demands. *)
let prop_fit_on_sweep_smallest =
  let gen =
    QCheck2.Gen.(list_size (1 -- 4) (triple (0 -- 3000) (0 -- 16) (0 -- 24)))
  in
  QCheck2.Test.make
    ~name:"fit_on_sweep returns the capacity-smallest fitting device"
    ~count:30 gen (fun specs ->
      let demands =
        Array.of_list (List.map (fun (c, b, d) -> demand c b d) specs)
      in
      match Placer.fit_on_sweep demands with
      | None -> true
      | Some (device, outcome) ->
        outcome.Placer.failed = []
        && List.for_all
             (fun d ->
               if Device.compare_capacity d device < 0 then
                 (Placer.place (Layout.make d) demands).Placer.failed <> []
               else true)
             Device.sweep)

(* Property: on an empty layout the placer matches the brute-force
   (waste, area) optimum for any single demand. *)
let prop_spot_optimal =
  let gen =
    QCheck2.Gen.(
      pair (oneofl [ "LX20T"; "LX30" ]) (triple (0 -- 1200) (0 -- 12) (0 -- 16)))
  in
  QCheck2.Test.make ~name:"single placement is (waste, area)-optimal"
    ~count:40 gen (fun (device, (c, b, ds)) ->
      check_against_oracle device (demand c b ds);
      true)

(* Property: whatever the outcome, reported placements satisfy their
   demands and never overlap. *)
let prop_placements_valid =
  let gen =
    QCheck2.Gen.(
      pair (oneofl [ "LX20T"; "LX30"; "SX35T"; "FX70T" ])
        (list_size (1 -- 5)
           (triple (0 -- 2000) (0 -- 20) (0 -- 30))))
  in
  QCheck2.Test.make ~name:"placements satisfy demands and stay disjoint"
    ~count:60 gen (fun (device, specs) ->
      let layout = layout_of device in
      let demands =
        Array.of_list (List.map (fun (c, b, d) -> demand c b d) specs)
      in
      let outcome = Placer.place layout demands in
      verify_placement layout demands outcome;
      true)

let () =
  Alcotest.run "floorplan"
    [ ("layout", layout_tests);
      ("placer", placer_tests);
      ("map", map_tests);
      ("estimate", estimate_tests);
      ("oracle-penalty", oracle_penalty_tests);
      ("spot-oracle", spot_oracle_tests);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_spot_optimal;
           prop_placements_valid;
           prop_estimator_sound;
           prop_utilisation_exact;
           prop_fit_on_sweep_smallest ]) ]
