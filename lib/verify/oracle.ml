module Design = Prdesign.Design
module Configuration = Prdesign.Configuration
module Pmodule = Prdesign.Pmodule
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Tile = Fpga.Tile
module D = Diagnostic

type place = Static | Region of int
type member = { modes : int list; place : place }
type grouping = member list

let grouping_of_scheme (s : Scheme.t) =
  List.init (Array.length s.Scheme.partitions) (fun p ->
      { modes = s.Scheme.partitions.(p).Base_partition.modes;
        place =
          (match s.Scheme.placement.(p) with
           | Scheme.Static -> Static
           | Scheme.Region r -> Region r) })

(* ------------------------------------------------------------------ *)
(* Shared from-scratch machinery.                                      *)

(* Greedy best-coverage activity resolution, re-implemented from the
   documented semantics (paper §IV-C): repeatedly pick the member
   covering the most still-uncovered modes of the configuration
   (earliest member on ties), until nothing new is covered. Returns the
   active flags and the modes left unprovided. *)
let resolve_activity (members : member array) config_modes =
  let n = Array.length members in
  let active = Array.make n false in
  let uncovered = ref config_modes in
  let rec loop () =
    if !uncovered <> [] then begin
      let best = ref (-1) and best_covered = ref 0 in
      for p = 0 to n - 1 do
        let covered =
          List.length
            (List.filter (fun m -> List.mem m members.(p).modes) !uncovered)
        in
        if covered > !best_covered then begin
          best := p;
          best_covered := covered
        end
      done;
      if !best >= 0 then begin
        active.(!best) <- true;
        uncovered :=
          List.filter
            (fun m -> not (List.mem m members.(!best).modes))
            !uncovered;
        loop ()
      end
    end
  in
  loop ();
  (active, !uncovered)

(* Activity per configuration over the whole member list. *)
let activity_table design (members : member array) =
  let configs = Design.configuration_count design in
  Array.init configs (fun c ->
      resolve_activity members (Design.config_mode_ids design c))

let region_count_of (members : member array) =
  Array.fold_left
    (fun acc m ->
      match m.place with Region r -> max acc (r + 1) | Static -> acc)
    0 members

let region_members_of (members : member array) r =
  let acc = ref [] in
  Array.iteri
    (fun p m ->
      match m.place with
      | Region r' when r' = r -> acc := p :: !acc
      | Region _ | Static -> ())
    members;
  List.rev !acc

(* Resident member per (config, region): the lowest-index active member
   of the region, or -1 when the configuration leaves the region as a
   don't-care. *)
let residency design (members : member array) =
  let activity = activity_table design members in
  let regions = region_count_of members in
  Array.map
    (fun (active, _) ->
      Array.init regions (fun r ->
          match List.find_opt (fun p -> active.(p)) (region_members_of members r)
          with
          | Some p -> p
          | None -> -1))
    activity

let member_resources design (m : member) =
  Resource.sum (List.map (Design.mode_resources design) m.modes)

let region_resources_of design (members : member array) r =
  List.fold_left
    (fun acc p -> Resource.max acc (member_resources design members.(p)))
    Resource.zero (region_members_of members r)

let members_of_scheme s = Array.of_list (grouping_of_scheme s)

(* ------------------------------------------------------------------ *)
(* Design well-formedness.                                             *)

let stage_design = "design"

let check_design (design : Design.t) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let module_count = Design.module_count design in
  let configs = Design.configuration_count design in
  (* Structural checks straight off the configuration records. *)
  Array.iteri
    (fun c (conf : Configuration.t) ->
      if conf.Configuration.choices = [] then
        emit
          (D.error ~code:"V-DSN-001" ~stage:stage_design
             "configuration %d (%s) selects no modes" c conf.Configuration.name);
      List.iter
        (fun (m, k) ->
          if m < 0 || m >= module_count then
            emit
              (D.error ~code:"V-DSN-002" ~stage:stage_design
                 "configuration %s references module %d outside [0, %d)"
                 conf.Configuration.name m module_count)
          else begin
            let modes = Pmodule.mode_count design.Design.modules.(m) in
            if k < 0 || k >= modes then
              emit
                (D.error ~code:"V-DSN-002" ~stage:stage_design
                   "configuration %s references mode %d of module %s \
                    outside [0, %d)"
                   conf.Configuration.name k
                   design.Design.modules.(m).Pmodule.name modes)
          end)
        conf.Configuration.choices)
    design.Design.configurations;
  (* Connectivity-matrix cross-check: the matrix must be symmetric, its
     diagonal must equal the column sums, and every weight must agree
     with a direct recount of configuration co-occurrence. *)
  let matrix = Prgraph.Conn_matrix.make design in
  let modes = Design.mode_count design in
  let co_occurrence i j =
    let count = ref 0 in
    for c = 0 to configs - 1 do
      let active = Design.config_mode_ids design c in
      if List.mem i active && List.mem j active then incr count
    done;
    !count
  in
  (try
     for i = 0 to modes - 1 do
       for j = i to modes - 1 do
         let w = Prgraph.Conn_matrix.edge_weight matrix i j in
         let w' = Prgraph.Conn_matrix.edge_weight matrix j i in
         if w <> w' then
           emit
             (D.error ~code:"V-DSN-003" ~stage:stage_design
                "connectivity matrix asymmetric at (%s, %s): %d vs %d"
                (Design.mode_name design i) (Design.mode_name design j) w w');
         let expected = co_occurrence i j in
         if w <> expected then
           emit
             (D.error ~code:"V-DSN-003" ~stage:stage_design
                "connectivity weight (%s, %s) is %d but %d configurations \
                 co-activate the pair"
                (Design.mode_name design i) (Design.mode_name design j) w
                expected)
       done;
       if
         Prgraph.Conn_matrix.edge_weight matrix i i
         <> Prgraph.Conn_matrix.node_weight matrix i
       then
         emit
           (D.error ~code:"V-DSN-003" ~stage:stage_design
              "connectivity diagonal of %s disagrees with its column sum"
              (Design.mode_name design i))
     done
   with Invalid_argument message ->
     emit
       (D.error ~code:"V-DSN-003" ~stage:stage_design
          "connectivity matrix rejected an in-range probe: %s" message));
  (* Unused modes and duplicate configurations. *)
  List.iter
    (fun mode ->
      if Prgraph.Conn_matrix.node_weight matrix mode = 0 then
        emit
          (D.warning ~code:"V-DSN-004" ~stage:stage_design
             "mode %s is used by no configuration"
             (Design.mode_name design mode)))
    (Design.all_mode_ids design);
  for i = 0 to configs - 1 do
    for j = i + 1 to configs - 1 do
      if Design.config_mode_ids design i = Design.config_mode_ids design j then
        emit
          (D.warning ~code:"V-DSN-005" ~stage:stage_design
             "configurations %s and %s select identical mode sets"
             design.Design.configurations.(i).Configuration.name
             design.Design.configurations.(j).Configuration.name)
    done
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Covering and conflict-freedom.                                      *)

let stage_cover = "cover"

let check_grouping design (grouping : grouping) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let members = Array.of_list grouping in
  let mode_count = Design.mode_count design in
  let malformed = ref false in
  Array.iteri
    (fun p (m : member) ->
      if m.modes = [] then begin
        malformed := true;
        emit
          (D.error ~code:"V-CVR-003" ~stage:stage_cover
             "member %d has an empty mode list" p)
      end;
      List.iter
        (fun mode ->
          if mode < 0 || mode >= mode_count then begin
            malformed := true;
            emit
              (D.error ~code:"V-CVR-003" ~stage:stage_cover
                 "member %d references mode id %d outside [0, %d)" p mode
                 mode_count)
          end)
        m.modes;
      match m.place with
      | Region r when r < 0 ->
        malformed := true;
        emit
          (D.error ~code:"V-CVR-003" ~stage:stage_cover
             "member %d is assigned negative region %d" p r)
      | Region _ | Static -> ())
    members;
  if !malformed then List.rev !out
  else begin
    let regions = region_count_of members in
    for r = 0 to regions - 1 do
      if region_members_of members r = [] then
        emit
          (D.error ~code:"V-CVR-002" ~stage:stage_cover
             "region numbering is not dense: region %d of %d is empty" r
             regions)
    done;
    let activity = activity_table design members in
    let configs = Design.configuration_count design in
    let ever_active = Array.make (Array.length members) false in
    for c = 0 to configs - 1 do
      let active, uncovered = activity.(c) in
      Array.iteri (fun p a -> if a then ever_active.(p) <- true) active;
      if uncovered <> [] then
        emit
          (D.error ~code:"V-CVR-001" ~stage:stage_cover
             "configuration %s is not covered: no member provides %s"
             design.Design.configurations.(c).Configuration.name
             (String.concat ", "
                (List.map (Design.mode_name design) uncovered)));
      for r = 0 to regions - 1 do
        let co_active =
          List.filter (fun p -> active.(p)) (region_members_of members r)
        in
        if List.length co_active > 1 then
          emit
            (D.error ~code:"V-CVR-004" ~stage:stage_cover
               "region %d hosts %d simultaneously active members in \
                configuration %s (members %s)"
               r (List.length co_active)
               design.Design.configurations.(c).Configuration.name
               (String.concat ", " (List.map string_of_int co_active)))
      done
    done;
    Array.iteri
      (fun p a ->
        if not a then
          emit
            (D.warning ~code:"V-CVR-005" ~stage:stage_cover
               "member %d is active in no configuration" p))
      ever_active;
    List.rev !out
  end

let check_scheme (s : Scheme.t) =
  check_grouping s.Scheme.design (grouping_of_scheme s)

(* ------------------------------------------------------------------ *)
(* Cost re-derivation.                                                 *)

let stage_cost = "cost"

let derive_evaluation (s : Scheme.t) =
  let design = s.Scheme.design in
  let members = members_of_scheme s in
  let regions = region_count_of members in
  let region_frames =
    Array.init regions (fun r ->
        Tile.frames_of_resources (region_resources_of design members r))
  in
  let resid = residency design members in
  let configs = Design.configuration_count design in
  let region_conflicts =
    Array.init regions (fun r ->
        let count = ref 0 in
        for i = 0 to configs - 1 do
          for j = i + 1 to configs - 1 do
            let a = resid.(i).(r) and b = resid.(j).(r) in
            if a >= 0 && b >= 0 && a <> b then incr count
          done
        done;
        !count)
  in
  let total_frames =
    let acc = ref 0 in
    Array.iteri (fun r f -> acc := !acc + (f * region_conflicts.(r))) region_frames;
    !acc
  in
  let worst_frames =
    let worst = ref 0 in
    for i = 0 to configs - 1 do
      for j = i + 1 to configs - 1 do
        let cost = ref 0 in
        for r = 0 to regions - 1 do
          let a = resid.(i).(r) and b = resid.(j).(r) in
          if a >= 0 && b >= 0 && a <> b then cost := !cost + region_frames.(r)
        done;
        if !cost > !worst then worst := !cost
      done
    done;
    !worst
  in
  let static =
    Array.fold_left
      (fun acc (m : member) ->
        match m.place with
        | Static -> Resource.add acc (member_resources design m)
        | Region _ -> acc)
      design.Design.static_overhead members
  in
  let reconfigurable =
    let acc = ref Resource.zero in
    for r = 0 to regions - 1 do
      acc :=
        Resource.add !acc (Tile.quantize (region_resources_of design members r))
    done;
    !acc
  in
  { Cost.region_frames;
    region_conflicts;
    total_frames;
    worst_frames;
    reconfigurable;
    static;
    used = Resource.add reconfigurable static }

let check_cost (s : Scheme.t) (reported : Cost.evaluation) =
  let fresh = derive_evaluation s in
  let out = ref [] in
  let emit d = out := d :: !out in
  if reported.Cost.total_frames <> fresh.Cost.total_frames then
    emit
      (D.error ~code:"V-CST-001" ~stage:stage_cost
         "reported total of %d frames; re-derivation gives %d"
         reported.Cost.total_frames fresh.Cost.total_frames);
  if reported.Cost.worst_frames <> fresh.Cost.worst_frames then
    emit
      (D.error ~code:"V-CST-002" ~stage:stage_cost
         "reported worst case of %d frames; re-derivation gives %d"
         reported.Cost.worst_frames fresh.Cost.worst_frames);
  if reported.Cost.region_frames <> fresh.Cost.region_frames then
    emit
      (D.error ~code:"V-CST-003" ~stage:stage_cost
         "reported per-region frames [%s]; re-derivation gives [%s]"
         (String.concat "; "
            (Array.to_list (Array.map string_of_int reported.Cost.region_frames)))
         (String.concat "; "
            (Array.to_list (Array.map string_of_int fresh.Cost.region_frames))));
  if reported.Cost.region_conflicts <> fresh.Cost.region_conflicts then
    emit
      (D.error ~code:"V-CST-005" ~stage:stage_cost
         "reported per-region conflicts [%s]; re-derivation gives [%s]"
         (String.concat "; "
            (Array.to_list
               (Array.map string_of_int reported.Cost.region_conflicts)))
         (String.concat "; "
            (Array.to_list
               (Array.map string_of_int fresh.Cost.region_conflicts))));
  if
    not
      (Resource.equal reported.Cost.reconfigurable fresh.Cost.reconfigurable
      && Resource.equal reported.Cost.static fresh.Cost.static
      && Resource.equal reported.Cost.used fresh.Cost.used)
  then
    emit
      (D.error ~code:"V-CST-004" ~stage:stage_cost
         "reported resources (used %s = reconfigurable %s + static %s) \
          disagree with the re-derivation (used %s = reconfigurable %s + \
          static %s)"
         (Resource.to_string reported.Cost.used)
         (Resource.to_string reported.Cost.reconfigurable)
         (Resource.to_string reported.Cost.static)
         (Resource.to_string fresh.Cost.used)
         (Resource.to_string fresh.Cost.reconfigurable)
         (Resource.to_string fresh.Cost.static));
  List.rev !out

let check_budget (s : Scheme.t) ~budget =
  let fresh = derive_evaluation s in
  if Resource.fits fresh.Cost.used ~within:budget then []
  else
    [ D.error ~code:"V-CST-006" ~stage:stage_cost
        "re-derived usage %s exceeds the budget %s"
        (Resource.to_string fresh.Cost.used)
        (Resource.to_string budget) ]

(* ------------------------------------------------------------------ *)
(* Floorplan.                                                          *)

let stage_floorplan = "floorplan"

let derive_demands (s : Scheme.t) =
  let design = s.Scheme.design in
  let members = members_of_scheme s in
  let regions = region_count_of members in
  Array.init (regions + 1) (fun i ->
      if i < regions then
        Floorplan.Placer.demand_of_resources
          (region_resources_of design members i)
      else begin
        let static =
          Array.fold_left
            (fun acc (m : member) ->
              match m.place with
              | Static -> Resource.add acc (member_resources design m)
              | Region _ -> acc)
            design.Design.static_overhead members
        in
        Floorplan.Placer.demand_of_resources static
      end)

let demand_volume (d : Floorplan.Placer.demand) =
  d.Floorplan.Placer.clb_tiles + d.Floorplan.Placer.bram_tiles
  + d.Floorplan.Placer.dsp_tiles

(* Columns of [kind] in [first, first+w), counted one column at a time
   with [Layout.kind_at]: the oracle's own window count, independent of
   the prefix sums behind [Layout.count_in_window]. *)
let count_columns layout kind ~first ~w =
  let count = ref 0 in
  for c = first to first + w - 1 do
    if Floorplan.Layout.kind_at layout c = kind then incr count
  done;
  !count

let label_of_demand regions i =
  if i < regions then Printf.sprintf "PRR%d" (i + 1) else "static"

let check_floorplan ~layout ~demands placements =
  let out = ref [] in
  let emit d = out := d :: !out in
  let rows = Floorplan.Layout.rows layout
  and width = Floorplan.Layout.width layout in
  let n = Array.length demands in
  let regions = n - 1 in
  let label = label_of_demand regions in
  if Array.length placements <> n then
    emit
      (D.error ~code:"V-FLP-004" ~stage:stage_floorplan
         "%d demands but %d placements" n (Array.length placements));
  let rect_of i =
    if i >= Array.length placements then None else placements.(i)
  in
  for i = 0 to n - 1 do
    match rect_of i with
    | None ->
      if demand_volume demands.(i) > 0 then
        emit
          (D.error ~code:"V-FLP-004" ~stage:stage_floorplan
             "%s (demand %d/%d/%d tiles) is unplaced" (label i)
             demands.(i).Floorplan.Placer.clb_tiles
             demands.(i).Floorplan.Placer.bram_tiles
             demands.(i).Floorplan.Placer.dsp_tiles)
    | Some (rect : Floorplan.Placer.rect) ->
      if demand_volume demands.(i) = 0 then begin
        (* A zero-volume demand must carry the degenerate empty rect:
           a real rectangle would consume fabric (and participate in
           overlap checks) for nothing. *)
        if rect.Floorplan.Placer.height > 0 && rect.Floorplan.Placer.width > 0
        then
          emit
            (D.error ~code:"V-FLP-005" ~stage:stage_floorplan
               "%s demands no tiles but was placed on a non-empty \
                rectangle (%a)"
               (label i)
               (fun () r -> Format.asprintf "%a" Floorplan.Placer.pp_rect r)
               rect)
      end
      else if
        rect.Floorplan.Placer.row < 0 || rect.Floorplan.Placer.col < 0
        || rect.Floorplan.Placer.height <= 0
        || rect.Floorplan.Placer.width <= 0
        || rect.Floorplan.Placer.row + rect.Floorplan.Placer.height > rows
        || rect.Floorplan.Placer.col + rect.Floorplan.Placer.width > width
      then
        emit
          (D.error ~code:"V-FLP-002" ~stage:stage_floorplan
             "%s placement (%a) exceeds the %dx%d fabric" (label i)
             (fun () r -> Format.asprintf "%a" Floorplan.Placer.pp_rect r)
             rect rows width)
      else begin
        let covered kind =
          rect.Floorplan.Placer.height
          * count_columns layout kind ~first:rect.Floorplan.Placer.col
              ~w:rect.Floorplan.Placer.width
        in
        List.iter
          (fun (kind, need) ->
            let have = covered kind in
            if have < need then
              emit
                (D.error ~code:"V-FLP-003" ~stage:stage_floorplan
                   "%s covers %d %s tiles but needs %d" (label i) have
                   (Tile.kind_name kind) need))
          [ (Tile.Clb, demands.(i).Floorplan.Placer.clb_tiles);
            (Tile.Bram, demands.(i).Floorplan.Placer.bram_tiles);
            (Tile.Dsp, demands.(i).Floorplan.Placer.dsp_tiles) ]
      end
  done;
  (* Pairwise disjointness of the non-empty placements. *)
  let overlap (a : Floorplan.Placer.rect) (b : Floorplan.Placer.rect) =
    let open Floorplan.Placer in
    a.height > 0 && a.width > 0 && b.height > 0 && b.width > 0
    && a.row < b.row + b.height
    && b.row < a.row + a.height
    && a.col < b.col + b.width
    && b.col < a.col + a.width
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match (rect_of i, rect_of j) with
      | Some a, Some b when overlap a b ->
        emit
          (D.error ~code:"V-FLP-001" ~stage:stage_floorplan
             "%s and %s overlap (%s vs %s)" (label i) (label j)
             (Format.asprintf "%a" Floorplan.Placer.pp_rect a)
             (Format.asprintf "%a" Floorplan.Placer.pp_rect b))
      | _ -> ()
    done
  done;
  List.rev !out

(* Independent re-derivation of {!Floorplan.Estimate}'s integer
   placeability penalty, from the layout and the scheme's re-derived
   demands alone: canonical order (decreasing volume, then per-kind
   counts), per-kind capacity deficits, per-demand possibility on the
   empty fabric, and the left-to-right full-height strip packing with
   8x-weighted BRAM/DSP waste. Deliberately written against direct
   column scans ([count_columns]) — no prefix sums, no shared code with
   the estimator — so any drift in either implementation surfaces as a
   V-FLP-006 mismatch. *)
let derive_placement_penalty ~layout (s : Scheme.t) =
  let rows = Floorplan.Layout.rows layout in
  let fabric_width = Floorplan.Layout.width layout in
  let count = count_columns layout in
  let ds =
    derive_demands s |> Array.to_list
    |> List.filter (fun d -> demand_volume d > 0)
    |> List.sort (fun (a : Floorplan.Placer.demand) b ->
           compare
             ( demand_volume b,
               b.Floorplan.Placer.clb_tiles,
               b.Floorplan.Placer.bram_tiles,
               b.Floorplan.Placer.dsp_tiles )
             ( demand_volume a,
               a.Floorplan.Placer.clb_tiles,
               a.Floorplan.Placer.bram_tiles,
               a.Floorplan.Placer.dsp_tiles ))
  in
  let capacity kind = rows * count kind ~first:0 ~w:fabric_width in
  let cols_needed tiles = (tiles + rows - 1) / rows in
  let min_window ~first (d : Floorplan.Placer.demand) =
    let nc = cols_needed d.Floorplan.Placer.clb_tiles
    and nb = cols_needed d.Floorplan.Placer.bram_tiles
    and nd = cols_needed d.Floorplan.Placer.dsp_tiles in
    let satisfies w =
      count Tile.Clb ~first ~w >= nc
      && count Tile.Bram ~first ~w >= nb
      && count Tile.Dsp ~first ~w >= nd
    in
    let rec go w =
      if first + w > fabric_width then None
      else if satisfies w then Some w
      else go (w + 1)
    in
    go (max 1 (nc + nb + nd))
  in
  let need sel = List.fold_left (fun acc d -> acc + sel d) 0 ds in
  let deficit kind sel = max 0 (need sel - capacity kind) in
  let deficit_tiles =
    deficit Tile.Clb (fun (d : Floorplan.Placer.demand) ->
        d.Floorplan.Placer.clb_tiles)
    + deficit Tile.Bram (fun d -> d.Floorplan.Placer.bram_tiles)
    + deficit Tile.Dsp (fun d -> d.Floorplan.Placer.dsp_tiles)
  in
  let impossible =
    List.length (List.filter (fun d -> min_window ~first:0 d = None) ds)
  in
  let cursor = ref 0 in
  let waste = ref 0 in
  let overflow_tiles = ref 0 in
  List.iter
    (fun (d : Floorplan.Placer.demand) ->
      match min_window ~first:!cursor d with
      | Some w ->
        let covered kind = rows * count kind ~first:!cursor ~w in
        waste :=
          !waste
          + (covered Tile.Clb - d.Floorplan.Placer.clb_tiles)
          + (8 * (covered Tile.Bram - d.Floorplan.Placer.bram_tiles))
          + (8 * (covered Tile.Dsp - d.Floorplan.Placer.dsp_tiles));
        cursor := !cursor + w
      | None -> overflow_tiles := !overflow_tiles + demand_volume d)
    ds;
  if deficit_tiles > 0 || impossible > 0 then
    (1 lsl 26) + (16 * deficit_tiles) + (64 * impossible)
  else if !overflow_tiles > 0 then (1 lsl 22) + (16 * !overflow_tiles) + !waste
  else !waste

let check_placement_penalty (s : Scheme.t) ~layout ~reported =
  let derived = derive_placement_penalty ~layout s in
  if derived = reported then []
  else
    [ D.error ~code:"V-FLP-006" ~stage:stage_floorplan
        "reported placement penalty %d does not match the independent \
         re-derivation %d"
        reported derived ]

let check_placement (s : Scheme.t) ~layout
    (outcome : Floorplan.Placer.outcome) =
  let demands = derive_demands s in
  let base =
    check_floorplan ~layout ~demands outcome.Floorplan.Placer.placements
  in
  let regions = Array.length demands - 1 in
  base
  @ List.map
      (fun i ->
        D.error ~code:"V-FLP-004" ~stage:stage_floorplan
          "placer reported %s as unplaceable" (label_of_demand regions i))
      outcome.Floorplan.Placer.failed

(* ------------------------------------------------------------------ *)
(* Bitstream repository.                                               *)

let stage_bitstream = "bitstream"

(* Parse [bytes] and check the stream; [round_trips parsed] decides
   whether the parse gave back the stream the bytes came from. *)
let check_stream ~context ?region ?frames ?variant ~round_trips bytes =
  match Bitgen.Bitstream.parse bytes with
  | Error message ->
    [ D.error ~code:"V-BIT-002" ~stage:stage_bitstream
        "%s: round-trip parse failed: %s" context message ]
  | Ok parsed ->
    let out = ref [] in
    let emit d = out := d :: !out in
    if not (round_trips parsed) then
      emit
        (D.error ~code:"V-BIT-002" ~stage:stage_bitstream
           "%s: re-serialisation is not byte-identical" context);
    (match frames with
     | Some expected
       when parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.frames <> expected
       ->
       emit
         (D.error ~code:"V-BIT-003" ~stage:stage_bitstream
            "%s: carries %d frames but the region needs %d" context
            parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.frames expected)
     | Some _ | None -> ());
    (match region with
     | Some expected
       when parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.region <> expected
       ->
       emit
         (D.error ~code:"V-BIT-004" ~stage:stage_bitstream
            "%s: targets region %d but belongs to region %d" context
            parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.region expected)
     | Some _ | None -> ());
    (match variant with
     | Some expected
       when parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.variant <> expected
       ->
       emit
         (D.error ~code:"V-BIT-004" ~stage:stage_bitstream
            "%s: variant %S does not match the expected label %S" context
            parsed.Bitgen.Bitstream.header.Bitgen.Bitstream.variant expected)
     | Some _ | None -> ());
    List.rev !out

let check_serialised ~context ?region ?frames ?variant bytes =
  check_stream ~context ?region ?frames ?variant bytes
    ~round_trips:(fun parsed ->
      Bytes.equal (Bitgen.Bitstream.serialise parsed) bytes)

(* An in-memory stream is serialised once and its parse compared with
   the stream itself: [parse (serialise e) = e] implies that
   re-serialising the parse gives back the same bytes. *)
let check_in_memory ~context ?region ?frames ?variant
    (stream : Bitgen.Bitstream.t) =
  check_stream ~context ?region ?frames ?variant
    (Bitgen.Bitstream.serialise stream)
    ~round_trips:(fun parsed ->
      parsed.Bitgen.Bitstream.header = stream.Bitgen.Bitstream.header
      && Int32.equal parsed.Bitgen.Bitstream.crc stream.Bitgen.Bitstream.crc
      && Bytes.equal parsed.Bitgen.Bitstream.payload
           stream.Bitgen.Bitstream.payload)

let check_repository (repo : Bitgen.Repository.t) =
  let scheme = repo.Bitgen.Repository.scheme in
  let design = scheme.Scheme.design in
  let members = members_of_scheme scheme in
  let regions = region_count_of members in
  let region_frames =
    Array.init regions (fun r ->
        Tile.frames_of_resources (region_resources_of design members r))
  in
  let out = ref [] in
  let emit d = out := d :: !out in
  (* Every (region, member) pair must have exactly one entry. *)
  for r = 0 to regions - 1 do
    List.iter
      (fun p ->
        let matching =
          List.filter
            (fun (e : Bitgen.Repository.entry) ->
              e.Bitgen.Repository.region = r
              && e.Bitgen.Repository.partition = p)
            repo.Bitgen.Repository.entries
        in
        match matching with
        | [] ->
          emit
            (D.error ~code:"V-BIT-001" ~stage:stage_bitstream
               "no partial bitstream for member %d in region %d" p r)
        | [ _ ] -> ()
        | _ :: _ :: _ ->
          emit
            (D.error ~code:"V-BIT-001" ~stage:stage_bitstream
               "member %d in region %d has %d repository entries" p r
               (List.length matching)))
      (region_members_of members r)
  done;
  (* Every entry must reference a real (region, member) pair and
     round-trip byte-identically with the frame count the region's
     re-derived area demands. *)
  List.iter
    (fun (e : Bitgen.Repository.entry) ->
      let r = e.Bitgen.Repository.region in
      if
        r < 0 || r >= regions
        || not
             (List.mem e.Bitgen.Repository.partition
                (region_members_of members r))
      then
        emit
          (D.error ~code:"V-BIT-004" ~stage:stage_bitstream
             "repository entry %s targets unknown region %d / member %d"
             e.Bitgen.Repository.label r e.Bitgen.Repository.partition)
      else
        List.iter emit
          (check_in_memory
             ~context:(Printf.sprintf "PRR%d %s" (r + 1) e.Bitgen.Repository.label)
             ~region:r ~frames:region_frames.(r)
             ~variant:e.Bitgen.Repository.label e.Bitgen.Repository.bitstream))
    repo.Bitgen.Repository.entries;
  List.iter emit
    (check_in_memory ~context:"full bitstream"
       ~frames:(Fpga.Device.total_frames repo.Bitgen.Repository.device)
       repo.Bitgen.Repository.full);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Transition reachability.                                            *)

let stage_transition = "transition"

let transition_table (s : Scheme.t) =
  let design = s.Scheme.design in
  let members = members_of_scheme s in
  let regions = region_count_of members in
  let region_frames =
    Array.init regions (fun r ->
        Tile.frames_of_resources (region_resources_of design members r))
  in
  let resid = residency design members in
  let configs = Design.configuration_count design in
  Array.init configs (fun i ->
      Array.init configs (fun j ->
          if i = j then 0
          else begin
            let cost = ref 0 in
            for r = 0 to regions - 1 do
              let a = resid.(i).(r) and b = resid.(j).(r) in
              if a >= 0 && b >= 0 && a <> b then
                cost := !cost + region_frames.(r)
            done;
            !cost
          end))

let check_transitions ?repository (s : Scheme.t) =
  let design = s.Scheme.design in
  let configs = Design.configuration_count design in
  let out = ref [] in
  let emit d = out := d :: !out in
  let fresh = transition_table s in
  let config_name c =
    design.Prdesign.Design.configurations.(c).Configuration.name
  in
  (* Cross-check the pipeline's shared all-pairs kernel. *)
  let reported = Cost.transition_matrix s in
  for i = 0 to configs - 1 do
    if reported.(i).(i) <> 0 then
      emit
        (D.error ~code:"V-TRN-003" ~stage:stage_transition
           "transition matrix diagonal (%s) is %d, not 0" (config_name i)
           reported.(i).(i));
    for j = i + 1 to configs - 1 do
      if reported.(i).(j) <> reported.(j).(i) then
        emit
          (D.error ~code:"V-TRN-003" ~stage:stage_transition
             "transition matrix asymmetric at (%s, %s): %d vs %d"
             (config_name i) (config_name j) reported.(i).(j)
             reported.(j).(i));
      if reported.(i).(j) <> fresh.(i).(j) then
        emit
          (D.error ~code:"V-TRN-002" ~stage:stage_transition
             "transition %s -> %s reported as %d frames; re-derivation \
              gives %d"
             (config_name i) (config_name j) reported.(i).(j) fresh.(i).(j))
    done
  done;
  (* Reachability: every region load any configuration pair demands must
     have its partial bitstream in the repository. *)
  (match repository with
   | None -> ()
   | Some repo ->
     let members = members_of_scheme s in
     let resid = residency design members in
     let regions = region_count_of members in
     for i = 0 to configs - 1 do
       for j = 0 to configs - 1 do
         if i <> j then
           for r = 0 to regions - 1 do
             let a = resid.(i).(r) and b = resid.(j).(r) in
             if a >= 0 && b >= 0 && a <> b then
               if Bitgen.Repository.find repo ~region:r ~partition:b = None
               then
                 emit
                   (D.error ~code:"V-TRN-001" ~stage:stage_transition
                      "transition %s -> %s is unreachable: region %d needs \
                       member %d but the repository holds no bitstream for it"
                      (config_name i) (config_name j) r b)
           done
       done
     done);
  List.rev !out
