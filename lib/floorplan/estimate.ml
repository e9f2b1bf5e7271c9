module Tile = Fpga.Tile

(* Deterministic placeability estimator: a cheap stand-in for a full
   [Placer.place] run, usable as a cost penalty inside the allocation
   search (thousands of evaluations per solve). Instead of the placer's
   exhaustive rectangle scan it answers with a per-kind capacity
   analysis (O(1) [Layout] window counts) plus a left-to-right
   full-height strip packing of the demands in a canonical order. The strip packing, when it
   succeeds, is itself a valid placement (full-height windows over
   disjoint column ranges), which is what makes the [Placeable] verdict
   sound rather than heuristic. *)

type t = { layout : Layout.t; rows : int; width : int }

let create layout =
  { layout; rows = Layout.rows layout; width = Layout.width layout }

let layout t = t.layout

type verdict = Placeable | Crowded | Infeasible

type result = {
  verdict : verdict;
  penalty : int;
  fragmentation : float;
}

(* Penalty bands. Frame totals on catalogue-sized devices run well
   below [crowded_base], so a scheme the strip packing cannot realise
   never out-ranks one it can on frame count alone, while schemes
   within one band still order by how badly they miss (overflow /
   deficit tiles) and then by scarce-column waste. All-integer so the
   verify oracle can re-derive the exact value independently. *)
let crowded_base = 1 lsl 22
let infeasible_base = 1 lsl 26

(* Canonical demand order: decreasing tile volume, then per-kind counts.
   Independent of the caller's array order, so any two schemes with the
   same multiset of region demands score identically. *)
let canonical demands =
  let tiles =
    Array.to_list (Array.map Placer.demand_of_resources demands)
  in
  let nonzero = List.filter (fun d -> Placer.volume d > 0) tiles in
  List.sort
    (fun (a : Placer.demand) b ->
      compare
        (Placer.volume b, b.clb_tiles, b.bram_tiles, b.dsp_tiles)
        (Placer.volume a, a.clb_tiles, a.bram_tiles, a.dsp_tiles))
    nonzero

(* Smallest [w] such that the full-height window [first, first+w)
   satisfies [d], or [None] when even the remaining fabric does not. *)
let min_window t ~first (d : Placer.demand) =
  (* Columns needed at full height, per kind. *)
  let need tiles = (tiles + t.rows - 1) / t.rows in
  let need_clb = need d.clb_tiles
  and need_bram = need d.bram_tiles
  and need_dsp = need d.dsp_tiles in
  let satisfies w =
    let count kind = Layout.count_in_window t.layout ~first ~width:w kind in
    count Tile.Clb >= need_clb
    && count Tile.Bram >= need_bram
    && count Tile.Dsp >= need_dsp
  in
  let rec search w =
    if first + w > t.width then None
    else if satisfies w then Some w
    else search (w + 1)
  in
  search (max 1 (need_clb + need_bram + need_dsp))

let weighted_waste t ~first ~width (d : Placer.demand) =
  let covered kind =
    t.rows * Layout.count_in_window t.layout ~first ~width kind
  in
  (covered Tile.Clb - d.clb_tiles)
  + (8 * (covered Tile.Bram - d.bram_tiles))
  + (8 * (covered Tile.Dsp - d.dsp_tiles))

let assess t demands =
  let ds = canonical demands in
  (* Per-kind capacity: tile deficits that no placement can recover. *)
  let capacity kind =
    t.rows * Layout.count_in_window t.layout ~first:0 ~width:t.width kind
  in
  let need_of sel = List.fold_left (fun acc d -> acc + sel d) 0 ds in
  let deficit kind sel = max 0 (need_of sel - capacity kind) in
  let deficit_tiles =
    deficit Tile.Clb (fun (d : Placer.demand) -> d.clb_tiles)
    + deficit Tile.Bram (fun d -> d.bram_tiles)
    + deficit Tile.Dsp (fun d -> d.dsp_tiles)
  in
  (* Per-demand possibility: some full-height window on the empty
     fabric must satisfy each demand on its own. *)
  let impossible =
    List.fold_left
      (fun acc d ->
        match min_window t ~first:0 d with
        | Some _ -> acc
        | None -> acc + 1)
      0 ds
  in
  (* Left-to-right strip packing in canonical order: each demand takes
     the minimal full-height window from the running cursor. Success is
     a constructive placement proof. *)
  let cursor = ref 0 in
  let waste = ref 0 in
  let overflow_tiles = ref 0 in
  let scarce_wasted = ref 0 in
  List.iter
    (fun (d : Placer.demand) ->
      match min_window t ~first:!cursor d with
      | Some w ->
        waste := !waste + weighted_waste t ~first:!cursor ~width:w d;
        let covered kind =
          t.rows * Layout.count_in_window t.layout ~first:!cursor ~width:w kind
        in
        scarce_wasted :=
          !scarce_wasted
          + (covered Tile.Bram - d.bram_tiles)
          + (covered Tile.Dsp - d.dsp_tiles);
        cursor := !cursor + w
      | None -> overflow_tiles := !overflow_tiles + Placer.volume d)
    ds;
  let scarce_total = capacity Tile.Bram + capacity Tile.Dsp in
  let fragmentation =
    if scarce_total = 0 then 0.
    else
      Float.min 1.
        (float_of_int (max 0 !scarce_wasted) /. float_of_int scarce_total)
  in
  if deficit_tiles > 0 || impossible > 0 then
    { verdict = Infeasible;
      penalty = infeasible_base + (16 * deficit_tiles) + (64 * impossible);
      fragmentation }
  else if !overflow_tiles > 0 then
    { verdict = Crowded;
      penalty = crowded_base + (16 * !overflow_tiles) + !waste;
      fragmentation }
  else { verdict = Placeable; penalty = !waste; fragmentation }

let penalty t demands = (assess t demands).penalty
