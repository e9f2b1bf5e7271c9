module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Energy = Anneal.Energy
module Cfgset = Prgraph.Cfgset

type options = {
  coarsest : int;
  refine_passes : int;
  partner_limit : int;
  exhaustive_limit : int;
  promote_static : bool;
}

let default_options =
  { coarsest = 8;
    refine_passes = 4;
    partner_limit = 8;
    exhaustive_limit = 48;
    promote_static = true }

type stats = {
  levels : int;
  merges : int;
  passes : int;
  moves : int;
  trials : int;
  first_feasible_total : int option;
  final_total : int option;
}

let no_stats =
  { levels = 0;
    merges = 0;
    passes = 0;
    moves = 0;
    trials = 0;
    first_feasible_total = None;
    final_total = None }

(* One hypergraph node per mode that some configuration uses, weighted
   by its support (the number of configurations needing it) — the
   finest granularity the region-allocation solution space has, and
   the node set the coarsener folds. Skipping the clustering/covering
   passes entirely is what makes the backend viable at 50–500 modules:
   clique enumeration over the co-occurrence graph is the first wall
   the default pipeline hits there. *)
let nodes design =
  let configs = Design.configuration_count design in
  let freq = Hashtbl.create 64 in
  for c = 0 to configs - 1 do
    List.iter
      (fun m ->
        Hashtbl.replace freq m
          (1 + Option.value ~default:0 (Hashtbl.find_opt freq m)))
      (Design.config_mode_ids design c)
  done;
  List.filter_map
    (fun m ->
      match Hashtbl.find_opt freq m with
      | Some f -> Some (Base_partition.make design ~modes:[ m ] ~freq:f)
      | None -> None)
    (Design.all_mode_ids design)

(* Per-unit statistics of one level's units, for partner ranking: each
   unit absorbs its members in order. *)
let unit_nodes leaves units =
  let f = Merge.create ~words:(Merge.words leaves) (Array.length units) in
  Array.iteri
    (fun u members ->
      match members with
      | [] -> ()
      | first :: rest ->
        Merge.copy_node ~src:leaves first ~dst:f u;
        List.iter (fun p -> Merge.absorb ~dst:f u ~src:leaves p) rest)
    units;
  f

let unit_scores ~masks ~resources units =
  let words = if Array.length masks = 0 then 1 else Array.length masks.(0) in
  let f = unit_nodes (Merge.leaves ~words ~masks ~resources) units in
  Merge.merge_dtime f

(* Bounded top-[limit] partner lists: each unordered pair of units with
   disjoint activity is scored once and offered to both units' buffers,
   kept sorted by (score, partner) in flat arrays — the order [compare]
   gives the pairs — so no candidate list is built or sorted. *)
let rank_partners ~limit ~masks ~score =
  let n = Array.length masks in
  let limit = Int.max 0 limit in
  let top_score = Array.make (n * limit) 0 in
  let top_v = Array.make (n * limit) 0 in
  let len = Array.make n 0 in
  let before s v i = s < top_score.(i) || (s = top_score.(i) && v < top_v.(i)) in
  let offer u s v =
    let base = u * limit and l = len.(u) in
    if l < limit || before s v (base + l - 1) then begin
      let i = ref (base + Int.min l (limit - 1)) in
      while !i > base && before s v (!i - 1) do
        top_score.(!i) <- top_score.(!i - 1);
        top_v.(!i) <- top_v.(!i - 1);
        decr i
      done;
      top_score.(!i) <- s;
      top_v.(!i) <- v;
      if l < limit then len.(u) <- l + 1
    end
  in
  if limit > 0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Cfgset.disjoint masks.(u) masks.(v) then begin
          let s = score u v in
          offer u s v;
          offer v s u
        end
      done
    done;
  Array.init n (fun u -> List.init len.(u) (fun i -> top_v.((u * limit) + i)))

(* Per-resource epsilon tightness (the MtPartitioner trick): for each
   resource kind, the slack ratio of the budget over the current
   quantized demand; the tightest kind bounds the imbalance tolerance,
   zoomed down by the number of resource kinds. The resulting per-node
   ceiling [(1 + eps) * demand_r / k] stops the matching from growing
   one coarse node so large that it hogs the tightest resource. *)
let epsilon ~budget ~(demand : Resource.t) =
  let per b d = if d <= 0 then infinity else (float_of_int b /. float_of_int d) -. 1. in
  let e =
    Float.min
      (per budget.Resource.clb demand.Resource.clb)
      (Float.min
         (per budget.Resource.bram demand.Resource.bram)
         (per budget.Resource.dsp demand.Resource.dsp))
  in
  if Float.is_finite e then Float.max 0. e /. 3. else 0.

(* Stable merge sort of the pair indices [order] by (dtime, -saved)
   ascending, [tmp] the scratch of the same length. Pairs are pushed in
   ascending (i, j), so equal keys keep that order and the result is the
   full (dtime, -saved, i, j) order. *)
let sort_pairs ~(dtime : int array) ~(saved : int array) order tmp =
  let len = Array.length order in
  let before x y =
    let dx = dtime.(x) and dy = dtime.(y) in
    dx < dy || (dx = dy && saved.(x) > saved.(y))
  in
  let src = ref order and dst = ref tmp and width = ref 1 in
  while !width < len do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < len do
      let mid = Int.min (!lo + !width) len in
      let hi = Int.min (mid + !width) len in
      let i = ref !lo and j = ref mid and k = ref !lo in
      while !i < mid && !j < hi do
        if before s.(!j) s.(!i) then begin
          d.(!k) <- s.(!j);
          incr j
        end
        else begin
          d.(!k) <- s.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit s !i d !k (mid - !i);
      Array.blit s !j d (!k + mid - !i) (hi - !j);
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != order then Array.blit !src 0 order 0 len

(* Heavy-edge matching rounds over [leaves] until the node count reaches
   [coarsest] or no admissible merge remains. Returns each round's
   snapshot (its coarse nodes' members, in node order), coarsest first,
   and the number of merges. *)
let coarsen_nodes ~coarsest ~(budget : Resource.t) leaves =
  let n = Merge.size leaves in
  let f = Merge.copy leaves in
  let members = Array.init n (fun p -> [ p ]) in
  let alive = Array.make n true in
  let merges = ref 0 in
  let snapshots = ref [] in
  let snapshot () =
    let units = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then units := members.(i) :: !units
    done;
    Array.of_list !units
  in
  let continue = ref true in
  while !continue do
    let nlive = Array.fold_left (fun c a -> if a then c + 1 else c) 0 alive in
    if nlive <= coarsest then continue := false
    else begin
      let k = Int.max coarsest (nlive / 2) in
      let demand = ref Resource.zero in
      Array.iteri
        (fun i a ->
          if a then demand := Resource.add !demand (Merge.quantized f i))
        alive;
      let demand = !demand in
      let eps = epsilon ~budget ~demand in
      let cap r_budget r_demand =
        (1. +. eps) *. float_of_int r_demand /. float_of_int k
        |> Float.max (float_of_int r_budget /. float_of_int k)
      in
      (* The compatible, balance-admissible pairs in ascending (i, j),
         each stored as [i * n + j]. *)
      let dtime, saved, ij =
        Merge.pairs f ~alive
          ~cap_clb:(cap budget.clb demand.clb)
          ~cap_bram:(cap budget.bram demand.bram)
          ~cap_dsp:(cap budget.dsp demand.dsp)
      in
      let npairs = Array.length ij in
      let order = Array.init npairs Fun.id in
      sort_pairs ~dtime ~saved order (Array.make npairs 0);
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
            Merge.absorb ~dst:f i ~src:f j;
            members.(i) <- members.(i) @ members.(j);
            alive.(j) <- false;
            incr applied
          end)
        order;
      if !applied = 0 then continue := false
      else begin
        merges := !merges + !applied;
        snapshots := snapshot () :: !snapshots
      end
    end
  done;
  (!snapshots, !merges)

(* Each partition's active configurations, and the partitions as
   flat leaf nodes. *)
let activity_leaves design analysis ~resources =
  let words = Cfgset.words_for (Design.configuration_count design) in
  let masks =
    Array.init (Array.length resources) (Compatibility.activity analysis)
  in
  (masks, Merge.leaves ~words ~masks ~resources)

let coarsen ?(options = default_options) ~budget design partitions =
  match partitions with
  | [] -> []
  | _ ->
    let parts = Array.of_list partitions in
    let analysis = Compatibility.analyse design parts in
    if not (Compatibility.covers_design analysis) then []
    else
      let resources = Array.map (fun bp -> bp.Base_partition.resources) parts in
      let _, leaves = activity_leaves design analysis ~resources in
      fst (coarsen_nodes ~coarsest:options.coarsest ~budget leaves)

exception Interrupted

let allocate_stats ?(options = default_options)
    ?(telemetry = Prtelemetry.null) ?guard ?placement ~budget design
    partitions =
  (* [placement] is shadowed below by the region-assignment array; keep
     the placement-awareness hook under its own name. *)
  let placement_hook = placement in
  match partitions with
  | [] -> (None, no_stats)
  | _ ->
    Prtelemetry.with_span telemetry "multilevel.allocate" @@ fun () ->
    let parts = Array.of_list partitions in
    let n = Array.length parts in
    let analysis = Compatibility.analyse design parts in
    if not (Compatibility.covers_design analysis) then (None, no_stats)
    else begin
      let cost_evaluations =
        Prtelemetry.counter telemetry "core.cost_evaluations"
      in
      let delta_evals = Prtelemetry.counter telemetry "perf.delta_evals" in
      let merges_counter = Prtelemetry.counter telemetry "multilevel.merges" in
      let moves_counter =
        Prtelemetry.counter telemetry "multilevel.refine_moves"
      in
      let passes_counter =
        Prtelemetry.counter telemetry "multilevel.refine_passes"
      in
      let resources = Array.map (fun bp -> bp.Base_partition.resources) parts in
      let activity, leaves = activity_leaves design analysis ~resources in
      let snapshots, merges =
        Prtelemetry.with_span telemetry "multilevel.coarsen" (fun () ->
            coarsen_nodes ~coarsest:options.coarsest ~budget leaves)
      in
      Prtelemetry.Counter.incr ~by:merges merges_counter;
      (* --- Initial partition: every coarse node its own region
         (founded at its smallest member index), valid by construction
         since coarse nodes are internally compatible. *)
      let placement = Array.make n (-1) in
      let coarsest =
        match snapshots with
        | [] -> Array.init n (fun p -> [ p ])
        | coarsest :: _ -> coarsest
      in
      Array.iter
        (fun members ->
          let rep = List.fold_left Int.min max_int members in
          List.iter (fun p -> placement.(p) <- rep) members)
        coarsest;
      let energy =
        Energy.create
          ?penalty:(Option.map (fun p -> p.Cost.placement_cost) placement_hook)
          ~budget ~static_overhead:design.Design.static_overhead ~resources
          ~activity placement
      in
      Prtelemetry.Counter.incr cost_evaluations;
      (* Mirror of the committed placement plus a per-region occupancy
         count, so target selection never pays [Energy.placement]'s
         copy. *)
      let place = Array.copy placement in
      let occ = Array.make n 0 in
      Array.iter (fun r -> if r >= 0 then occ.(r) <- occ.(r) + 1) place;
      let deficit_of (e, _, t) =
        if t = max_int then infinity else (e -. float_of_int t) /. 200.
      in
      let cur = ref (Energy.current energy) in
      let first_feasible = ref None in
      let note_feasible (_, feasible, total) =
        if feasible && Option.is_none !first_feasible then
          first_feasible := Some total
      in
      note_feasible !cur;
      let improves candidate =
        let _, _, ct = candidate and _, _, bt = !cur in
        let cd = deficit_of candidate and bd = deficit_of !cur in
        cd < bd || (cd = bd && ct < bt)
      in
      let moves = ref 0 in
      let passes = ref 0 in
      let trials = ref 0 in
      let charge () =
        incr trials;
        Prtelemetry.Counter.incr cost_evaluations;
        (match guard with Some g -> Prguard.Budget.charge g | None -> ());
        match guard with
        | Some g when !trials land 31 = 0 && Prguard.Budget.interrupted g ->
          raise Interrupted
        | _ -> ()
      in
      (* Move one unit (its co-located partitions, ascending) to
         [target] in one step of the incremental energy kernel, which
         scores the source and target regions once; a rejected move
         commits nothing, so it needs no undo. *)
      let try_move parts target =
        charge ();
        Prtelemetry.Counter.incr ~by:(Array.length parts) delta_evals;
        let candidate = Energy.propose_unit energy ~parts ~target in
        if improves candidate then begin
          Energy.commit_unit energy ~parts ~target;
          true
        end
        else false
      in
      let accept parts r_cur target =
        let count = Array.length parts in
        if r_cur >= 0 then occ.(r_cur) <- occ.(r_cur) - count;
        if target >= 0 then occ.(target) <- occ.(target) + count;
        Array.iter (fun p -> place.(p) <- target) parts;
        cur := Energy.current energy;
        note_feasible !cur;
        incr moves;
        Prtelemetry.Counter.incr moves_counter
      in
      let refine_level units =
        let n_units = Array.length units in
        let attrs =
          if Prtelemetry.tracing telemetry then
            [ ("units", Prtelemetry.Json.Int n_units) ]
          else []
        in
        let sorted =
          Array.map
            (fun members ->
              let parts = Array.of_list members in
              Array.sort Int.compare parts;
              parts)
            units
        in
        (* Top-affinity partners per unit: the regions worth proposing,
           ranked by the merge-delta hyperedge weight. Exhaustive below
           [exhaustive_limit] nodes, where trying every occupied region
           is affordable and closes the optimality gap on small
           designs. *)
        let exhaustive = n <= options.exhaustive_limit in
        let partners =
          Prtelemetry.with_span telemetry ~attrs "multilevel.partners"
            (fun () ->
              if exhaustive then [||]
              else begin
                let stats = unit_nodes leaves units in
                rank_partners ~limit:options.partner_limit
                  ~masks:(Array.init n_units (Merge.mask stats))
                  ~score:(Merge.merge_dtime stats)
              end)
        in
        let level_pass () =
          let improved = ref false in
          for u = 0 to n_units - 1 do
            let parts = sorted.(u) in
            let r_cur = place.(parts.(0)) in
            (* Candidate isolation region: the unoccupied region id of
               the unit's first such member in merge order (skipped when
               the unit already sits alone). *)
            let isolate =
              if r_cur >= 0 && occ.(r_cur) = Array.length parts then None
              else List.find_opt (fun p -> occ.(p) = 0) units.(u)
            in
            let targets =
              let joins =
                if exhaustive then
                  List.filter
                    (fun r -> occ.(r) > 0)
                    (List.init n Fun.id)
                else
                  List.filter_map
                    (fun v ->
                      let r = place.(sorted.(v).(0)) in
                      if r >= 0 then Some r else None)
                    partners.(u)
              in
              let joins = List.sort_uniq Int.compare joins in
              let extras =
                (match isolate with Some r -> [ r ] | None -> [])
                @ (if options.promote_static then [ -1 ] else [])
              in
              joins @ extras
            in
            let rec attempt = function
              | [] -> ()
              | t :: rest ->
                if t = r_cur then attempt rest
                else if try_move parts t then begin
                  accept parts r_cur t;
                  improved := true
                end
                else attempt rest
            in
            attempt targets
          done;
          !improved
        in
        Prtelemetry.with_span telemetry ~attrs "multilevel.refine" (fun () ->
            let continue = ref true in
            let pass = ref 0 in
            while !continue && !pass < options.refine_passes do
              incr pass;
              incr passes;
              Prtelemetry.Counter.incr passes_counter;
              if not (level_pass ()) then continue := false
            done)
      in
      (* --- Uncoarsen + refine: coarsest level first (whole-region
         moves restore feasibility), then progressively finer units,
         ending at single partitions. *)
      (try
         List.iter refine_level snapshots;
         refine_level (Array.init n (fun p -> [ p ]))
       with Interrupted -> ());
      let _, feasible, total = !cur in
      let stats final_total =
        { levels = List.length snapshots;
          merges;
          passes = !passes;
          moves = !moves;
          trials = !trials;
          first_feasible_total = !first_feasible;
          final_total }
      in
      if not feasible then (None, stats None)
      else begin
        (* Renumber regions densely in first-appearance order. *)
        let mapping = Hashtbl.create 16 in
        let next = ref 0 in
        let resolved =
          Array.map
            (fun r ->
              if r < 0 then Scheme.Static
              else begin
                let id =
                  match Hashtbl.find_opt mapping r with
                  | Some id -> id
                  | None ->
                    let id = !next in
                    Hashtbl.add mapping r id;
                    incr next;
                    id
                in
                Scheme.Region id
              end)
            (Energy.placement energy)
        in
        match
          Scheme.make design
            (List.mapi (fun p bp -> (bp, resolved.(p))) (Array.to_list parts))
        with
        | Error _ -> (None, stats None)
        | Ok scheme -> (Some scheme, stats (Some total))
      end
    end

let allocate ?options ?telemetry ?guard ?placement ~budget design partitions =
  fst
    (allocate_stats ?options ?telemetry ?guard ?placement ~budget design
       partitions)
