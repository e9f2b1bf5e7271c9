module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Tile = Fpga.Tile
module Energy = Anneal.Energy

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

(* Active-configuration sets as bitmasks (63 bits per word), so
   compatibility of two coarse nodes — disjoint activity — is a few
   word ANDs instead of a configuration scan. *)
let words_for configs = max 1 ((configs + 62) / 63)

let mask_of_activity ~words act =
  let mask = Array.make words 0 in
  Array.iteri
    (fun c on ->
      if on then
        mask.(c / 63) <- mask.(c / 63) lor (1 lsl (c mod 63)))
    act;
  mask

let disjoint a b =
  let ok = ref true in
  for w = 0 to Array.length a - 1 do
    if a.(w) land b.(w) <> 0 then ok := false
  done;
  !ok

let popcount mask =
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

(* A coarse node: a set of pairwise-compatible original partitions that
   will share a region. [conflicts] is the node's internal conflicting
   configuration-pair count, maintained with the same O(1) delta the
   exact allocator uses (disjoint active sets, so merging [a] and [b]
   adds exactly [a.acts * b.acts] cross pairs). *)
type cnode = {
  mutable members : int list;
  mutable mask : int array;
  mutable acts : int;
  mutable res : Resource.t;  (* component-wise max: the region area law *)
  mutable conflicts : int;
  mutable alive : bool;
}

let node_frames node = Tile.frames_of_resources node.res

(* Reconfiguration-time delta of merging two compatible nodes into one
   region — the hyperedge weight the matching minimises (then maximal
   area saving as the tiebreak), the multilevel analogue of the greedy
   allocator's move ranking. *)
let merge_dtime a b =
  let merged = Resource.max a.res b.res in
  let fm = Tile.frames_of_resources merged in
  (fm * (a.conflicts + b.conflicts + (a.acts * b.acts)))
  - (node_frames a * a.conflicts)
  - (node_frames b * b.conflicts)

let merge_area_gain a b =
  Allocator.scalar (Tile.quantize a.res)
  +. Allocator.scalar (Tile.quantize b.res)
  -. Allocator.scalar (Tile.quantize (Resource.max a.res b.res))

(* Bounded top-[limit] partner lists: each unordered pair of units with
   disjoint activity is scored once and offered to both units' buffers,
   kept sorted by (score, partner) in flat arrays — the order [compare]
   gives the pairs — so no candidate list is built or sorted. *)
let rank_partners ~limit ~masks ~score =
  let n = Array.length masks in
  let limit = max 0 limit in
  let top_score = Array.make (n * limit) 0 in
  let top_v = Array.make (n * limit) 0 in
  let len = Array.make n 0 in
  let before s v i = s < top_score.(i) || (s = top_score.(i) && v < top_v.(i)) in
  let offer u s v =
    let base = u * limit and l = len.(u) in
    if l < limit || before s v (base + l - 1) then begin
      let i = ref (base + min l (limit - 1)) in
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
        if disjoint masks.(u) masks.(v) then begin
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

exception Interrupted

let allocate_stats ?(options = default_options)
    ?(telemetry = Prtelemetry.null) ?memo ?guard ?placement ~budget design
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
      let configs = Design.configuration_count design in
      let words = words_for configs in
      let activity =
        Array.init n (fun p ->
            Array.init configs (fun c ->
                Compatibility.active analysis ~bp:p ~config:c))
      in
      let resources = Array.map (fun bp -> bp.Base_partition.resources) parts in
      let masks = Array.map (mask_of_activity ~words) activity in
      let cnodes =
        Array.init n (fun p ->
            { members = [ p ];
              mask = Array.copy masks.(p);
              acts = popcount masks.(p);
              res = resources.(p);
              conflicts = 0;
              alive = true })
      in
      (* --- Coarsening: heavy-edge matching rounds until the node count
         reaches the coarsest target or no admissible merge remains. *)
      let levels = ref 0 in
      let merges = ref 0 in
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
      (* Pair buffers, reused by every level and grown by doubling. *)
      let pair_dtime = ref [||]
      and pair_neg_gain = ref [||]
      and pair_ij = ref [||] in
      let () = Prtelemetry.with_span telemetry "multilevel.coarsen" @@ fun () ->
      let continue = ref true in
      while !continue do
        let nlive = live_count () in
        if nlive <= options.coarsest then continue := false
        else begin
          let k = max options.coarsest (nlive / 2) in
          let demand =
            Array.fold_left
              (fun acc c ->
                if c.alive then Resource.add acc (Tile.quantize c.res) else acc)
              Resource.zero cnodes
          in
          let eps = epsilon ~budget ~demand in
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
          (* Score every compatible, balance-admissible pair into flat
             arrays, then visit them in (dtime, -gain, i, j) order. A
             pair is stored as [i * n + j], which orders like (i, j). *)
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
                if
                  cnodes.(j).alive
                  && disjoint cnodes.(i).mask cnodes.(j).mask
                  && admissible cnodes.(i) cnodes.(j)
                then
                  push
                    (merge_dtime cnodes.(i) cnodes.(j))
                    (-.merge_area_gain cnodes.(i) cnodes.(j))
                    ((i * n) + j)
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
          else begin
            merges := !merges + !applied;
            incr levels;
            snapshots := snapshot () :: !snapshots
          end
        end
      done
      in
      Prtelemetry.Counter.incr ~by:!merges merges_counter;
      (* --- Initial partition: every coarse node its own region
         (founded at its smallest member index), valid by construction
         since coarse nodes are internally compatible. *)
      let placement = Array.make n (-1) in
      Array.iter
        (fun c ->
          if c.alive then begin
            let rep = List.fold_left min max_int c.members in
            List.iter (fun p -> placement.(p) <- rep) c.members
          end)
        cnodes;
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
        if feasible && !first_feasible = None then
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
      (* Unit statistics at one level, for partner ranking. *)
      let unit_stats members =
        let mask = Array.make words 0 in
        let res = ref Resource.zero in
        let acts = ref 0 in
        let conflicts = ref 0 in
        List.iter
          (fun p ->
            let a = popcount masks.(p) in
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
                let stats = Array.map unit_stats units in
                rank_partners ~limit:options.partner_limit
                  ~masks:(Array.map (fun c -> c.mask) stats)
                  ~score:(fun u v -> merge_dtime stats.(u) stats.(v))
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
              let joins = List.sort_uniq compare joins in
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
         List.iter refine_level !snapshots;
         refine_level (Array.init n (fun p -> [ p ]))
       with Interrupted -> ());
      let _, feasible, total = !cur in
      let stats final_total =
        { levels = !levels;
          merges = !merges;
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
        | Ok scheme ->
          (match memo with
           | Some memo ->
             Prtelemetry.Counter.incr cost_evaluations;
             Memo.add memo (Memo.scheme_signature scheme)
               (Cost.evaluate scheme)
           | None -> ());
          (Some scheme, stats (Some total))
      end
    end

let allocate ?options ?telemetry ?memo ?guard ?placement ~budget design
    partitions =
  fst
    (allocate_stats ?options ?telemetry ?memo ?guard ?placement ~budget design
       partitions)
