module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Tile = Fpga.Tile
module Cfgset = Prgraph.Cfgset

type result = {
  scheme : Scheme.t option;
  optimal : bool;
  states : int;
}

(* An in-construction region group; immutable so backtracking is free.

   Conflict counts are maintained incrementally. A fresh single-member
   group has zero conflicting pairs (every resident is the same
   partition), and extending a group with a partition whose active set
   is disjoint from the group's — the compatibility precondition checked
   by [extend_group] — adds exactly |new active| * |group active|
   conflicting pairs: every cross pair has two distinct residents, and
   no within-set pair changes. [conflicts_of_column] remains as the
   from-scratch reference the delta is property-tested against. *)
type group = {
  members : int list;  (* reverse assignment order *)
  column : int array;  (* config -> resident partition or -1 *)
  mask : Cfgset.t;  (* configurations with a resident *)
  resources : Resource.t;
  active_count : int;  (* configurations with a resident *)
  conflicts : int;  (* config pairs with distinct residents *)
  contribution : int;  (* frames * conflicts *)
}

let conflicts_of_column column =
  let n = Array.length column in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if column.(i) >= 0 && column.(j) >= 0 && column.(i) <> column.(j) then
        incr count
    done
  done;
  !count

let group_of ~configs ~masks ~active_counts ~parts p =
  let column = Array.make configs (-1) in
  Cfgset.iter (fun c -> column.(c) <- p) masks.(p);
  (* A single resident everywhere that is occupied: no conflicting
     pair, so the contribution is zero whatever the frame count. *)
  { members = [ p ];
    column;
    mask = masks.(p);
    resources = parts.(p).Base_partition.resources;
    active_count = active_counts.(p);
    conflicts = 0;
    contribution = 0 }

let extend_group ~masks ~active_counts ~parts group p =
  (* [None] when partition [p] is co-active with the group somewhere. *)
  if not (Cfgset.disjoint group.mask masks.(p)) then None
  else begin
    let column = Array.copy group.column in
    Cfgset.iter (fun c -> column.(c) <- p) masks.(p);
    let mask = Array.copy group.mask in
    Cfgset.union_into mask masks.(p);
    let resources =
      Resource.max group.resources parts.(p).Base_partition.resources
    in
    let conflicts = group.conflicts + (active_counts.(p) * group.active_count) in
    Some
      { members = p :: group.members;
        column;
        mask;
        resources;
        active_count = group.active_count + active_counts.(p);
        conflicts;
        contribution = Tile.frames_of_resources resources * conflicts }
  end

let allocate ?(promote_static = true) ?(max_states = 2_000_000)
    ?(telemetry = Prtelemetry.null) ?guard ~budget design parts_list =
  match parts_list with
  | [] -> { scheme = None; optimal = true; states = 0 }
  | _ ->
    Prtelemetry.with_span telemetry "exact.allocate" (fun () ->
    let states_counter = Prtelemetry.counter telemetry "exact.states" in
    let pruned_counter = Prtelemetry.counter telemetry "exact.pruned" in
    let delta_evals = Prtelemetry.counter telemetry "perf.delta_evals" in
    let leaf_evals = Prtelemetry.counter telemetry "core.cost_evaluations" in
    let parts = Array.of_list parts_list in
    let n = Array.length parts in
    (* Depth-resolved introspection ([exact.depth<d>.states]/[.pruned])
       only when tracing: the extra array indexing stays off the default
       counting path. Depth d = partition index being assigned; leaves
       sit at depth n. *)
    let depth_counters =
      if Prtelemetry.tracing telemetry then
        Some
          (Array.init (n + 1) (fun d ->
               ( Prtelemetry.counter telemetry
                   (Printf.sprintf "exact.depth%d.states" d),
                 Prtelemetry.counter telemetry
                   (Printf.sprintf "exact.depth%d.pruned" d) )))
      else None
    in
    let frontier_peak = ref 0 in
    let analysis = Compatibility.analyse design parts in
    if not (Compatibility.covers_design analysis) then
      { scheme = None; optimal = true; states = 0 }
    else begin
      let configs = Design.configuration_count design in
      let masks = Array.init n (Compatibility.activity analysis) in
      let active_counts = Array.map Cfgset.popcount masks in
      let states = ref 0 in
      let truncated = ref false in
      let best = ref None in
      let best_total = ref max_int in
      let static_base = design.Design.static_overhead in
      (* Evaluate a complete assignment at a leaf. *)
      let consider groups statics =
        Prtelemetry.Counter.incr leaf_evals;
        (match guard with
         | Some g -> Prguard.Budget.charge g
         | None -> ());
        let used =
          List.fold_left
            (fun acc g -> Resource.add acc (Tile.quantize g.resources))
            (List.fold_left
               (fun acc p ->
                 Resource.add acc parts.(p).Base_partition.resources)
               static_base statics)
            groups
        in
        if Resource.fits used ~within:budget then begin
          let total = List.fold_left (fun acc g -> acc + g.contribution) 0 groups in
          if total <= !best_total then begin
            (* Worst-case and area tie-breaks, computed only when the
               total is competitive. *)
            let frames =
              List.map
                (fun g -> Tile.frames_of_resources g.resources)
                groups
            in
            let worst = ref 0 in
            for i = 0 to configs - 1 do
              for j = i + 1 to configs - 1 do
                let cost = ref 0 in
                List.iter2
                  (fun g f ->
                    let a = g.column.(i) and b = g.column.(j) in
                    if a >= 0 && b >= 0 && a <> b then cost := !cost + f)
                  groups frames;
                if !cost > !worst then worst := !cost
              done
            done;
            let key = (total, !worst, Tile.frames_of_resources used) in
            let replace =
              match !best with
              | None -> true
              | Some (k, _, _) -> key < k
            in
            if replace then begin
              best := Some (key, groups, statics);
              best_total := total
            end
          end
        end
      in
      (* Canonical DFS: partition p joins an existing group, opens the
         next group, or goes static. *)
      let rec assign p groups statics committed =
        if !truncated then ()
        else begin
          incr states;
          Prtelemetry.Counter.incr states_counter;
          (match depth_counters with
           | Some slots ->
             Prtelemetry.Counter.incr (fst slots.(p));
             let open_groups = List.length groups in
             if open_groups > !frontier_peak then frontier_peak := open_groups
           | None -> ());
          (* Deadline/cancellation truncates the DFS like an exhausted
             state budget: the incumbent (if any) is returned with
             [optimal = false]. [interrupted] ignores eval caps, so
             capped runs stay deterministic — the ladder derives
             [max_states] from a rung's eval cap instead. *)
          (match guard with
           | Some g
             when !states land 1023 = 0 && Prguard.Budget.interrupted g ->
             truncated := true
           | _ -> ());
          if !truncated || !states > max_states then truncated := true
          else if committed > !best_total then begin
            (* Bound prune: the committed cost already exceeds the
               incumbent, so the whole subtree is skipped. *)
            Prtelemetry.Counter.incr pruned_counter;
            match depth_counters with
            | Some slots -> Prtelemetry.Counter.incr (snd slots.(p))
            | None -> ()
          end
          else if p = n then consider groups statics
          else begin
            List.iter
              (fun g ->
                match extend_group ~masks ~active_counts ~parts g p with
                | None -> ()
                | Some g' ->
                  Prtelemetry.Counter.incr delta_evals;
                  let rest =
                    List.map (fun other -> if other == g then g' else other)
                      groups
                  in
                  assign (p + 1) rest statics
                    (committed - g.contribution + g'.contribution))
              groups;
            let fresh = group_of ~configs ~masks ~active_counts ~parts p in
            assign (p + 1) (groups @ [ fresh ]) statics
              (committed + fresh.contribution);
            if promote_static then assign (p + 1) groups (p :: statics) committed
          end
        end
      in
      assign 0 [] [] 0;
      if depth_counters <> None then
        Prtelemetry.set_gauge telemetry "exact.frontier_peak"
          (float_of_int !frontier_peak);
      let scheme =
        Option.map
          (fun (_, groups, statics) ->
            let placement = Array.make n Scheme.Static in
            List.iteri
              (fun r g ->
                List.iter (fun p -> placement.(p) <- Scheme.Region r) g.members)
              groups;
            List.iter (fun p -> placement.(p) <- Scheme.Static) statics;
            Scheme.make_exn design
              (List.mapi (fun p bp -> (bp, placement.(p))) parts_list))
          !best
      in
      { scheme; optimal = not !truncated; states = !states }
    end)
