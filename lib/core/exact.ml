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

(* An in-construction region group: its members and its node in the
   search's {!Merge} store. Nodes [0 .. n-1] are the partitions alone,
   so a fresh group is its founder's leaf, with no conflicting pair; the
   group that partition [p] extends is copied into node [n + p] and
   absorbs leaf [p]. A DFS child at depth [p] only writes node [n + p],
   and a group always sits in a node written at a shallower depth, so
   backtracking needs no undo. *)
type group = {
  members : int list;  (* reverse assignment order *)
  node : int;
}

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
      let store = Merge.create ~words:(Cfgset.words_for configs) (2 * n) in
      Array.iteri
        (fun p mask ->
          Merge.set_leaf store p ~mask
            ~resources:parts.(p).Base_partition.resources)
        masks;
      let contribution g =
        Merge.frames store g.node * Merge.conflicts store g.node
      in
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
            (fun acc g -> Resource.add acc (Merge.quantized store g.node))
            (List.fold_left
               (fun acc p ->
                 Resource.add acc parts.(p).Base_partition.resources)
               static_base statics)
            groups
        in
        if Resource.fits used ~within:budget then begin
          let total = List.fold_left (fun acc g -> acc + contribution g) 0 groups in
          if total <= !best_total then begin
            (* Worst-case and area tie-breaks, computed only when the
               total is competitive, from each group's residency column
               and frames. *)
            let columns =
              List.map
                (fun g ->
                  let column = Array.make configs (-1) in
                  List.iter
                    (fun p -> Cfgset.iter (fun c -> column.(c) <- p) masks.(p))
                    g.members;
                  (column, Merge.frames store g.node))
                groups
            in
            let worst = ref 0 in
            for i = 0 to configs - 1 do
              for j = i + 1 to configs - 1 do
                let cost = ref 0 in
                List.iter
                  (fun (column, f) ->
                    let a = column.(i) and b = column.(j) in
                    if a >= 0 && b >= 0 && a <> b then cost := !cost + f)
                  columns;
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
              best := Some (key, List.map (fun g -> g.members) groups, statics);
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
                (* Partition [p] may join [g] iff they are never
                   co-active. *)
                if Merge.disjoint store g.node p then begin
                  Prtelemetry.Counter.incr delta_evals;
                  let dtime = Merge.merge_dtime store g.node p in
                  Merge.copy_node ~src:store g.node ~dst:store (n + p);
                  Merge.absorb ~dst:store (n + p) ~src:store p;
                  let g' = { members = p :: g.members; node = n + p } in
                  let rest =
                    List.map (fun other -> if other == g then g' else other)
                      groups
                  in
                  assign (p + 1) rest statics (committed + dtime)
                end)
              groups;
            assign (p + 1)
              (groups @ [ { members = [ p ]; node = p } ])
              statics committed;
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
              (fun r members ->
                List.iter (fun p -> placement.(p) <- Scheme.Region r) members)
              groups;
            List.iter (fun p -> placement.(p) <- Scheme.Static) statics;
            Scheme.make_exn design
              (List.mapi (fun p bp -> (bp, placement.(p))) parts_list))
          !best
      in
      { scheme; optimal = not !truncated; states = !states }
    end)
