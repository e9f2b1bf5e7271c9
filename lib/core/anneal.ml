module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Tile = Fpga.Tile

type options = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
  promote_static : bool;
}

let default_options =
  { iterations = 60_000;
    initial_temperature = 20_000.;
    cooling = 0.9998;
    seed = 1;
    promote_static = true }

(* A self-contained SplitMix64 stream so prcore does not depend on the
   workload-generator library. *)
module Rng = struct
  type t = { mutable state : int64 }

  let mix z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make seed = { state = mix (Int64.of_int seed) }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix t.state

  let int t bound =
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.
end

(* Incremental energy engine. A move reassigns a unit — one or more
   partitions sharing a region — to another region (or static), so only
   the source and destination regions can change: their contributions
   are recomputed and everything else — total frames, resource usage,
   validity — is maintained as exact integer sums, guaranteeing
   bit-identical energies to a from-scratch evaluation. Each region's
   members are indexed, so re-scoring a region visits its members only.
   [propose_unit] computes the candidate energy without touching any
   cache (a rejected move therefore costs nothing to undo);
   [commit_unit] installs the already-computed region snapshots. The
   single-partition entry points are the one-member case.

   Energy of a placement: total reconfiguration frames plus a soft
   penalty per frame-equivalent of budget overrun — steep enough that
   feasible states win, shallow enough that the walk can cross short
   infeasible ridges at moderate temperatures. Invalid placements (two
   members of one region active in the same configuration) evaluate to
   (infinity, false, max_int). *)
module Energy = struct
  type snapshot = {
    contribution : int;  (* frames * conflicts; 0 when empty *)
    quantized : Resource.t;  (* zero when empty *)
    collided : bool;  (* two active members in one configuration *)
  }

  type pending = {
    p_parts : int array;
    p_target : int;
    src : snapshot;  (* new state of the source region (if any) *)
    dst : snapshot;  (* new state of the target region (if any) *)
    p_static : Resource.t;
    p_used : Resource.t;
    p_total : int;
    p_invalid : int;
    p_pen : int;
    p_triple : float * bool * int;
  }

  type t = {
    budget : Resource.t;
    resources : Resource.t array;  (* per partition *)
    activity : Prgraph.Cfgset.t array;  (* per partition *)
    placement : int array;  (* committed state; -1 = static *)
    members : int array array;
        (* region id -> its committed partitions, ascending *)
    regions : snapshot array;  (* indexed by region id, 0 .. n-1 *)
    claimed : int array;  (* [eval] scratch: configurations with a resident *)
    penalty_fn : (Resource.t array -> int) option;
        (* placement-awareness hook: integer placeability penalty of
           the per-region demand array (regions then static last) *)
    mutable static_res : Resource.t;
    mutable used : Resource.t;
    mutable total : int;
    mutable invalid : int;  (* regions with a collision *)
    mutable pen : int;  (* committed placeability penalty *)
    mutable pending : pending option;
  }

  let empty_snapshot =
    { contribution = 0; quantized = Resource.zero; collided = false }

  (* Score one region from its members, which [iter] must visit in
     ascending partition order: a configuration's resident is its first
     claimer, so the contribution of a collided region depends on that
     order. The conflicting configuration pairs are the pairs of
     occupied configurations less those with one resident:
     C(occupied, 2) - sum over members of C(claimed by it, 2). The
     activity words are read here, in this module (no per-word call
     into [Cfgset]). O(members * mask words). *)
  let eval t iter =
    let claimed = t.claimed in
    let words = Array.length claimed in
    Array.fill claimed 0 words 0;
    let collided = ref false in
    let resources = ref Resource.zero in
    let members = ref 0 in
    let occupied = ref 0 in
    let same = ref 0 in
    iter (fun p ->
        incr members;
        resources := Resource.max !resources t.resources.(p);
        let act = t.activity.(p) in
        let mine = ref 0 in
        for w = 0 to words - 1 do
          let taken = claimed.(w) and bits = act.(w) in
          if bits land taken <> 0 then collided := true;
          claimed.(w) <- taken lor bits;
          let x = ref (bits land lnot taken) in
          while !x <> 0 do
            x := !x land (!x - 1);
            incr mine
          done
        done;
        occupied := !occupied + !mine;
        same := !same + (!mine * (!mine - 1) / 2));
    if !members = 0 then empty_snapshot
    else begin
      let conflicts = (!occupied * (!occupied - 1) / 2) - !same in
      let frames = Tile.frames_of_resources !resources in
      { contribution = frames * conflicts;
        quantized = Tile.quantize !resources;
        collided = !collided }
    end

  (* Ascending walks over a region's members with a sorted unit taken
     out of, or merged into, them. *)
  let iter_without members unit f =
    let k = Array.length unit in
    let j = ref 0 in
    Array.iter
      (fun p ->
        while !j < k && unit.(!j) < p do incr j done;
        if not (!j < k && unit.(!j) = p) then f p)
      members

  let iter_with members unit f =
    let m = Array.length members and k = Array.length unit in
    let i = ref 0 and j = ref 0 in
    while !i < m || !j < k do
      if !j >= k || (!i < m && members.(!i) < unit.(!j)) then begin
        f members.(!i);
        incr i
      end
      else begin
        f unit.(!j);
        incr j
      end
    done

  let collect iter =
    let out = ref [] in
    iter (fun p -> out := p :: !out);
    Array.of_list (List.rev !out)

  (* The placeability penalty joins the objective exactly like extra
     frames: the energy and the comparison total both carry
     [total + penalty], so every consumer (anneal best-tracking,
     multilevel refinement) ranks penalised schemes lower without any
     further plumbing. With no penalty hook the triple is bit-identical
     to the pre-placement-aware implementation. *)
  let triple_of ~budget ~used ~total ~invalid ~penalty =
    if invalid > 0 then (infinity, false, max_int)
    else begin
      let d = Allocator.deficit ~budget used in
      let objective = total + penalty in
      (float_of_int objective +. (200. *. d), d = 0., objective)
    end

  (* Demand array of a (possibly overridden) region state: one entry
     per region id in order, then the static side last — the
     {!Cost.placement} calling convention. [snapshot_of] lets [propose]
     substitute the source/destination snapshots without committing. *)
  let penalty_of t ~snapshot_of ~static_res =
    match t.penalty_fn with
    | None -> 0
    | Some f ->
      let n = Array.length t.regions in
      f
        (Array.init (n + 1) (fun i ->
             if i < n then (snapshot_of i).quantized else static_res))

  let committed_penalty t =
    penalty_of t ~snapshot_of:(fun r -> t.regions.(r)) ~static_res:t.static_res

  let create ?penalty ~budget ~static_overhead ~resources ~activity placement =
    let n = Array.length placement in
    let words = if n = 0 then 1 else Array.length activity.(0) in
    let lists = Array.make n [] in
    for p = n - 1 downto 0 do
      let r = placement.(p) in
      if r >= 0 then lists.(r) <- p :: lists.(r)
    done;
    let t =
      { budget;
        resources;
        activity;
        placement = Array.copy placement;
        members = Array.map Array.of_list lists;
        regions = Array.make n empty_snapshot;
        claimed = Array.make words 0;
        penalty_fn = penalty;
        static_res = static_overhead;
        used = Resource.zero;
        total = 0;
        invalid = 0;
        pen = 0;
        pending = None }
    in
    Array.iteri
      (fun p r ->
        if r = -1 then t.static_res <- Resource.add t.static_res resources.(p))
      t.placement;
    for r = 0 to n - 1 do
      let s = eval t (fun f -> Array.iter f t.members.(r)) in
      t.regions.(r) <- s;
      t.total <- t.total + s.contribution;
      if s.collided then t.invalid <- t.invalid + 1
    done;
    t.used <-
      Array.fold_left
        (fun acc s -> Resource.add acc s.quantized)
        t.static_res t.regions;
    t.pen <- committed_penalty t;
    t

  let current t =
    triple_of ~budget:t.budget ~used:t.used ~total:t.total ~invalid:t.invalid
      ~penalty:t.pen

  let placement t = Array.copy t.placement

  (* The region every member of [parts] sits in; rejects an empty,
     unsorted or split unit. *)
  let source t parts =
    if Array.length parts = 0 then invalid_arg "Energy: empty unit";
    let old = t.placement.(parts.(0)) in
    Array.iteri
      (fun i p ->
        if i > 0 && parts.(i - 1) >= p then
          invalid_arg "Energy: unit not strictly ascending";
        if t.placement.(p) <> old then
          invalid_arg "Energy: unit spans several regions")
      parts;
    old

  let propose_unit t ~parts ~target =
    let old = source t parts in
    if old = target then current t
    else begin
      let res =
        Array.fold_left (fun acc p -> Resource.add acc t.resources.(p))
          Resource.zero parts
      in
      let static_res =
        if old = -1 then Resource.sub t.static_res res
        else if target = -1 then Resource.add t.static_res res
        else t.static_res
      in
      let src =
        if old < 0 then empty_snapshot
        else eval t (iter_without t.members.(old) parts)
      in
      let dst =
        if target < 0 then empty_snapshot
        else eval t (iter_with t.members.(target) parts)
      in
      let swap_contribution acc r fresh =
        if r < 0 then acc
        else acc - t.regions.(r).contribution + fresh.contribution
      in
      let total =
        swap_contribution (swap_contribution t.total old src) target dst
      in
      let swap_quantized acc r fresh =
        if r < 0 then acc
        else
          Resource.add (Resource.sub acc t.regions.(r).quantized)
            fresh.quantized
      in
      let used =
        Resource.add
          (Resource.sub
             (swap_quantized (swap_quantized t.used old src) target dst)
             t.static_res)
          static_res
      in
      let swap_invalid acc r fresh =
        if r < 0 then acc
        else
          acc
          - (if t.regions.(r).collided then 1 else 0)
          + if fresh.collided then 1 else 0
      in
      let invalid = swap_invalid (swap_invalid t.invalid old src) target dst in
      let pen =
        penalty_of t
          ~snapshot_of:(fun r ->
            if r = old then src
            else if r = target then dst
            else t.regions.(r))
          ~static_res
      in
      let triple =
        triple_of ~budget:t.budget ~used ~total ~invalid ~penalty:pen
      in
      t.pending <-
        Some
          { p_parts = parts;
            p_target = target;
            src;
            dst;
            p_static = static_res;
            p_used = used;
            p_total = total;
            p_invalid = invalid;
            p_pen = pen;
            p_triple = triple };
      triple
    end

  let commit_unit t ~parts ~target =
    let old = source t parts in
    if old <> target then begin
      let pending =
        match t.pending with
        | Some p
          when p.p_target = target && (p.p_parts == parts || p.p_parts = parts)
          ->
          p
        | Some _ | None ->
          (* No matching proposal (the caller committed a move it did
             not propose last): compute the snapshots now. *)
          ignore (propose_unit t ~parts ~target);
          (match t.pending with Some p -> p | None -> assert false)
      in
      if old >= 0 then begin
        t.regions.(old) <- pending.src;
        t.members.(old) <- collect (iter_without t.members.(old) parts)
      end;
      if target >= 0 then begin
        t.regions.(target) <- pending.dst;
        t.members.(target) <- collect (iter_with t.members.(target) parts)
      end;
      t.static_res <- pending.p_static;
      t.used <- pending.p_used;
      t.total <- pending.p_total;
      t.invalid <- pending.p_invalid;
      t.pen <- pending.p_pen;
      Array.iter (fun p -> t.placement.(p) <- target) parts
    end;
    t.pending <- None

  let propose t ~part ~target = propose_unit t ~parts:[| part |] ~target
  let commit t ~part ~target = commit_unit t ~parts:[| part |] ~target

  (* From-scratch reference evaluation of the committed placement — the
     oracle the incremental sums are property-tested against. It finds
     each region's members by scanning the placement, not the index. *)
  let from_scratch t =
    let n = Array.length t.placement in
    let static_res = ref Resource.zero in
    Array.iteri
      (fun p r ->
        if r = -1 then static_res := Resource.add !static_res t.resources.(p))
      t.placement;
    let used = ref !static_res in
    let total = ref 0 in
    let invalid = ref 0 in
    let snapshots = Array.make n empty_snapshot in
    for r = 0 to n - 1 do
      let s =
        eval t (fun f ->
            Array.iteri (fun p home -> if home = r then f p) t.placement)
      in
      snapshots.(r) <- s;
      used := Resource.add !used s.quantized;
      total := !total + s.contribution;
      if s.collided then incr invalid
    done;
    (* [from_scratch] ignores the caches entirely but must include the
       caller-supplied static overhead baked into [static_res] at
       creation; recover it as (committed static - sum of member
       resources). *)
    let member_static = !static_res in
    let overhead = Resource.sub t.static_res member_static in
    let used = Resource.add !used overhead in
    let pen =
      penalty_of t
        ~snapshot_of:(fun r -> snapshots.(r))
        ~static_res:t.static_res
    in
    triple_of ~budget:t.budget ~used ~total:!total ~invalid:!invalid
      ~penalty:pen
end

let scheme_of_placement design parts placement =
  (* Renumber regions densely in order of first appearance. *)
  let mapping = Hashtbl.create 8 in
  let next = ref 0 in
  let resolved =
    Array.map
      (fun r ->
        if r = -1 then Scheme.Static
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
      placement
  in
  Scheme.make design
    (List.mapi (fun p bp -> (bp, resolved.(p))) (Array.to_list parts))

let allocate ?(options = default_options) ?(telemetry = Prtelemetry.null)
    ?guard ?placement ~budget design partitions =
  let penalty_hook = Option.map (fun p -> p.Cost.placement_cost) placement in
  match partitions with
  | [] -> None
  | _ ->
    Prtelemetry.with_span telemetry "anneal.allocate" (fun () ->
        let steps = Prtelemetry.counter telemetry "anneal.steps" in
        let accepted_moves = Prtelemetry.counter telemetry "anneal.accepted" in
        let best_updates =
          Prtelemetry.counter telemetry "anneal.best_updates"
        in
        let cost_evaluations =
          Prtelemetry.counter telemetry "core.cost_evaluations"
        in
        let delta_evals = Prtelemetry.counter telemetry "perf.delta_evals" in
        let parts = Array.of_list partitions in
        let n = Array.length parts in
        let analysis = Compatibility.analyse design parts in
        if not (Compatibility.covers_design analysis) then None
        else begin
          let activity = Array.init n (Compatibility.activity analysis) in
          let resources =
            Array.map (fun bp -> bp.Base_partition.resources) parts
          in
          let rng = Rng.make options.seed in
          (* Start all-separate: region id = partition index. *)
          let placement = Array.init n Fun.id in
          let energy_state =
            Energy.create ?penalty:penalty_hook ~budget
              ~static_overhead:design.Design.static_overhead ~resources
              ~activity placement
          in
          Prtelemetry.Counter.incr cost_evaluations;
          let energy, feasible, total = Energy.current energy_state in
          let current_energy = ref energy in
          let best =
            ref (if feasible then Some (Array.copy placement, total) else None)
          in
          let temperature = ref options.initial_temperature in
          (try
          for iteration = 1 to options.iterations do
            (* Deadline/cancellation break ([interrupted] ignores the
               eval cap, so capped runs stay deterministic); the best
               feasible placement found so far survives the break. *)
            (match guard with
             | Some g
               when iteration land 255 = 0 && Prguard.Budget.interrupted g ->
               raise Exit
             | Some g -> Prguard.Budget.charge g
             | None -> ());
            Prtelemetry.Counter.incr steps;
            let p = Rng.int rng n in
            let old_region = placement.(p) in
            (* Candidate target: another partition's region, a fresh region
               (its own index), or static. *)
            let choice =
              Rng.int rng (n + if options.promote_static then 2 else 1)
            in
            let target =
              if choice < n then placement.(Rng.int rng n)
              else if choice = n then p
              else -1
            in
            if target <> old_region then begin
              placement.(p) <- target;
              Prtelemetry.Counter.incr cost_evaluations;
              Prtelemetry.Counter.incr delta_evals;
              let energy, feasible, total =
                Energy.propose energy_state ~part:p ~target
              in
              let delta = energy -. !current_energy in
              let accept =
                delta < 0.
                || (Float.is_finite delta
                    && Rng.float rng < Float.exp (-.delta /. !temperature))
              in
              if accept then begin
                Prtelemetry.Counter.incr accepted_moves;
                Energy.commit energy_state ~part:p ~target;
                current_energy := energy;
                if feasible then
                  match !best with
                  | Some (_, best_total) when best_total <= total -> ()
                  | Some _ | None ->
                    Prtelemetry.Counter.incr best_updates;
                    if Prtelemetry.tracing telemetry then
                      Prtelemetry.point telemetry "anneal.best"
                        ~attrs:
                          [ ("iteration", Prtelemetry.Json.Int iteration);
                            ("total_frames", Prtelemetry.Json.Int total) ];
                    best := Some (Array.copy placement, total)
              end
              else placement.(p) <- old_region
            end;
            temperature := !temperature *. options.cooling
          done
          with Exit -> ());
          match !best with
          | None -> None
          | Some (placement, _) ->
            (match scheme_of_placement design parts placement with
             | Ok scheme -> Some scheme
             | Error _ -> None)
        end)
