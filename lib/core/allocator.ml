module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource
module Tile = Fpga.Tile

type options = { max_restarts : int; promote_static : bool }

let default_options = { max_restarts = 8; promote_static = true }

(* Scalar area in frame-equivalents, used for deficits and tie-breaks:
   frames contributed per primitive of each kind. *)
let frames_per_clb = float_of_int (Tile.frames_per_tile Clb) /. 20.
let frames_per_bram = float_of_int (Tile.frames_per_tile Bram) /. 4.
let frames_per_dsp = float_of_int (Tile.frames_per_tile Dsp) /. 8.

let[@inline] scalar3 clb bram dsp =
  (float_of_int clb *. frames_per_clb)
  +. (float_of_int bram *. frames_per_bram)
  +. (float_of_int dsp *. frames_per_dsp)

let scalar (r : Resource.t) = scalar3 r.clb r.bram r.dsp

let[@inline] deficit3 ~(budget : Resource.t) clb bram dsp =
  scalar3
    (if clb > budget.clb then clb - budget.clb else 0)
    (if bram > budget.bram then bram - budget.bram else 0)
    (if dsp > budget.dsp then dsp - budget.dsp else 0)

let deficit ~budget (used : Resource.t) =
  deficit3 ~budget used.clb used.bram used.dsp

(* A live region: its member partitions (priority order), the resident
   partition per configuration (-1 = don't care), the sorted array of
   configurations in which it is active, and cached area/cost. *)
type region = {
  mutable members : int list;
  mutable column : int array;
  mutable active : int array;  (* ascending configs with a resident *)
  mutable resources : Resource.t;
  mutable quantized : Resource.t;
  mutable frames : int;
  mutable conflicts : float;  (* weighted count of reconfiguring pairs *)
  mutable alive : bool;
}

(* The live pair table: every candidate move of the current state,
   scored once and kept current by [apply_move], so a descent step is
   one allocation-free scan. Pair (i, j), i < j, sits at [i * n + j];
   only the upper triangle is used. *)
type table = {
  can_merge : Bytes.t;  (* '\001' iff both regions live and compatible *)
  merged_clb : int array;  (* quantized resources of the merged region *)
  merged_bram : int array;
  merged_dsp : int array;
  merge_dtime : float array;  (* reconfiguration-time delta of the merge *)
  promote_dtime : float array;  (* per region *)
  raw_clb : int array;  (* per region: raw resources promotion moves *)
  raw_bram : int array;
  raw_dsp : int array;
  used : int array;  (* [| clb; bram; dsp |] of {!used_resources} *)
}

type state = {
  design : Design.t;
  partitions : Base_partition.t array;
  regions : region array;  (* indexed by founding partition *)
  mutable statics : int list;  (* partitions promoted to static *)
  configs : int;
  weights : float array;
      (* Flattened symmetric pair-weight matrix, [i * configs + j]:
         one array load per pair on the hot path, no closure calls. *)
  table : table;
}

let weight state i j = state.weights.((i * state.configs) + j)

let flatten_weights ~configs pair_weight =
  let w = Array.make (configs * configs) 0. in
  for i = 0 to configs - 1 do
    for j = i + 1 to configs - 1 do
      let v = pair_weight i j in
      w.((i * configs) + j) <- v;
      w.((j * configs) + i) <- v
    done
  done;
  w

let active_of_column column =
  let count = ref 0 in
  Array.iter (fun r -> if r >= 0 then incr count) column;
  let active = Array.make !count 0 in
  let k = ref 0 in
  Array.iteri
    (fun c r ->
      if r >= 0 then begin
        active.(!k) <- c;
        incr k
      end)
    column;
  active

(* Weighted sum over unordered config pairs with two distinct
   non-don't-care residents. With the default unit weight this is the
   paper's conflict count (eq. 8's decision variable summed over pairs).
   From-scratch reference — initialisation and the delta-equivalence
   property test; the search itself uses [cross] deltas. *)
let conflicts_of_column state column =
  let n = Array.length column in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let a = column.(i) in
    if a >= 0 then
      for j = i + 1 to n - 1 do
        let b = column.(j) in
        if b >= 0 && a <> b then acc := !acc +. weight state i j
      done
  done;
  !acc

(* The incremental kernel. Regions partition the member set, so two
   mergeable regions always host distinct residents: after a merge,
   every (active-in-a, active-in-b) configuration pair reconfigures.
   The merged conflict weight is therefore
     a.conflicts + b.conflicts + cross a b
   — only the pairs whose residents change are touched, O(|A|·|B|)
   instead of the O(configs^2) column rescan. *)
let[@inline] cross state a b =
  let acc = ref 0. in
  let aa = a.active and ba = b.active in
  let na = Array.length aa and nb = Array.length ba in
  for i = 0 to na - 1 do
    let row = aa.(i) * state.configs in
    for j = 0 to nb - 1 do
      acc := !acc +. state.weights.(row + ba.(j))
    done
  done;
  !acc

let merged_conflicts state a b = a.conflicts +. b.conflicts +. cross state a b

let refresh_cost state region =
  region.quantized <- Tile.quantize region.resources;
  region.frames <- Tile.frames_of_resources region.resources;
  region.conflicts <- conflicts_of_column state region.column

(* Two regions may merge iff no configuration needs both — an ordered
   walk over the two sorted active arrays, O(|A| + |B|). *)
let mergeable a b =
  let aa = a.active and ba = b.active in
  let na = Array.length aa and nb = Array.length ba in
  let rec disjoint i j =
    if i >= na || j >= nb then true
    else if aa.(i) = ba.(j) then false
    else if aa.(i) < ba.(j) then disjoint (i + 1) j
    else disjoint i (j + 1)
  in
  disjoint 0 0

let static_resources state =
  List.fold_left
    (fun acc p ->
      Resource.add acc state.partitions.(p).Base_partition.resources)
    state.design.Design.static_overhead state.statics

let used_resources state =
  Array.fold_left
    (fun acc r -> if r.alive then Resource.add acc r.quantized else acc)
    (static_resources state) state.regions

let pair_index state i j =
  if i < j then (i * Array.length state.regions) + j
  else (j * Array.length state.regions) + i

(* Score the compatible pair (i, j), i < j, into the table with the same
   arithmetic, operand order included, as [evaluate_move]'s merge case
   ([Tile.quantize] and [Tile.frames_of_resources] spelt out per kind),
   so an entry is bit-equal to a fresh evaluation. *)
let score_pair state i j =
  let t = state.table in
  let k = pair_index state i j in
  let a = state.regions.(i) and b = state.regions.(j) in
  let ra = a.resources and rb = b.resources in
  let tiles kind x y = Tile.tiles_for kind (if x > y then x else y) in
  let clb = tiles Clb ra.clb rb.clb
  and bram = tiles Bram ra.bram rb.bram
  and dsp = tiles Dsp ra.dsp rb.dsp in
  let frames =
    (clb * Tile.frames_per_tile Clb)
    + (bram * Tile.frames_per_tile Bram)
    + (dsp * Tile.frames_per_tile Dsp)
  in
  let conflicts = merged_conflicts state a b in
  Bytes.set t.can_merge k '\001';
  t.merged_clb.(k) <- clb * Tile.primitives_per_tile Clb;
  t.merged_bram.(k) <- bram * Tile.primitives_per_tile Bram;
  t.merged_dsp.(k) <- dsp * Tile.primitives_per_tile Dsp;
  t.merge_dtime.(k) <-
    (float_of_int frames *. conflicts)
    -. (float_of_int a.frames *. a.conflicts)
    -. (float_of_int b.frames *. b.conflicts)

let kill_pair state i j =
  Bytes.set state.table.can_merge (pair_index state i j) '\000'

let can_merge state i j =
  Bytes.get state.table.can_merge (pair_index state i j) <> '\000'

let promote_dtime r = -.(float_of_int r.frames *. r.conflicts)

let create_table n =
  { can_merge = Bytes.make (n * n) '\000';
    merged_clb = Array.make (n * n) 0;
    merged_bram = Array.make (n * n) 0;
    merged_dsp = Array.make (n * n) 0;
    merge_dtime = Array.make (n * n) 0.;
    promote_dtime = Array.make n 0.;
    raw_clb = Array.make n 0;
    raw_bram = Array.make n 0;
    raw_dsp = Array.make n 0;
    used = Array.make 3 0 }

(* Score every move of the initial state into its fresh table. *)
let fill_table state =
  let t = state.table in
  let used = used_resources state in
  t.used.(0) <- used.clb;
  t.used.(1) <- used.bram;
  t.used.(2) <- used.dsp;
  Array.iteri
    (fun i r ->
      let raw = state.partitions.(i).Base_partition.resources in
      t.promote_dtime.(i) <- promote_dtime r;
      t.raw_clb.(i) <- raw.clb;
      t.raw_bram.(i) <- raw.bram;
      t.raw_dsp.(i) <- raw.dsp)
    state.regions;
  let n = Array.length state.regions in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if mergeable state.regions.(i) state.regions.(j) then score_pair state i j
    done
  done

let initial_state ~pair_weight design partitions analysis =
  let configs = Design.configuration_count design in
  let weights = flatten_weights ~configs pair_weight in
  let regions =
    Array.mapi
      (fun p (bp : Base_partition.t) ->
        let column =
          Array.init configs (fun c ->
              if Compatibility.active analysis ~bp:p ~config:c then p else -1)
        in
        { members = [ p ];
          column;
          active = active_of_column column;
          resources = bp.resources;
          quantized = Resource.zero;
          frames = 0;
          conflicts = 0.;
          alive = true })
      partitions
  in
  let state =
    { design; partitions; regions; statics = []; configs; weights;
      table = create_table (Array.length regions) }
  in
  Array.iter (refresh_cost state) state.regions;
  fill_table state;
  state

let blit_table ~src ~dst =
  let all a b = Array.blit a 0 b 0 (Array.length a) in
  Bytes.blit src.can_merge 0 dst.can_merge 0 (Bytes.length src.can_merge);
  all src.merged_clb dst.merged_clb;
  all src.merged_bram dst.merged_bram;
  all src.merged_dsp dst.merged_dsp;
  all src.merge_dtime dst.merge_dtime;
  all src.promote_dtime dst.promote_dtime;
  all src.raw_clb dst.raw_clb;
  all src.raw_bram dst.raw_bram;
  all src.raw_dsp dst.raw_dsp;
  all src.used dst.used

(* A copy of [state] whose pair table is [table], overwritten: restarts
   run one after another, so they share one table rather than each
   allocating its own. *)
let copy_state ~table state =
  blit_table ~src:state.table ~dst:table;
  { state with
    regions =
      Array.map
        (fun r ->
          { r with column = Array.copy r.column; active = Array.copy r.active })
        state.regions;
    statics = state.statics;
    table }

let merged_column a b =
  Array.init (Array.length a.column) (fun c ->
      if a.column.(c) >= 0 then a.column.(c) else b.column.(c))

let merged_active a b =
  (* Merge of two sorted disjoint arrays. *)
  let aa = a.active and ba = b.active in
  let na = Array.length aa and nb = Array.length ba in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na || !j < nb do
    (if !j >= nb || (!i < na && aa.(!i) < ba.(!j)) then begin
       out.(!k) <- aa.(!i);
       incr i
     end
     else begin
       out.(!k) <- ba.(!j);
       incr j
     end);
    incr k
  done;
  out

type move = Merge of int * int | Promote of int

(* Placement-awareness: the demand array of a state under the
   {!Cost.placement} convention (region slots in index order — dead
   slots contribute zero, which penalty hooks ignore — then the static
   side last), and the same array after a candidate move. *)
let state_demands state =
  let n = Array.length state.regions in
  Array.init (n + 1) (fun k ->
      if k = n then static_resources state
      else if state.regions.(k).alive then state.regions.(k).quantized
      else Resource.zero)

let moved_demands state move =
  let d = state_demands state in
  let n = Array.length state.regions in
  (match move with
   | Merge (i, j) ->
     d.(i) <-
       Tile.quantize
         (Resource.max state.regions.(i).resources state.regions.(j).resources);
     d.(j) <- Resource.zero
   | Promote i ->
     let raw =
       List.fold_left
         (fun acc p ->
           Resource.add acc state.partitions.(p).Base_partition.resources)
         Resource.zero state.regions.(i).members
     in
     d.(i) <- Resource.zero;
     d.(n) <- Resource.add d.(n) raw);
  d

(* Evaluate a move against the current state: the reconfiguration-time
   delta and the resulting resource usage. Delta evaluation — no column
   is rebuilt and no O(configs^2) rescan happens. *)
let evaluate_move state used move =
  match move with
  | Merge (i, j) ->
    let a = state.regions.(i) and b = state.regions.(j) in
    let resources = Resource.max a.resources b.resources in
    let quantized = Tile.quantize resources in
    let frames = Tile.frames_of_resources resources in
    let conflicts = merged_conflicts state a b in
    let dtime =
      (float_of_int frames *. conflicts)
      -. (float_of_int a.frames *. a.conflicts)
      -. (float_of_int b.frames *. b.conflicts)
    in
    let new_used =
      Resource.add
        (Resource.sub (Resource.sub used a.quantized) b.quantized)
        quantized
    in
    (dtime, new_used)
  | Promote i ->
    let r = state.regions.(i) in
    let raw =
      List.fold_left
        (fun acc p ->
          Resource.add acc state.partitions.(p).Base_partition.resources)
        Resource.zero r.members
    in
    ( -.(float_of_int r.frames *. r.conflicts),
      Resource.add (Resource.sub used r.quantized) raw )

(* Apply a move and bring the pair table up to date: a merge rescores
   the survivor's pairs with a fresh [cross] each (never the sum of the
   two halves' cross terms, which would reorder the float additions)
   and kills the absorbed region's; a promotion kills the promoted
   region's. *)
let apply_move state move =
  let t = state.table in
  let add_used clb bram dsp =
    t.used.(0) <- t.used.(0) + clb;
    t.used.(1) <- t.used.(1) + bram;
    t.used.(2) <- t.used.(2) + dsp
  in
  match move with
  | Merge (i, j) ->
    let a = state.regions.(i) and b = state.regions.(j) in
    (* Delta update: the merged conflicts come from the incremental
       kernel; only the surviving region is touched. *)
    let conflicts = merged_conflicts state a b in
    let qa = a.quantized and qb = b.quantized in
    a.members <- a.members @ b.members;
    a.column <- merged_column a b;
    a.active <- merged_active a b;
    a.resources <- Resource.max a.resources b.resources;
    a.quantized <- Tile.quantize a.resources;
    a.frames <- Tile.frames_of_resources a.resources;
    a.conflicts <- conflicts;
    b.alive <- false;
    add_used
      (a.quantized.clb - qa.clb - qb.clb)
      (a.quantized.bram - qa.bram - qb.bram)
      (a.quantized.dsp - qa.dsp - qb.dsp);
    t.raw_clb.(i) <- t.raw_clb.(i) + t.raw_clb.(j);
    t.raw_bram.(i) <- t.raw_bram.(i) + t.raw_bram.(j);
    t.raw_dsp.(i) <- t.raw_dsp.(i) + t.raw_dsp.(j);
    t.promote_dtime.(i) <- promote_dtime a;
    (* The merged region is compatible with [k] iff both halves were,
       so only pairs that stay compatible are rescored. *)
    for k = 0 to Array.length state.regions - 1 do
      if k <> i && k <> j then begin
        if can_merge state i k && can_merge state j k then
          if k < i then score_pair state k i else score_pair state i k
        else kill_pair state i k;
        kill_pair state j k
      end
    done;
    kill_pair state i j
  | Promote i ->
    let r = state.regions.(i) in
    state.statics <- state.statics @ r.members;
    r.alive <- false;
    add_used
      (t.raw_clb.(i) - r.quantized.clb)
      (t.raw_bram.(i) - r.quantized.bram)
      (t.raw_dsp.(i) - r.quantized.dsp);
    for k = 0 to Array.length state.regions - 1 do
      if k <> i then kill_pair state i k
    done

let candidate_moves ~promote_static state =
  let n = Array.length state.regions in
  let moves = ref [] in
  for i = 0 to n - 1 do
    if state.regions.(i).alive then begin
      if promote_static then moves := Promote i :: !moves;
      for j = i + 1 to n - 1 do
        if
          state.regions.(j).alive
          && mergeable state.regions.(i) state.regions.(j)
        then moves := Merge (i, j) :: !moves
      done
    end
  done;
  !moves

let guard_interrupted = function
  | None -> false
  | Some g -> Prguard.Budget.interrupted g

(* The placeability penalty's change under [move]. *)
let penalty_delta pen state move =
  float_of_int (pen (moved_demands state move) - pen (state_demands state))

(* The incumbent of a descent step's scan: its move in [best],
   [| i; j |] (j = -1: promote i; i = -1: none yet), and its key in
   [key], [| deficit; dtime; area |]. A move replaces it only if its
   key is lexicographically smaller under [compare]. Inlined, so the
   scan passes no boxed floats. *)
let[@inline] consider best key i j d dtime s =
  let c = Float.compare d key.(0) in
  let c = if c = 0 then Float.compare dtime key.(1) else c in
  let c = if c = 0 then Float.compare s key.(2) else c in
  if best.(0) < 0 || c < 0 then begin
    best.(0) <- i;
    best.(1) <- j;
    key.(0) <- d;
    key.(1) <- dtime;
    key.(2) <- s
  end

(* One greedy descent. Over budget: minimise the deficit, then added time,
   then area; merges may keep the deficit, promotions must shrink it.
   Within budget: apply time-reducing promotions only. Each step is one
   scan of the pair table in the order the candidate moves were once
   consed into a list (regions descending; per region its merges with
   higher regions descending, then its promotion), keeping the first
   strict minimum: the head a stable sort of that list would give.

   [charge ~moves ~merges] is told how many moves a step evaluated;
   [observe] (tracing only) sees each move's time delta in scan order;
   [penalty] is the placeability hook, whose delta joins every move's
   time delta; [apply] applies the chosen move. *)
let greedy ~options ~budget ?guard ?penalty ?observe ~charge ~apply state =
  let t = state.table in
  let regions = state.regions in
  let n = Array.length regions in
  let best = [| -1; -1 |] and key = [| 0.; 0.; 0. |] in
  let continue_ = ref true in
  while !continue_ do
    (* Deadline/cancellation only ([Prguard.Budget.interrupted]): an
       eval-cap-only budget never alters the descent, keeping capped
       runs deterministic. An interrupted descent simply stops; the
       restart loop keeps whatever incumbent it already has. *)
    if guard_interrupted guard then continue_ := false
    else begin
      let uc = t.used.(0) and ub = t.used.(1) and ud = t.used.(2) in
      let current = deficit3 ~budget uc ub ud in
      let over = current > 0. in
      let moves = ref 0 and merges = ref 0 in
      best.(0) <- -1;
      for i = n - 1 downto 0 do
        let a = regions.(i) in
        if a.alive then begin
          let qa = a.quantized in
          for j = n - 1 downto i + 1 do
            let k = (i * n) + j in
            if Bytes.get t.can_merge k <> '\000' then begin
              incr moves;
              incr merges;
              let dtime =
                match penalty with
                | None -> t.merge_dtime.(k)
                | Some pen ->
                  t.merge_dtime.(k) +. penalty_delta pen state (Merge (i, j))
              in
              (match observe with Some f -> f dtime | None -> ());
              if over then begin
                let qb = regions.(j).quantized in
                let c = uc - qa.clb - qb.clb + t.merged_clb.(k)
                and b = ub - qa.bram - qb.bram + t.merged_bram.(k)
                and d = ud - qa.dsp - qb.dsp + t.merged_dsp.(k) in
                let def = deficit3 ~budget c b d in
                if def <= current then
                  consider best key i j def dtime (scalar3 c b d)
              end
            end
          done;
          if options.promote_static then begin
            incr moves;
            let dtime =
              match penalty with
              | None -> t.promote_dtime.(i)
              | Some pen ->
                t.promote_dtime.(i) +. penalty_delta pen state (Promote i)
            in
            (match observe with Some f -> f dtime | None -> ());
            let c = uc - qa.clb + t.raw_clb.(i)
            and b = ub - qa.bram + t.raw_bram.(i)
            and d = ud - qa.dsp + t.raw_dsp.(i) in
            let def = deficit3 ~budget c b d in
            if
              (over && def < current)
              || ((not over) && def = 0. && dtime < 0.)
            then consider best key i (-1) def dtime (scalar3 c b d)
          end
        end
      done;
      charge ~moves:!moves ~merges:!merges;
      if best.(0) < 0 then continue_ := false
      else if best.(1) < 0 then apply state (Promote best.(0))
      else apply state (Merge (best.(0), best.(1)))
    end
  done;
  if deficit ~budget (used_resources state) > 0. then None else Some state

(* The restarts' alternative first moves: every move of [state] ranked
   by (time delta, area of the resulting usage) and cut to the first
   [limit] ([limit < 0]: all of them). The moves are read from the pair
   table in [greedy]'s scan order, which is [candidate_moves]' order,
   and kept in a bounded buffer that places a move after every move
   with an equal key: the head of a stable sort of that list, with no
   cross term recomputed. [charge], [observe] and [penalty] are as for
   [greedy]. *)
let first_moves ~promote_static ~limit ?penalty ?observe ~charge state =
  let t = state.table in
  let regions = state.regions in
  let n = Array.length regions in
  let cap = if limit < 0 then n * (n + 1) / 2 else limit in
  let top_i = Array.make cap 0 and top_j = Array.make cap 0 in
  let top_dtime = Array.make cap 0. and top_area = Array.make cap 0. in
  let len = ref 0 in
  let before dtime area k =
    match Float.compare dtime top_dtime.(k) with
    | 0 -> Float.compare area top_area.(k) < 0
    | c -> c < 0
  in
  let offer i j dtime area =
    if !len < cap || (cap > 0 && before dtime area (cap - 1)) then begin
      let k = ref (Int.min !len (cap - 1)) in
      while !k > 0 && before dtime area (!k - 1) do
        top_i.(!k) <- top_i.(!k - 1);
        top_j.(!k) <- top_j.(!k - 1);
        top_dtime.(!k) <- top_dtime.(!k - 1);
        top_area.(!k) <- top_area.(!k - 1);
        decr k
      done;
      top_i.(!k) <- i;
      top_j.(!k) <- j;
      top_dtime.(!k) <- dtime;
      top_area.(!k) <- area;
      if !len < cap then incr len
    end
  in
  let with_penalty dtime move =
    match penalty with
    | None -> dtime
    | Some pen -> dtime +. penalty_delta pen state move
  in
  let uc = t.used.(0) and ub = t.used.(1) and ud = t.used.(2) in
  let moves = ref 0 and merges = ref 0 in
  for i = n - 1 downto 0 do
    let a = regions.(i) in
    if a.alive then begin
      let qa = a.quantized in
      for j = n - 1 downto i + 1 do
        let k = (i * n) + j in
        if Bytes.get t.can_merge k <> '\000' then begin
          incr moves;
          incr merges;
          let dtime = with_penalty t.merge_dtime.(k) (Merge (i, j)) in
          (match observe with Some f -> f dtime | None -> ());
          let qb = regions.(j).quantized in
          offer i j dtime
            (scalar3
               (uc - qa.clb - qb.clb + t.merged_clb.(k))
               (ub - qa.bram - qb.bram + t.merged_bram.(k))
               (ud - qa.dsp - qb.dsp + t.merged_dsp.(k)))
        end
      done;
      if promote_static then begin
        incr moves;
        let dtime = with_penalty t.promote_dtime.(i) (Promote i) in
        (match observe with Some f -> f dtime | None -> ());
        offer i (-1) dtime
          (scalar3
             (uc - qa.clb + t.raw_clb.(i))
             (ub - qa.bram + t.raw_bram.(i))
             (ud - qa.dsp + t.raw_dsp.(i)))
      end
    end
  done;
  charge ~moves:!moves ~merges:!merges;
  List.init !len (fun k ->
      if top_j.(k) < 0 then Promote top_i.(k) else Merge (top_i.(k), top_j.(k)))

let scheme_of_state state =
  let next = ref 0 in
  let region_ids = Array.make (Array.length state.regions) (-1) in
  Array.iteri
    (fun i r ->
      if r.alive then begin
        region_ids.(i) <- !next;
        incr next
      end)
    state.regions;
  let placement = Array.make (Array.length state.partitions) Scheme.Static in
  Array.iteri
    (fun i r ->
      if r.alive then
        List.iter
          (fun p -> placement.(p) <- Scheme.Region region_ids.(i))
          r.members)
    state.regions;
  List.iter (fun p -> placement.(p) <- Scheme.Static) state.statics;
  Scheme.make_exn state.design
    (List.mapi
       (fun p bp -> (bp, placement.(p)))
       (Array.to_list state.partitions))

let signature_of_state state =
  let groups =
    Array.to_list state.regions
    |> List.filter_map (fun r -> if r.alive then Some r.members else None)
  in
  Memo.grouping_signature ~parts:state.partitions ~statics:state.statics
    ~groups

(* Rank restart results by the weighted objective (the greedy state's
   summed contributions), then the paper's worst case, then area. *)
let better_scheme a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some ((_, va, ea) as a'), Some ((_, vb, eb) as b') ->
    let key value (e : Cost.evaluation) =
      (value, e.worst_frames, scalar e.used)
    in
    if key va ea <= key vb eb then Some a' else Some b'

let allocate ?(options = default_options) ?(pair_weight = fun _ _ -> 1.)
    ?(telemetry = Prtelemetry.null) ?guard ?placement ~budget design
    partitions =
  match partitions with
  | [] -> None
  | _ ->
    Prtelemetry.with_span telemetry "alloc.allocate" (fun () ->
        let moves_evaluated =
          Prtelemetry.counter telemetry "alloc.moves_evaluated"
        in
        let delta_evals = Prtelemetry.counter telemetry "perf.delta_evals" in
        let merges_accepted =
          Prtelemetry.counter telemetry "alloc.merges_accepted"
        in
        let promotions = Prtelemetry.counter telemetry "alloc.promotions" in
        let restarts_run = Prtelemetry.counter telemetry "alloc.restarts" in
        let cost_evaluations =
          Prtelemetry.counter telemetry "core.cost_evaluations"
        in
        (* Per-move time-delta distribution; {!Prtelemetry.Histogram.dead}
           unless the handle traces, so the default counting path pays a
           single branch per move. *)
        let move_delta = Prtelemetry.histogram telemetry "alloc.move_delta" in
        let pen_of demands =
          match placement with
          | None -> 0
          | Some p -> p.Cost.placement_cost demands
        in
        (* Move accounting, batched: one charge per descent step (and
           one for the restart ranking) for all the moves its scan
           evaluated. *)
        let charge ~moves ~merges =
          Prtelemetry.Counter.incr ~by:moves moves_evaluated;
          Prtelemetry.Counter.incr ~by:merges delta_evals;
          match guard with
          | Some g -> Prguard.Budget.charge ~n:moves g
          | None -> ()
        in
        let observe =
          if Prtelemetry.Histogram.live move_delta then
            Some (Prtelemetry.Histogram.observe move_delta)
          else None
        in
        let penalty = Option.map (fun p -> p.Cost.placement_cost) placement in
        let apply_move state move =
          (match move with
           | Merge _ -> Prtelemetry.Counter.incr merges_accepted
           | Promote _ -> Prtelemetry.Counter.incr promotions);
          apply_move state move
        in
        let parts = Array.of_list partitions in
        let analysis = Compatibility.analyse design parts in
        if not (Compatibility.covers_design analysis) then None
        else begin
          let base = initial_state ~pair_weight design parts analysis in
          (* Restart outcomes by content signature: restarts from
             different first moves frequently converge to the same
             allocation, which is then scored (and its scheme built)
             only once. *)
          let results = Hashtbl.create 16 in
          let table = create_table (Array.length parts) in
          let run first_move =
            Prtelemetry.Counter.incr restarts_run;
            let state = copy_state ~table base in
            Option.iter (apply_move state) first_move;
            match
              greedy ~options ~budget ?guard ?penalty ?observe ~charge
                ~apply:apply_move state
            with
            | None -> None
            | Some state ->
              let signature = signature_of_state state in
              match Hashtbl.find_opt results signature with
              | Some _ as seen -> seen
              | None ->
                let weighted_value =
                  Array.fold_left
                    (fun acc r ->
                      if r.alive then
                        acc +. (float_of_int r.frames *. r.conflicts)
                      else acc)
                    0. state.regions
                  (* Restart outcomes also rank placement-first:
                     a realisable allocation beats a cheaper one
                     the floorplan estimator rejects. *)
                  +. float_of_int (pen_of (state_demands state))
                in
                let scheme = scheme_of_state state in
                Prtelemetry.Counter.incr cost_evaluations;
                let result = (scheme, weighted_value, Cost.evaluate scheme) in
                Hashtbl.add results signature result;
                Some result
          in
          (* Alternative first moves: the initial state's candidate moves
             ranked by (time delta, area), truncated to the restart budget. *)
          let restarts =
            None
            :: List.map Option.some
                 (first_moves ~promote_static:options.promote_static
                    ~limit:options.max_restarts ?penalty ?observe ~charge base)
          in
          let best =
            List.fold_left
              (fun best first_move ->
                if guard_interrupted guard then best
                else
                let best' = better_scheme best (run first_move) in
                let improved =
                  match (best', best) with
                  | Some (s', _, _), Some (s, _, _) -> s' != s
                  | Some _, None -> true
                  | None, _ -> false
                in
                (match best' with
                 | Some (scheme, value, e) when improved ->
                   if Prtelemetry.tracing telemetry then
                     Prtelemetry.point telemetry "alloc.best"
                       ~attrs:
                         [ ("value", Prtelemetry.Json.Float value);
                           ( "total_frames",
                             Prtelemetry.Json.Int e.Cost.total_frames );
                           ( "worst_frames",
                             Prtelemetry.Json.Int e.Cost.worst_frames );
                           ( "regions",
                             Prtelemetry.Json.Int scheme.Scheme.region_count )
                         ]
                 | _ -> ());
                best')
              None restarts
          in
          Option.map (fun (scheme, _, _) -> scheme) best
        end)

(* Search internals exposed for the delta-equivalence property tests
   (see test/test_perf.ml): the QCheck suite drives random move
   sequences and asserts the incrementally maintained conflict weights
   equal a from-scratch recomputation after every step. *)
module Search = struct
  type nonrec state = state
  type nonrec move = move = Merge of int * int | Promote of int

  let initial ?(pair_weight = fun _ _ -> 1.) design partitions =
    match partitions with
    | [] -> None
    | _ ->
      let parts = Array.of_list partitions in
      let analysis = Compatibility.analyse design parts in
      if not (Compatibility.covers_design analysis) then None
      else Some (initial_state ~pair_weight design parts analysis)

  let moves ?(promote_static = true) state =
    candidate_moves ~promote_static state

  let apply = apply_move

  let evaluate state used move = evaluate_move state used move
  let used = used_resources
  let demands = state_demands
  let moved_demands = moved_demands

  type descent = {
    applied : move list;
    evaluated : int;
    merges_evaluated : int;
    feasible : bool;
  }

  let descend ?(options = default_options) ?placement ?observe ~budget state =
    let applied = ref [] and evaluated = ref 0 and merges_evaluated = ref 0 in
    let charge ~moves ~merges =
      evaluated := !evaluated + moves;
      merges_evaluated := !merges_evaluated + merges
    in
    let apply state move =
      applied := move :: !applied;
      apply_move state move
    in
    let penalty = Option.map (fun p -> p.Cost.placement_cost) placement in
    let outcome =
      greedy ~options ~budget ?penalty ?observe ~charge ~apply state
    in
    { applied = List.rev !applied;
      evaluated = !evaluated;
      merges_evaluated = !merges_evaluated;
      feasible = Option.is_some outcome }

  let first_moves ?(options = default_options) ?placement ?observe ~charge
      state =
    let penalty = Option.map (fun p -> p.Cost.placement_cost) placement in
    first_moves ~promote_static:options.promote_static
      ~limit:options.max_restarts ?penalty ?observe ~charge state

  let alive state r = state.regions.(r).alive

  let region_conflicts state r = state.regions.(r).conflicts

  let recompute_conflicts state r =
    conflicts_of_column state state.regions.(r).column

  let merge_delta state i j =
    merged_conflicts state state.regions.(i) state.regions.(j)

  let merge_full state i j =
    conflicts_of_column state
      (merged_column state.regions.(i) state.regions.(j))

  let region_count state = Array.length state.regions
  let signature = signature_of_state
  let to_scheme = scheme_of_state
end
