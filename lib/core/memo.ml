module Base_partition = Cluster.Base_partition

type 'v t = {
  table : (string, 'v) Hashtbl.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  hit_counter : Prtelemetry.Counter.t;
  miss_counter : Prtelemetry.Counter.t;
  telemetry : Prtelemetry.t;
  (* Depth-resolved hit/miss counters ([memo.depth<d>.hits]/[.misses]),
     created lazily and only when the handle traces — the plain counters
     above stay the only cost on the default counting path. *)
  depth_counters : (int, Prtelemetry.Counter.t * Prtelemetry.Counter.t) Hashtbl.t;
  depth_enabled : bool;
  tag : string option;
  (* Precomputed ["<tag>!"] key prefix ([""] untagged): every lookup and
     insertion key is namespaced by the tag, so tables tagged with
     different search strategies can never alias entries — even after
     [absorb], which copies raw (already-prefixed) keys. *)
  prefix : string;
}

let create ?(telemetry = Prtelemetry.null) ?(capacity = 65536) ?tag () =
  { table = Hashtbl.create 256;
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    hit_counter = Prtelemetry.counter telemetry "perf.cache_hits";
    miss_counter = Prtelemetry.counter telemetry "perf.cache_misses";
    telemetry;
    depth_counters = Hashtbl.create 4;
    depth_enabled = Prtelemetry.tracing telemetry;
    tag;
    prefix = (match tag with None -> "" | Some t -> t ^ "!") }

let tag t = t.tag

let keyed t key = if t.prefix = "" then key else t.prefix ^ key

let depth_slot t d =
  match Hashtbl.find_opt t.depth_counters d with
  | Some slot -> slot
  | None ->
    let slot =
      ( Prtelemetry.counter t.telemetry (Printf.sprintf "memo.depth%d.hits" d),
        Prtelemetry.counter t.telemetry
          (Printf.sprintf "memo.depth%d.misses" d) )
    in
    Hashtbl.add t.depth_counters d slot;
    slot

let find ?depth t key =
  match Hashtbl.find_opt t.table (keyed t key) with
  | Some _ as v ->
    t.hits <- t.hits + 1;
    Prtelemetry.Counter.incr t.hit_counter;
    (if t.depth_enabled then
       match depth with
       | Some d -> Prtelemetry.Counter.incr (fst (depth_slot t d))
       | None -> ());
    v
  | None ->
    t.misses <- t.misses + 1;
    Prtelemetry.Counter.incr t.miss_counter;
    (if t.depth_enabled then
       match depth with
       | Some d -> Prtelemetry.Counter.incr (snd (depth_slot t d))
       | None -> ());
    None

(* Raw insertion (key already namespaced), shared by [add] and
   [absorb]. Bounded by generational clearing: cheaper than per-entry
   eviction and good enough for search workloads where the working set
   turns over wholesale between solves. *)
let add_raw t key value =
  if Hashtbl.length t.table >= t.capacity then Hashtbl.reset t.table;
  Hashtbl.replace t.table key value

let add t key value = add_raw t (keyed t key) value

let find_or_add ?depth t key compute =
  match find ?depth t key with
  | Some v -> v
  | None ->
    let v = compute () in
    add t key v;
    v

let hits t = t.hits
let misses t = t.misses
let length t = Hashtbl.length t.table

let iter f t = Hashtbl.iter f t.table

let absorb ~into t = iter (fun k v -> add_raw into k v) t

(* Signatures.

   Encoding: decimal integers with one-character structural separators
   ([,] between ints, [|] between members, [/] between groups, [#]
   before the static set). Unambiguous because the payloads are decimal
   digits only; exact because the table keys on the whole string. *)

let encode_int_list buf sep xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf sep;
      Buffer.add_string buf (string_of_int x))
    xs

(* A member is identified by its mode content, which is what determines
   its resources and its activity — partition indices differ across
   candidate sets, mode sets do not. *)
let member_key (parts : Base_partition.t array) p =
  let buf = Buffer.create 16 in
  encode_int_list buf ',' parts.(p).Base_partition.modes;
  Buffer.contents buf

let canonical ~member_keys ~statics ~groups =
  let group_strings =
    List.sort String.compare
      (List.map
         (fun members ->
           String.concat "|"
             (List.sort String.compare (List.map member_keys members)))
         groups)
  in
  let static_string =
    String.concat "|" (List.sort String.compare (List.map member_keys statics))
  in
  String.concat "/" group_strings ^ "#" ^ static_string

let grouping_signature ~parts ~statics ~groups =
  canonical ~member_keys:(member_key parts) ~statics ~groups

let scheme_signature (s : Scheme.t) =
  let groups =
    List.init s.Scheme.region_count (fun r -> Scheme.region_members s r)
  in
  grouping_signature ~parts:s.Scheme.partitions
    ~statics:(Scheme.static_members s) ~groups

let placement_signature placement =
  (* Canonical renumbering by first appearance; -1 (static) is kept
     as-is. The fast per-search form: one pass, no sorting. *)
  let n = Array.length placement in
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  let buf = Buffer.create (n * 3) in
  for p = 0 to n - 1 do
    if p > 0 then Buffer.add_char buf ',';
    let r = placement.(p) in
    if r < 0 then Buffer.add_char buf 's'
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
      Buffer.add_string buf (string_of_int id)
    end
  done;
  Buffer.contents buf
