type memory = {
  bandwidth_bytes_per_s : float;
  latency_s : float;
}

let flash = { bandwidth_bytes_per_s = 20e6; latency_s = 100e-6 }
let ddr = { bandwidth_bytes_per_s = 800e6; latency_s = 1e-6 }

let fetch_seconds memory ~frames =
  if frames < 0 then invalid_arg "Fetch.fetch_seconds: negative frames";
  if frames = 0 then 0.
  else
    memory.latency_s
    +. (float_of_int (Fpga.Frame.bytes_of_frames frames)
        /. memory.bandwidth_bytes_per_s)

type policy = Lru | Fifo | Largest_out

(* Residents kept in an ordered list: head = next eviction victim under
   LRU/FIFO (the list is maintained oldest-first; LRU refreshes on hit,
   FIFO does not). Caches hold at most tens of bitstreams, so lists are
   fine. *)
type cache = {
  policy : policy;
  capacity : int;
  mutable residents : ((int * int) * int) list;  (* key, frames *)
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
}

let create_cache ?(policy = Lru) ~capacity_frames () =
  if capacity_frames < 0 then
    invalid_arg "Fetch.create_cache: negative capacity";
  { policy;
    capacity = capacity_frames;
    residents = [];
    used = 0;
    hits = 0;
    misses = 0 }

let policy t = t.policy
let capacity_frames t = t.capacity
let resident_frames t = t.used
let stats t = (t.hits, t.misses)

type access = { key : int * int; frames : int; hit : bool; seconds : float }

let evict_one t =
  match t.policy with
  | Lru | Fifo -> (
    match t.residents with
    | [] -> ()
    | (_, frames) :: rest ->
      t.residents <- rest;
      t.used <- t.used - frames)
  | Largest_out ->
    let largest =
      List.fold_left
        (fun acc (_, frames) -> max acc frames)
        0 t.residents
    in
    let rec drop = function
      | [] -> []
      | (_, frames) :: rest when frames = largest ->
        t.used <- t.used - frames;
        rest
      | entry :: rest -> entry :: drop rest
    in
    t.residents <- drop t.residents

let insert t key frames =
  if frames <= t.capacity then begin
    while t.used + frames > t.capacity do
      evict_one t
    done;
    t.residents <- t.residents @ [ (key, frames) ];
    t.used <- t.used + frames
  end

(* Single pass: remove [key]'s entry (if resident) and return it along
   with the remaining list in order. *)
let extract key residents =
  let rec scan acc = function
    | [] -> None
    | ((k, _) as entry) :: rest when k = key ->
      Some (entry, List.rev_append acc rest)
    | entry :: rest -> scan (entry :: acc) rest
  in
  scan [] residents

let access t memory ~key ~frames =
  if frames < 0 then invalid_arg "Fetch.access: negative frames";
  match extract key t.residents with
  | Some (entry, rest) ->
    t.hits <- t.hits + 1;
    (match t.policy with
     | Lru ->
       (* Refresh: move to the tail, reusing the single extraction pass. *)
       t.residents <- rest @ [ entry ]
     | Fifo | Largest_out -> ());
    { key; frames; hit = true; seconds = 0. }
  | None ->
    t.misses <- t.misses + 1;
    insert t key frames;
    { key; frames; hit = false; seconds = fetch_seconds memory ~frames }

let invalidate t ~key =
  match extract key t.residents with
  | None -> ()
  | Some ((_, frames), rest) ->
    t.residents <- rest;
    t.used <- t.used - frames

let residents t = t.residents

type report = {
  reconfigurations : int;
  hits : int;
  misses : int;
  icap_seconds : float;
  fetch_seconds : float;
  total_seconds : float;
}

let render r =
  Printf.sprintf
    "%d region reloads (%d cache hits, %d misses): %.3f ms ICAP + %.3f ms \
     fetch = %.3f ms"
    r.reconfigurations r.hits r.misses (1e3 *. r.icap_seconds)
    (1e3 *. r.fetch_seconds) (1e3 *. r.total_seconds)
