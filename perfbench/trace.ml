(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions; nothing inside the program is instrumented.
   A span has a name, a start, an end and the span that was open when it
   started (its parent; -1 for a root). Spans stay in memory and are
   written out as JSON lines when the run ends. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;  (* open spans *)
}

let create () = { spans = []; next = 0; stack = [] }
let now = Unix.gettimeofday

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* A root span recorded after the fact. *)
let record t name start stop =
  t.spans <- { id = fresh_id t; parent = -1; name; start; stop } :: t.spans

(* Run [f] inside a span nested under the innermost open span. Returns
   the result and the span's duration in ms. *)
let timed t name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let id = fresh_id t in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; start; stop } :: t.spans;
    (stop -. start) *. 1000.
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span t name f = fst (timed t name f)

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.stop -. s.start) *. 1000.) else None)
    t.spans

let busy_ms t name = List.fold_left ( +. ) 0. (durations t name)
let calls t name = List.length (durations t name)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.start s.stop)
    (List.rev t.spans);
  close_out oc
