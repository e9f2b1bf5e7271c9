(* Prscope: turn a recorded telemetry handle into a profiling report —
   a hierarchical span tree with self/total time, a hot-path ranking,
   deterministic span percentiles, the depth-resolved prune table,
   and the per-domain busy/idle table from the Par pool gauges. Pure
   rendering: everything here reads aggregates that already exist on
   the handle, so it can run after the fact on a loaded trace too. *)

type node = {
  name : string;
  calls : int;
  total_s : float;
  children : node list;
}

let self_s node =
  let nested =
    List.fold_left (fun acc c -> acc +. c.total_s) 0. node.children
  in
  let s = node.total_s -. nested in
  if s < 0. then 0. else s

(* ------------------------------------------------------------- span tree *)

(* Rebuild the call tree from Begin/End events. Same-named siblings
   under one parent merge into a single node (calls accumulate), so
   repeated phases render as one line. Unbalanced traces (an End
   without its Begin, or trailing Begins) degrade gracefully: orphan
   Ends are dropped, unclosed Begins keep zero duration. *)
let span_tree events =
  let ms_of (e : Event.t) =
    match List.assoc_opt "ms" e.Event.attrs with
    | Some j -> (match Json.to_float j with Some f -> f /. 1e3 | None -> 0.)
    | None -> 0.
  in
  (* A mutable scratch node per open frame. *)
  let module Scratch = struct
    type t = {
      name : string;
      mutable calls : int;
      mutable total : float;
      order : (string, t) Hashtbl.t;
      mutable sequence : string list;  (* first-seen child order, reversed *)
    }

    let make name =
      { name; calls = 0; total = 0.; order = Hashtbl.create 4; sequence = [] }

    let child parent name =
      match Hashtbl.find_opt parent.order name with
      | Some c -> c
      | None ->
        let c = make name in
        Hashtbl.add parent.order name c;
        parent.sequence <- name :: parent.sequence;
        c

    let rec freeze scratch =
      { name = scratch.name;
        calls = scratch.calls;
        total_s = scratch.total;
        children =
          List.rev_map
            (fun name -> freeze (Hashtbl.find scratch.order name))
            scratch.sequence }
  end in
  let root = Scratch.make "" in
  let stack = ref [ root ] in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Begin ->
        let parent = List.hd !stack in
        let node = Scratch.child parent e.Event.name in
        node.Scratch.calls <- node.Scratch.calls + 1;
        stack := node :: !stack
      | Event.End -> begin
          match !stack with
          | frame :: (_ :: _ as rest) when frame.Scratch.name = e.Event.name ->
            frame.Scratch.total <- frame.Scratch.total +. ms_of e;
            stack := rest
          | _ -> ()  (* orphan End *)
        end
      | Event.Point | Event.Counter | Event.Gauge -> ())
    events;
  (Scratch.freeze root).children

let ms v = Report.Table.fixed 3 (v *. 1e3)

let render_tree roots =
  let grand_total =
    List.fold_left (fun acc n -> acc +. n.total_s) 0. roots
  in
  let rows = ref [] in
  let rec walk depth node =
    let indent = String.make (2 * depth) ' ' in
    let share =
      if grand_total > 0. then
        Printf.sprintf "%5.1f%%" (100. *. node.total_s /. grand_total)
      else "    -"
    in
    rows :=
      [ indent ^ node.name;
        string_of_int node.calls;
        ms node.total_s;
        ms (self_s node);
        share ]
      :: !rows;
    List.iter (walk (depth + 1)) node.children
  in
  List.iter (walk 0) roots;
  if !rows = [] then "span tree: no trace events recorded\n"
  else
    "span tree (total = children + self):\n"
    ^ Report.Table.render
        ~headers:[ "span"; "calls"; "total ms"; "self ms"; "share" ]
        (List.rev !rows)

(* ------------------------------------------------------------- hot paths *)

(* Rank spans by self time: where the run actually burned CPU once
   nested phases are subtracted out. *)
let hot_paths roots =
  let acc = Hashtbl.create 16 in
  let rec walk node =
    let prev =
      match Hashtbl.find_opt acc node.name with
      | Some (calls, self) -> (calls, self)
      | None -> (0, 0.)
    in
    Hashtbl.replace acc node.name
      (fst prev + node.calls, snd prev +. self_s node);
    List.iter walk node.children
  in
  List.iter walk roots;
  let rows = Hashtbl.fold (fun k (c, s) l -> (k, c, s) :: l) acc [] in
  List.sort
    (fun (na, _, sa) (nb, _, sb) ->
      match compare sb sa with 0 -> String.compare na nb | c -> c)
    rows

let render_hot ?(limit = 10) roots =
  let rows = hot_paths roots in
  let grand = List.fold_left (fun a (_, _, s) -> a +. s) 0. rows in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  if rows = [] then ""
  else
    "hot paths (by self time):\n"
    ^ Report.Table.render
        ~headers:[ "rank"; "span"; "calls"; "self ms"; "share" ]
        (List.mapi
           (fun i (name, calls, self) ->
             [ string_of_int (i + 1);
               name;
               string_of_int calls;
               ms self;
               (if grand > 0. then
                  Printf.sprintf "%5.1f%%" (100. *. self /. grand)
                else "    -") ])
           (take limit rows))

(* ----------------------------------------------------------- percentiles *)

let render_percentiles t =
  let spans = List.filter (fun s -> s.Telemetry.calls > 0) (Telemetry.span_list t) in
  if spans = [] then ""
  else
    "span latency percentiles:\n"
    ^ Report.Table.render
        ~headers:[ "span"; "calls"; "p50 ms"; "p90 ms"; "p99 ms"; "max ms" ]
        (List.map
           (fun s ->
             [ s.Telemetry.span_name;
               string_of_int s.Telemetry.calls;
               ms (Histogram.quantile s.Telemetry.latency 0.50);
               ms (Histogram.quantile s.Telemetry.latency 0.90);
               ms (Histogram.quantile s.Telemetry.latency 0.99);
               ms s.Telemetry.max_s ])
           spans)

(* ---------------------------------------------------- depth-resolved view *)

(* The branch-and-bound publishes per-depth counters under a fixed
   name scheme, [exact.depth<d>.states]/[.pruned]. Collect whatever
   depths exist and tabulate them. *)
let depth_of_counter ~prefix ~suffix name =
  let plen = String.length prefix and slen = String.length suffix in
  let n = String.length name in
  if
    n > plen + slen
    && String.sub name 0 plen = prefix
    && String.sub name (n - slen) slen = suffix
  then int_of_string_opt (String.sub name plen (n - plen - slen))
  else None

let depth_table counters ~prefix ~left ~right =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      let slot d =
        match Hashtbl.find_opt table d with
        | Some s -> s
        | None ->
          let s = (ref 0, ref 0) in
          Hashtbl.add table d s;
          s
      in
      (match depth_of_counter ~prefix ~suffix:("." ^ left) name with
       | Some d -> fst (slot d) := v
       | None -> ());
      match depth_of_counter ~prefix ~suffix:("." ^ right) name with
      | Some d -> snd (slot d) := v
      | None -> ())
    counters;
  List.sort compare
    (Hashtbl.fold (fun d (l, r) acc -> (d, !l, !r) :: acc) table [])

let render_exact_depths t =
  let rows =
    depth_table (Telemetry.counters_list t) ~prefix:"exact.depth"
      ~left:"states" ~right:"pruned"
  in
  if rows = [] then ""
  else
    "branch-and-bound by partition depth:\n"
    ^ Report.Table.render
        ~headers:[ "depth"; "states"; "pruned"; "prune rate" ]
        (List.map
           (fun (d, states, pruned) ->
             let total = states + pruned in
             [ string_of_int d;
               string_of_int states;
               string_of_int pruned;
               (if total = 0 then "-"
                else
                  Report.Table.fixed 3
                    (float_of_int pruned /. float_of_int total)) ])
           rows)

(* ------------------------------------------------------ per-domain table *)

(* The Par pool flushes one gauge set per participating domain. When no
   pool ran (jobs = 1, the inline path) we still render a single-row
   table attributing everything to the calling domain, so the report
   shape is stable. *)
let render_domains t =
  let gauges = Telemetry.gauges_list t in
  let value name = List.assoc_opt name gauges in
  let rec collect i acc =
    let key suffix = Printf.sprintf "par.domain%d.%s" i suffix in
    match value (key "busy_s") with
    | None -> List.rev acc
    | Some busy ->
      let idle = Option.value ~default:0. (value (key "idle_s")) in
      let items =
        int_of_float (Option.value ~default:0. (value (key "items")))
      in
      let tasks =
        int_of_float (Option.value ~default:0. (value (key "tasks")))
      in
      collect (i + 1) ((i, busy, idle, items, tasks) :: acc)
  in
  let rows = collect 0 [] in
  let rows =
    if rows <> [] then rows
    else begin
      (* Inline fallback: all work ran on the calling domain. *)
      let busy =
        List.fold_left
          (fun acc s ->
            if s.Telemetry.span_name = "engine.solve" then
              acc +. s.Telemetry.total_s
            else acc)
          0. (Telemetry.span_list t)
      in
      [ (0, busy, 0., 0, 0) ]
    end
  in
  let util (busy, idle) =
    let wall = busy +. idle in
    if wall > 0. then Printf.sprintf "%5.1f%%" (100. *. busy /. wall) else "    -"
  in
  let header =
    match Telemetry.gauge_value t "par.utilisation" with
    | Some u ->
      Printf.sprintf "per-domain profile (pool utilisation %.1f%%):\n"
        (100. *. u)
    | None -> "per-domain profile:\n"
  in
  header
  ^ Report.Table.render
      ~headers:[ "domain"; "busy ms"; "idle ms"; "busy"; "items"; "tasks" ]
      (List.map
         (fun (i, busy, idle, items, tasks) ->
           [ (if i = 0 then "0 (caller)" else string_of_int i);
             ms busy;
             ms idle;
             util (busy, idle);
             string_of_int items;
             string_of_int tasks ])
         rows)

(* -------------------------------------------------------------- progress *)

(* Best-cost-over-evaluations curve collected by the engine when
   tracing: a coarse convergence view of the search. *)
let render_progress curve =
  match curve with
  | [] -> ""
  | _ ->
    "search progress (best cost over evaluations):\n"
    ^ Report.Table.render
        ~headers:[ "evaluations"; "best total frames" ]
        (List.map
           (fun (evals, best) ->
             [ string_of_int evals; string_of_int best ])
           curve)

(* ---------------------------------------------------------------- report *)

let report t =
  let sections =
    [ render_tree (span_tree (Telemetry.events t));
      render_hot (span_tree (Telemetry.events t));
      render_percentiles t;
      render_exact_depths t;
      render_domains t ]
  in
  String.concat "\n" (List.filter (fun s -> s <> "") sections)

(* ------------------------------------------------- exposition validation *)

(* Structural check of a Prometheus text page: every sample line parses
   as [name{labels} value] or [name value]; every histogram family's
   bucket counts are cumulative (non-decreasing, ending at +Inf) and
   agree with its _count row. Used by the CLI smoke test to assert
   metrics.txt stays well-formed. *)
let check_exposition text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let is_metric_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let parse_sample line =
    (* name[{labels}] SP value *)
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_metric_char line.[!i] do incr i done;
    if !i = 0 then Error (Printf.sprintf "bad metric name in %S" line)
    else begin
      let name = String.sub line 0 !i in
      let labels =
        if !i < n && line.[!i] = '{' then begin
          match String.index_from_opt line !i '}' with
          | None -> None
          | Some close ->
            let l = String.sub line (!i + 1) (close - !i - 1) in
            i := close + 1;
            Some l
        end
        else Some ""
      in
      match labels with
      | None -> Error (Printf.sprintf "unterminated labels in %S" line)
      | Some labels ->
        if !i >= n || line.[!i] <> ' ' then
          Error (Printf.sprintf "missing value in %S" line)
        else begin
          let v = String.sub line (!i + 1) (n - !i - 1) in
          match float_of_string_opt v with
          | Some f -> Ok (name, labels, f)
          | None ->
            if v = "+Inf" then Ok (name, labels, infinity)
            else Error (Printf.sprintf "bad value %S in %S" v line)
        end
    end
  in
  let histograms = Hashtbl.create 8 in
  (* name -> (buckets rev list, count option) *)
  let hist name =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h = (ref [], ref None) in
      Hashtbl.add histograms name h;
      h
  in
  let strip name suffix =
    let n = String.length name and s = String.length suffix in
    if n > s && String.sub name (n - s) s = suffix then
      Some (String.sub name 0 (n - s))
    else None
  in
  let rec check_lines = function
    | [] -> Ok ()
    | line :: rest ->
      if String.length line >= 1 && line.[0] = '#' then check_lines rest
      else begin
        match parse_sample line with
        | Error e -> Error e
        | Ok (name, _labels, value) ->
          (match strip name "_bucket" with
           | Some family ->
             let buckets, _ = hist family in
             buckets := value :: !buckets
           | None ->
             (match strip name "_count" with
              | Some family ->
                let _, count = hist family in
                count := Some value
              | None -> ()));
          check_lines rest
      end
  in
  match check_lines lines with
  | Error _ as e -> e
  | Ok () ->
    Hashtbl.fold
      (fun family (buckets, count) acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let ordered = List.rev !buckets in
          let rec non_decreasing = function
            | a :: (b :: _ as rest) ->
              if a > b then false else non_decreasing rest
            | _ -> true
          in
          if not (non_decreasing ordered) then
            Error (Printf.sprintf "histogram %s buckets not cumulative" family)
          else begin
            match (List.rev ordered, !count) with
            | last :: _, Some c when last <> c ->
              Error
                (Printf.sprintf "histogram %s +Inf bucket %g <> count %g"
                   family last c)
            | _, None ->
              Error (Printf.sprintf "histogram %s missing _count" family)
            | _ -> Ok ()
          end)
      histograms (Ok ())
